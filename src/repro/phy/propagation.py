"""Unit-disk propagation model.

Every station has the same transmission radius ``R`` (paper: 0.2 in a unit
square; Section 5 assumes "the transmission radius is constant").  A frame
transmitted by ``u`` is audible exactly at the stations within Euclidean
distance ``R`` of ``u``; interference range equals transmission range, which
is the model under which the paper's Theorems 1 and 3 hold.

Received power is modelled as ``d**-eta`` (path-loss exponent ``eta``,
default 4 as in Zorzi & Rao) and is only used to rank colliding frames for
the capture model -- absolute calibration is irrelevant.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["distance_matrix", "neighbor_sets", "UnitDiskPropagation"]

#: Path-loss exponent used to rank colliding frames (Zorzi & Rao use 4).
DEFAULT_PATH_LOSS_EXPONENT = 4.0


def distance_matrix(positions: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances for an ``(N, 2)`` position array."""
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ValueError(f"positions must be (N, 2), got {positions.shape}")
    delta = positions[:, None, :] - positions[None, :, :]
    return np.sqrt((delta**2).sum(axis=2))


def neighbor_sets(positions: np.ndarray, radius: float) -> list[frozenset[int]]:
    """Neighbor set of every node: others strictly within ``radius``.

    Nodes at distance exactly ``radius`` count as neighbors (closed disk),
    matching the paper's "coverage area" :math:`A(s)` being a closed disk.
    """
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    dm = distance_matrix(positions)
    n = dm.shape[0]
    within = dm <= radius
    np.fill_diagonal(within, False)
    return [frozenset(np.flatnonzero(within[i]).tolist()) for i in range(n)]


class UnitDiskPropagation:
    """Precomputed propagation state for a static topology.

    Parameters
    ----------
    positions:
        ``(N, 2)`` array of node coordinates.
    radius:
        Common transmission radius ``R``.
    path_loss_exponent:
        Exponent ``eta`` for the power ranking ``d**-eta``.
    """

    def __init__(
        self,
        positions: np.ndarray,
        radius: float,
        path_loss_exponent: float = DEFAULT_PATH_LOSS_EXPONENT,
        interference_factor: float = 1.0,
    ):
        # Comparisons are written so NaN fails them.
        if not 0.0 < radius < math.inf:
            raise ValueError(f"radius must be finite and positive, got {radius!r}")
        if not math.isfinite(interference_factor):
            raise ValueError(f"interference_factor must be finite, got {interference_factor!r}")
        if not interference_factor >= 1.0:
            raise ValueError(
                f"interference_factor must be >= 1 (got {interference_factor}): "
                "a frame cannot be decodable where it is not even audible"
            )
        self.positions = np.asarray(positions, dtype=float)
        self.radius = float(radius)
        self.eta = float(path_loss_exponent)
        #: Interference (audibility) range as a multiple of the decode
        #: range.  The paper's model -- under which Theorems 1/3 are exact
        #: -- is 1.0; larger values let transmissions corrupt receptions
        #: (and trip carrier sense) beyond decode range, a standard
        #: real-radio effect probed by the interference ablation.
        self.interference_factor = float(interference_factor)
        self.distances = distance_matrix(self.positions)
        self.neighbors = neighbor_sets(self.positions, self.radius)
        if self.interference_factor == 1.0:
            self.interferers = self.neighbors
        else:
            self.interferers = neighbor_sets(
                self.positions, self.radius * self.interference_factor
            )
        self._build_fast_tables()

    def _build_fast_tables(self) -> None:
        """Precompute the reception fast-path tables.

        * ``power_rows`` -- the full ``d**-eta`` received-power table as
          nested plain-Python lists (``inf`` for co-located nodes),
          computed once per topology instead of per colliding frame.
          Each entry is produced by *scalar* ``pow``: numpy's vectorized
          ``ndarray ** -eta`` takes a SIMD code path whose results can
          differ from libm ``pow`` in the last ulp, which would silently
          shift capture verdicts relative to the pre-fast-path scalar
          implementation -- scalar ``float ** float`` is bit-identical to
          the old per-call ``np.float64 ** float`` (both hit libm);
        * ``rx_matrix`` -- the same table as an ndarray, for vectorized
          consumers;
        * ``neighbor_lists`` / ``interferer_lists`` -- the per-sender
          neighbor ids as lists, in the *same iteration order* as the
          frozensets (reception order determines channel RNG draw order,
          so the order must not change).

        These tables ride along whenever the propagation object is shared
        -- notably through :class:`repro.workload.cache.WorldCache`, which
        caches this object per (settings, seed), so a whole sweep cell
        pays for them once.
        """
        inf = float("inf")
        neg_eta = -self.eta
        self.power_rows: list[list[float]] = [
            [(inf if d == 0.0 else d**neg_eta) for d in row]
            for row in self.distances.tolist()
        ]
        self.rx_matrix = np.asarray(self.power_rows)
        self.neighbor_lists: list[list[int]] = [list(s) for s in self.neighbors]
        if self.interferers is self.neighbors:
            self.interferer_lists = self.neighbor_lists
        else:
            self.interferer_lists = [list(s) for s in self.interferers]
        # Per-profile MCS tables are derived from power_rows, so any
        # topology change (mobility) invalidates them.
        self._link_mcs_cache: dict = {}

    def link_mcs(self, profile) -> list[list[int]]:
        """Per-link fastest decodable MCS under *profile*
        (a :class:`~repro.phy.profile.PhyProfile`).

        ``link_mcs(profile)[sender][receiver]`` is the highest MCS index
        whose received power requirement the link clears (thresholds from
        :meth:`PhyProfile.power_thresholds` against ``power_rows``), or
        ``-1`` when the receiver is outside decode range entirely.
        Memoised per profile; rebuilt when the topology moves.
        """
        cached = self._link_mcs_cache.get(profile)
        if cached is not None:
            return cached
        thresholds = profile.power_thresholds(self.radius, self.eta)
        top = len(thresholds) - 1
        table: list[list[int]] = []
        for row in self.power_rows:
            out = []
            for p in row:
                m = top
                while m >= 0 and p < thresholds[m]:
                    m -= 1
                out.append(m)
            table.append(out)
        self._link_mcs_cache[profile] = table
        return table

    @property
    def n_nodes(self) -> int:
        return self.positions.shape[0]

    def update_positions(self, positions: np.ndarray) -> None:
        """Move the nodes (mobility support): replace all coordinates and
        recompute distances and neighbor sets in place.

        Callers holding references to this object (the channel, LAMM's
        oracle) observe the new topology immediately; transmissions already
        in flight are resolved conservatively by the channel (a station
        that moved into range mid-frame missed the preamble and cannot
        decode it).
        """
        positions = np.asarray(positions, dtype=float)
        if positions.shape != self.positions.shape:
            raise ValueError(
                f"positions shape {positions.shape} != existing {self.positions.shape}"
            )
        self.positions = positions
        self.distances = distance_matrix(positions)
        self.neighbors = neighbor_sets(positions, self.radius)
        if self.interference_factor == 1.0:
            self.interferers = self.neighbors
        else:
            self.interferers = neighbor_sets(
                positions, self.radius * self.interference_factor
            )
        self._build_fast_tables()

    def are_neighbors(self, u: int, v: int) -> bool:
        """True iff ``v`` hears ``u`` (and vice versa; the model is symmetric)."""
        return v in self.neighbors[u]

    def rx_power(self, sender: int, receiver: int) -> float:
        """Relative received power of ``sender``'s signal at ``receiver``.

        Served from the precomputed ``rx_matrix``.  Co-located nodes
        (distance 0) get infinite power, which correctly dominates any
        capture comparison.
        """
        return float(self.rx_matrix[sender, receiver])

    def average_degree(self) -> float:
        """Mean neighbor count -- the x-axis of Figures 6(a)/9(a)/10(a)."""
        if self.n_nodes == 0:
            return 0.0
        return float(np.mean([len(s) for s in self.neighbors]))

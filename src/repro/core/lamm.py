"""LAMM -- the Location Aware Multicast MAC protocol (paper Section 5).

Sender's protocol::

    if s has a multicast message to send to the nodes in S:
        while S != {}:
            Batch_Mode_Procedure(MCS(S), S_ACK)
            S = UPDATE(S, S_ACK)

where ``MCS(S)`` is a (minimum) cover set of the working set and
``UPDATE(S, S_ACK)`` keeps only the members whose coverage disk is not
contained in the union of the ACKers' disks (Theorem 3, checked with the
angle-based test of Theorem 4).  Receivers outside the cover set are never
polled: the sender *infers* their collision-free reception from geometry.
That inference is exact in the theorem's model (unit-disk interference,
collision = loss for every station in range) -- the integration tests
verify it against the channel's ground truth on a pure collision channel.
DS capture sits outside that model: an ACKer may capture the DATA through
interference that silences an inferred member, so with capture enabled the
inference can leak even with true locations (counted by
``lamm.coverage_violations`` exactly like the location-error case).

Location sources
----------------
``location_source="oracle"`` (default) reads positions from the simulated
topology -- the paper's assumption that the beacon exchange already
happened.  ``location_source="beacons"`` reads them from the node's
:class:`~repro.mac.beacons.BeaconService` table instead; members whose
location is unknown (beacon not yet heard, or expired) are simply polled
directly, so LAMM degrades gracefully toward BMMM as location knowledge
thins out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.core.batch import BatchOutcome, batch_mode_procedure
from repro.geometry.cover import CoverGeometry, update_uncovered
from repro.geometry.mcs import greedy_cover_set, minimum_cover_set
from repro.mac.base import MacBase, MacRequest, MessageStatus
from repro.mac.registry import register_protocol
from repro.obs.codec import normalise_fields

__all__ = ["LammPolicy", "LammMac"]


@dataclass(frozen=True)
class LammPolicy:
    """Tunables of LAMM's geometric machinery.

    ``mcs``: ``"greedy"`` (default; always a valid cover set, near-minimum
    in practice) or ``"exact"`` (branch & bound minimum, Theorem 2's role).
    """

    mcs: str = "greedy"
    #: Exact search size limit before falling back to greedy.
    max_exact: int = 24

    def __post_init__(self):
        normalise_fields(self)
        if self.mcs not in ("greedy", "exact"):
            raise ValueError(f"unknown MCS policy {self.mcs!r}")
        # A negative limit would silently mean "always greedy".
        if self.max_exact < 0:
            raise ValueError(f"max_exact must be >= 0, got {self.max_exact}")

    def cover_set(
        self,
        ids: Iterable[int],
        positions: np.ndarray,
        radius: float,
        geometry: CoverGeometry | None = None,
    ) -> set[int]:
        ids = list(ids)
        if not ids:
            return set()
        if self.mcs == "exact":
            return minimum_cover_set(
                ids, positions, radius, max_exact=self.max_exact, geometry=geometry
            )
        return greedy_cover_set(ids, positions, radius, geometry=geometry)


@register_protocol("LAMM", needs_positions=True, paper_rank=4)
class LammMac(MacBase):
    """The Location Aware Multicast MAC."""

    name = "LAMM"
    #: Prefix for the update/inference counters and obs events; the
    #: rate-adaptive subclass (RAM) swaps in its own.
    _counter_prefix = "lamm"

    def __init__(
        self,
        *args,
        policy: LammPolicy | None = None,
        location_source: str = "oracle",
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        if location_source not in ("oracle", "beacons"):
            raise ValueError(f"unknown location_source {location_source!r}")
        self.policy = policy or LammPolicy()
        self.location_source = location_source

    # -- geometry plumbing -------------------------------------------------------

    def _split_by_location(self, members: set[int]):
        """Partition *members* into (known, unknown) and return a position
        array usable with the geometry routines for the known ones."""
        if self.location_source == "oracle":
            return set(members), set(), self.positions()
        service = getattr(self, "beacons", None)
        if service is None:
            raise RuntimeError(
                "LAMM configured with location_source='beacons' but the node "
                "has no BeaconService (pass beacons=BeaconConfig(...) to Network)"
            )
        n = self.channel.propagation.n_nodes
        positions = np.full((n, 2), np.nan)
        known: set[int] = set()
        for p in members:
            pos = service.table.position(p)
            if pos is not None:
                positions[p] = pos
                known.add(p)
        return known, members - known, positions

    def _cover_geometry(self, positions: np.ndarray, radius: float) -> CoverGeometry:
        """The network's cover geometry for *positions*.

        One geometry per positions array object is shared by every node on
        the channel; a new array (mobility moved the nodes, or a
        beacon-mode round built its own) gets a new geometry.
        """
        geometry = self.channel.cover_geometry
        if geometry is None or geometry.positions is not positions or geometry.radius != radius:
            geometry = self.channel.cover_geometry = CoverGeometry(positions, radius)
        return geometry

    # -- rate choice ---------------------------------------------------------------

    def _choose_mcs(self, known, unknown, positions, radius) -> int:
        """MCS index for this round's DATA frame.  LAMM is fixed-rate:
        always the base rate.  RAM overrides this with the worst-receiver
        rule."""
        return 0

    # -- sender protocol -----------------------------------------------------------

    def serve_group(self, req: MacRequest):
        radius = self.radius()
        remaining: set[int] = set(req.dests)
        #: Consecutive silent DATA rounds per receiver (give-up cap).
        fails: dict[int, int] = {}
        attempt = 0
        pfx = self._counter_prefix
        while remaining:
            if req.expired(self.env.now):
                return MessageStatus.TIMED_OUT
            known, unknown, positions = self._split_by_location(remaining)
            geometry = self._cover_geometry(positions, radius)
            cover = self.policy.cover_set(known, positions, radius, geometry)
            # Members without location knowledge are polled directly.
            polled = sorted(cover | unknown)
            mcs = self._choose_mcs(known, unknown, positions, radius)
            result = yield from batch_mode_procedure(self, req, polled, attempt, mcs=mcs)
            if result.outcome is BatchOutcome.EXPIRED:
                return MessageStatus.TIMED_OUT
            if result.outcome is BatchOutcome.RADIO_BUSY:
                continue
            if result.outcome is BatchOutcome.NO_CTS:
                attempt += 1
                self._note_retry(req, "no_cts", attempt)
                continue
            acked = set(result.acked)
            req.acked |= acked
            # Coverage inference (Theorem 3) uses only ACKers with known
            # locations; unknown members leave the set only by ACKing.
            next_known = update_uncovered(
                known, acked & known, positions, radius, geometry=geometry
            )
            inferred = known - next_known - acked
            req.inferred |= inferred
            req.acked |= inferred
            next_remaining = next_known | (unknown - acked)
            counters = self.channel.counters
            counters.inc(f"{pfx}.updates", node=self.node_id)
            if inferred:
                # An UPDATE step that shrank the working set beyond the
                # explicit ACKs -- Theorem 3's coverage argument at work.
                counters.inc(f"{pfx}.update_shrinks", node=self.node_id)
                counters.inc(f"{pfx}.inferred", node=self.node_id, n=len(inferred))
                # Theorem 3 is exact under the model it assumes (true
                # positions, pure collision loss).  Check each inference
                # against the channel's ground truth: a member declared
                # covered that never decoded this DATA frame is a coverage
                # violation -- the correctness cost of location error,
                # bursty loss, or an ACKer capturing through interference
                # the inferred member lost to.
                violated = inferred - self.channel.stats.data_receipts.get(
                    req.msg_id, set()
                )
                if violated:
                    counters.inc(
                        f"{pfx}.coverage_violations", node=self.node_id, n=len(violated)
                    )
                    if getattr(self.env.obs, f"{pfx}_coverage_violation"):
                        self.env.obs.emit(
                            f"{pfx}_coverage_violation",
                            node=self.node_id,
                            msg_id=req.msg_id,
                            members=sorted(violated),
                        )
            # Per-receiver retry cap: abandon members that stayed silent
            # through `receiver_give_up` consecutive DATA rounds (crashed,
            # or in a loss burst) instead of re-polling them forever.
            dropped = self._giveup_candidates(fails, polled, acked)
            dropped &= next_remaining  # coverage may already have removed them
            if dropped:
                self._note_give_up(req, dropped)
                next_remaining -= dropped
            obs = self.env.obs
            if getattr(obs, f"{pfx}_update"):
                obs.emit(
                    f"{pfx}_update",
                    node=self.node_id,
                    msg_id=req.msg_id,
                    polled=list(polled),
                    acked=sorted(acked),
                    inferred=sorted(inferred),
                    remaining_before=len(remaining),
                    remaining_after=len(next_remaining),
                )
            if remaining - next_remaining:
                attempt = 0  # progress: reset the backoff stage
            else:
                attempt += 1
                self._note_retry(req, "no_progress", attempt)
            remaining = next_remaining
        return MessageStatus.COMPLETED

"""Multi-rate PHY profiles: per-MCS DATA airtimes and decode ranges.

The paper's world is single-rate: every control frame occupies 1 slot and
every DATA frame 5 slots (Table 2), hard-coded for years as a pair of
module-global slot constants in :mod:`repro.sim.frames`.  Real 802.11
PHYs expose a *rate table* instead -- a set of modulation-and-coding
schemes (MCS) trading airtime against decode range: a faster MCS ships the
same payload in fewer slots but demands more received power, so it decodes
only closer to the transmitter (Seok-Turletti's RAM and Chen-Zhang's
multi-rate diversity work both build on exactly this trade-off).

:class:`PhyProfile` captures that table in the simulator's units:

* ``signal_slots`` -- airtime of every control frame (rate adaptation in
  802.11 applies to DATA; control frames go out at the base rate);
* ``data_slots[m]`` -- airtime of a DATA frame sent at MCS ``m``;
* ``range_fractions[m]`` -- fraction of the unit-disk radius within which
  MCS ``m`` decodes.  Index 0 is the base rate and must cover the full
  radius, so every neighbor can decode MCS 0 -- the invariant that keeps
  the default profile bit-identical to the historical constants.

The range fractions induce per-link *power* thresholds through the
existing ``d**-eta`` model of :class:`~repro.phy.propagation
.UnitDiskPropagation`: MCS ``m`` decodes at a receiver iff the received
power clears ``(f_m * R) ** -eta`` -- equivalently, iff the link distance
is at most ``f_m * R`` (see :meth:`power_thresholds`).

The default profile is the paper's single-rate world and is the value of
``SimulationSettings.phy``; every digest-relevant default stays pinned by
``tests/store/test_digests.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.codec import normalise_fields

__all__ = ["PhyProfile"]


@dataclass(frozen=True)
class PhyProfile:
    """A frozen 802.11 rate table in slot units.

    The default value reproduces Table 2 exactly: one MCS, 1-slot control
    frames, 5-slot DATA, full decode range.
    """

    #: Airtime of every control frame, in slots (Table 2 "Signal Time").
    signal_slots: int = 1
    #: Airtime of a DATA frame per MCS, in slots; index 0 is the base rate
    #: (Table 2 "Data Transmission Time" = 5).  Non-increasing: a higher
    #: MCS is never slower.
    data_slots: tuple[int, ...] = (5,)
    #: Decode range per MCS as a fraction of the unit-disk radius; index 0
    #: must be 1.0 (the base rate reaches every neighbor) and the sequence
    #: is non-increasing: a faster MCS never reaches farther.
    range_fractions: tuple[float, ...] = (1.0,)

    def __post_init__(self) -> None:
        normalise_fields(self)  # whole slots, real fractions, tuples
        for m, slots in enumerate(self.data_slots):
            if slots < 1:
                raise ValueError(f"data_slots[{m}] must be >= 1, got {slots}")
        if self.signal_slots < 1:
            raise ValueError(f"signal_slots must be >= 1, got {self.signal_slots}")
        if not self.data_slots:
            raise ValueError("data_slots must name at least one MCS")
        if len(self.data_slots) != len(self.range_fractions):
            raise ValueError(
                f"data_slots has {len(self.data_slots)} entries but range_fractions "
                f"has {len(self.range_fractions)}; one airtime and one range per MCS"
            )
        if self.range_fractions[0] != 1.0:
            raise ValueError(
                f"range_fractions[0] must be 1.0 (the base rate reaches every "
                f"neighbor), got {self.range_fractions[0]}"
            )
        for m, frac in enumerate(self.range_fractions):
            if not 0.0 < frac <= 1.0:
                raise ValueError(f"range_fractions[{m}] must be in (0, 1], got {frac}")
        for m in range(1, self.n_rates):
            if self.data_slots[m] > self.data_slots[m - 1]:
                raise ValueError(
                    f"data_slots must be non-increasing (a higher MCS is never "
                    f"slower); got {self.data_slots}"
                )
            if self.range_fractions[m] > self.range_fractions[m - 1]:
                raise ValueError(
                    f"range_fractions must be non-increasing (a faster MCS never "
                    f"reaches farther); got {self.range_fractions}"
                )

    # -- table lookups ------------------------------------------------------

    @property
    def n_rates(self) -> int:
        return len(self.data_slots)

    @property
    def is_single_rate(self) -> bool:
        """True when there is nothing to adapt (one MCS)."""
        return len(self.data_slots) == 1

    def data_airtime(self, mcs: int = 0) -> int:
        """DATA airtime in slots at *mcs* (raises on an unknown index)."""
        if not 0 <= mcs < len(self.data_slots):
            raise ValueError(f"MCS {mcs} outside rate table of {len(self.data_slots)}")
        return self.data_slots[mcs]

    # -- SNR/distance -> MCS mapping ---------------------------------------

    def power_thresholds(self, radius: float, eta: float) -> tuple[float, ...]:
        """Minimum received power to decode each MCS, in the propagation
        model's ``d**-eta`` units: MCS ``m`` needs ``(f_m * R) ** -eta``.
        Monotone non-decreasing in ``m`` (faster rates need more power)."""
        return tuple((frac * radius) ** -eta for frac in self.range_fractions)

    def mcs_for_distance(self, distance: float, radius: float) -> int:
        """The fastest MCS decodable over a link of length *distance*,
        or ``-1`` when the link is out of decode range entirely."""
        if distance > radius:
            return -1
        # range_fractions is non-increasing, so scan from the fastest end.
        for m in range(len(self.range_fractions) - 1, -1, -1):
            if distance <= self.range_fractions[m] * radius:
                return m
        return -1  # pragma: no cover - fractions[0] == 1.0 makes this dead

    def best_mcs(self, max_mcs: int) -> int:
        """The MCS to *transmit* at, given that every intended receiver
        sustains indices up to *max_mcs*: the fewest DATA slots, ties
        broken toward the lowest index (the most robust of the equally
        fast rates).  The lowest-index tie-break is what keeps a
        degenerate all-equal-airtime profile bit-identical to the
        single-rate default."""
        if max_mcs < 0:
            return 0
        top = min(max_mcs, len(self.data_slots) - 1)
        best = 0
        for m in range(1, top + 1):
            if self.data_slots[m] < self.data_slots[best]:
                best = m
        return best

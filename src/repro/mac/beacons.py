"""Beacon service: neighbor discovery and location dissemination.

The paper assumes the outcome of this machinery rather than simulating it:
"the beacon containing the station MAC address is broadcast periodically by
each station to announce its presence.  A station knows the neighbor's MAC
addresses through the exchanges of beacon signals" (Section 2), and for
LAMM, "if we include the location information in beacons, neighbors will
learn each other's location" (Section 5).

This module makes that machinery real:

* every station periodically contends for the medium and broadcasts a
  1-slot BEACON frame whose body carries its coordinates;
* every station maintains a :class:`NeighborTable` of (position,
  last-heard time) entries, evicting stale ones;
* :class:`repro.core.lamm.LammMac` can be configured to take its geometry
  from this table (``location_source="beacons"``) instead of from the
  simulator's omniscient topology, degrading gracefully: members whose
  location is unknown are simply polled directly, exactly as BMMM would.

Beacon periods are jittered per-station so the fleet does not synchronise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.mac.contention import Contender
from repro.sim.frames import Frame, FrameType, GROUP_ADDR

if TYPE_CHECKING:  # pragma: no cover
    from repro.mac.base import MacBase

__all__ = ["BeaconConfig", "NeighborTable", "BeaconService"]


@dataclass(frozen=True)
class BeaconConfig:
    """Beaconing parameters.

    The 802.11 default beacon interval is ~100 TU; with Table 2's scale we
    default to 100 slots.  ``lifetime`` controls staleness eviction (a
    station missing three consecutive beacons is dropped).
    """

    period: float = 100.0
    jitter: float = 10.0
    lifetime: float = 300.0
    include_location: bool = True

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError(f"period must be positive, got {self.period}")
        if not 0 <= self.jitter < self.period:
            raise ValueError(f"jitter must be in [0, period), got {self.jitter}")
        if self.lifetime <= self.period:
            raise ValueError("lifetime must exceed the beacon period")


@dataclass
class _Entry:
    position: tuple[float, float] | None
    last_heard: float


class NeighborTable:
    """Beacon-learned neighbor state for one station."""

    def __init__(self, env, lifetime: float):
        self.env = env
        self.lifetime = lifetime
        self._entries: dict[int, _Entry] = {}

    def update(self, node_id: int, position: tuple[float, float] | None) -> None:
        self._entries[node_id] = _Entry(position, self.env.now)

    def _fresh(self, entry: _Entry) -> bool:
        return self.env.now - entry.last_heard <= self.lifetime

    def neighbors(self) -> frozenset[int]:
        """Stations heard from within the lifetime."""
        return frozenset(i for i, e in self._entries.items() if self._fresh(e))

    def position(self, node_id: int) -> tuple[float, float] | None:
        """Last known location of *node_id* (None if stale, unknown, or the
        neighbor does not advertise location)."""
        e = self._entries.get(node_id)
        if e is None or not self._fresh(e):
            return None
        return e.position

    def known_positions(self) -> dict[int, tuple[float, float]]:
        return {
            i: e.position
            for i, e in self._entries.items()
            if self._fresh(e) and e.position is not None
        }

    def __len__(self) -> int:
        return len(self.neighbors())


class BeaconService:
    """Per-node beaconing process + table maintenance.

    Runs its own contention engine (an independent backoff stream) so the
    management plane and the data plane contend for the medium the way two
    queues on one radio would; both sides re-check ``is_transmitting``
    after winning contention, so they never double-drive the radio.
    """

    def __init__(self, mac: "MacBase", config: BeaconConfig | None = None):
        self.mac = mac
        self.env = mac.env
        self.config = config or BeaconConfig()
        self.table = NeighborTable(mac.env, self.config.lifetime)
        # Derive the beacon stream from the node's own (seeded) RNG so the
        # whole network stays a pure function of its seed; one draw from
        # mac.rng is a deterministic, documented cost.
        self.rng = random.Random(mac.rng.getrandbits(64))
        self._contender = Contender(
            mac.env, mac.radio, mac.nav, self.rng, mac.config.contention
        )
        mac.radio.add_listener(self._on_frame)
        self.process = mac.env.process(self._run(), name=f"beacons-{mac.node_id}")

    def _position(self) -> tuple[float, float] | None:
        if not self.config.include_location:
            return None
        x, y = self.mac.positions()[self.mac.node_id]
        return (float(x), float(y))

    def _on_frame(self, frame: Frame, clean: bool) -> None:
        if frame.ftype is FrameType.BEACON:
            self.table.update(frame.src, frame.info)

    def _run(self):
        cfg = self.config
        # Desynchronised start.
        yield self.env.timeout(self.rng.uniform(0, cfg.period))
        while True:
            yield from self._contender.contention_phase()
            if not self.mac.radio.is_transmitting:
                beacon = Frame(
                    FrameType.BEACON,
                    src=self.mac.node_id,
                    ra=GROUP_ADDR,
                    duration=0,
                    info=self._position(),
                )
                yield self.mac.radio.transmit(beacon)
            delay = cfg.period + self.rng.uniform(-cfg.jitter, cfg.jitter)
            yield self.env.timeout(max(1.0, delay))

"""Shared-world caching for sweep grids.

A sweep point runs every protocol at every seed, but the *world* each run
faces -- node positions, the unit-disk neighbor/interferer sets and the
precomputed traffic schedule -- depends only on ``(settings, seed)``, not
on the protocol.  Rebuilding it per protocol repeats the O(n^2) distance
matrix and the arrival draw (``n_nodes x horizon`` Bernoulli trials, drawn
a block at a time) four times per cell.

:class:`WorldCache` memoizes those artifacts per worker process so the
four protocols at one (point, seed) share a single build.  Everything
cached here is *immutable during a static run*: positions and
:class:`~repro.phy.propagation.UnitDiskPropagation` are only mutated by
mobility (which the sweep engine does not use), and a
:class:`~repro.workload.generator.TrafficGenerator` holds a frozen
schedule whose injection is re-instantiated per run.  Mutable per-run
state (:class:`~repro.sim.kernel.Environment`,
:class:`~repro.sim.channel.Channel`, MAC instances, RNG streams) is
*never* cached -- every job still gets a fresh simulation world, which is
what keeps cached runs bit-identical to cold ones (tested in
``tests/experiments/test_sweep.py``).

Two cache levels, because their keys differ:

* **topology** -- keyed by ``(n_nodes, side, radius, interference_factor,
  seed)``: positions + propagation.  A cached
  :class:`UnitDiskPropagation` carries its reception fast-path tables
  (``power_rows`` / ``rx_matrix`` / ``neighbor_lists``, see
  :mod:`repro.phy.propagation`) with it, so the per-topology table build
  is also amortised across the cell's protocols and fault levels;
* **schedule** -- keyed by the topology key plus ``(horizon,
  message_rate, mix)``: the :class:`TrafficGenerator` (its schedule is
  drawn from the topology's neighbor sets).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.phy.propagation import UnitDiskPropagation
from repro.workload.generator import TrafficGenerator
from repro.workload.topology import uniform_square

__all__ = ["WorldParts", "WorldCache", "topology_key", "schedule_key"]


@dataclass(frozen=True)
class WorldParts:
    """The protocol-independent artifacts of one ``(settings, seed)`` run."""

    positions: np.ndarray
    propagation: UnitDiskPropagation
    generator: TrafficGenerator


def topology_key(settings, seed: int) -> tuple:
    """The settings fields that determine placement and connectivity."""
    return (
        settings.n_nodes,
        settings.side,
        settings.radius,
        settings.interference_factor,
        seed,
    )


def schedule_key(settings, seed: int) -> tuple:
    """Topology key plus the fields that determine the traffic schedule.

    The fault plan rides on this key (not the topology key): fault points
    never change placement or connectivity, so a degradation sweep still
    shares one O(n^2) topology build across all its fault levels, while
    distinct plans keep distinct cache slots.
    """
    return topology_key(settings, seed) + (
        settings.horizon,
        settings.message_rate,
        settings.mix,
        settings.faults,
    )


class WorldCache:
    """Bounded per-process memo of :class:`WorldParts`.

    The sweep engine orders jobs so that all protocols of one
    ``(point, seed)`` cell are consecutive; a handful of entries is
    therefore enough.  Eviction is least-recently-used: a full cold grid
    behaves exactly like FIFO (old cells never come back), but a
    *resumed* campaign (``repro-mac sweep --store``) dispatches only the
    missing cells, which can interleave partial cells non-consecutively
    -- LRU keeps the still-warm worlds alive in that sparse pattern.
    """

    def __init__(self, maxsize: int = 4):
        if maxsize < 1:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize
        #: schedule key -> complete world (positions + propagation + generator).
        self._worlds: dict[tuple, WorldParts] = {}
        #: topology key -> (positions, propagation); lets sweep points that
        #: differ only in horizon/rate/mix (e.g. a rate sweep) still share
        #: one topology build.
        self._topologies: dict[tuple, tuple[np.ndarray, UnitDiskPropagation]] = {}
        #: Build/hit tally (surfaced in sweep bench records).
        self.hits = 0
        self.misses = 0

    def world(self, settings, seed: int) -> WorldParts:
        """The shared artifacts for ``(settings, seed)``, built on miss.

        Construction goes through exactly the code paths
        :func:`~repro.experiments.runner.run_raw` uses for a cold run
        (:func:`uniform_square`, :class:`UnitDiskPropagation`,
        :class:`TrafficGenerator`), so a cache hit changes wall-clock
        only, never results.
        """
        skey = schedule_key(settings, seed)
        cached = self._worlds.pop(skey, None)
        if cached is not None:
            # Reinsert at the back: dict order is the LRU order.
            self._worlds[skey] = cached
            self.hits += 1
            return cached
        self.misses += 1
        tkey = topology_key(settings, seed)
        topo = self._topologies.pop(tkey, None)
        if topo is not None:
            self._topologies[tkey] = topo
        else:
            positions = uniform_square(settings.n_nodes, seed=seed, side=settings.side)
            propagation = UnitDiskPropagation(
                positions,
                settings.radius,
                interference_factor=settings.interference_factor,
            )
            topo = (positions, propagation)
            self._evict(self._topologies)
            self._topologies[tkey] = topo
        positions, propagation = topo
        gen = TrafficGenerator(
            settings.n_nodes,
            propagation.neighbors,
            horizon=settings.horizon,
            message_rate=settings.message_rate,
            mix=settings.mix,
            seed=seed,
        )
        world = WorldParts(positions, propagation, gen)
        self._evict(self._worlds)
        self._worlds[skey] = world
        return world

    def _evict(self, table: dict) -> None:
        while len(table) >= self.maxsize:
            del table[next(iter(table))]

    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses}

"""Reference traffic schedule: the dense-matrix arrival draw.

The original :meth:`TrafficGenerator._build_schedule`, kept as the oracle
for the block draw in :mod:`repro.workload.generator`: it draws the whole
``(n_nodes, horizon)`` matrix of uniforms at once, so its memory grows
with ``n_nodes x horizon``.  ``tests/workload/test_block_schedule.py``
pins the fast path to it, schedule for schedule.
"""

from __future__ import annotations

import numpy as np

from repro.mac.base import MessageKind
from repro.workload.generator import ScheduledMessage, TrafficMix


def reference_schedule(
    n_nodes: int,
    neighbor_sets: list[frozenset[int]],
    horizon: int,
    message_rate: float,
    mix: TrafficMix | None = None,
    seed: int = 0,
) -> list[ScheduledMessage]:
    mix = mix or TrafficMix()
    rng = np.random.default_rng((seed, 0xB0A7))
    out: list[ScheduledMessage] = []
    if horizon == 0 or message_rate == 0.0:
        return out
    hits = rng.random((n_nodes, horizon)) < message_rate
    nodes, slots = np.nonzero(hits)
    order = np.argsort(slots, kind="stable")
    kinds_cdf = np.cumsum([mix.unicast, mix.multicast, mix.broadcast])
    for node, slot in zip(nodes[order], slots[order]):
        neigh = sorted(neighbor_sets[node])
        if not neigh:
            continue
        u = rng.random()
        if u < kinds_cdf[0]:
            kind = MessageKind.UNICAST
            dests = frozenset([neigh[rng.integers(len(neigh))]])
        elif u < kinds_cdf[1]:
            kind = MessageKind.MULTICAST
            size = int(rng.integers(1, len(neigh) + 1))
            dests = frozenset(rng.choice(neigh, size=size, replace=False).tolist())
        else:
            kind = MessageKind.BROADCAST
            dests = frozenset(neigh)
        out.append(ScheduledMessage(int(slot), int(node), kind, dests))
    return out

"""Traffic generation (paper Section 7, Table 2).

Each node generates messages as a per-slot Bernoulli process with rate
``message_rate`` (Table 2: 0.0005 per node per slot).  Each message is a
unicast / multicast / broadcast with probability 0.2 / 0.4 / 0.4:

* unicast   -- a uniformly random neighbor;
* multicast -- a uniformly random non-empty subset of the neighbors
  (size uniform in ``[1, deg]``; the paper does not specify the group
  draw -- DESIGN.md substitution #5);
* broadcast -- all neighbors.

Isolated nodes (no neighbors) generate no traffic.  All arrival times and
destination draws are precomputed from a dedicated seeded NumPy generator,
so a workload is fully reproducible and independent of protocol behaviour
-- every protocol in a comparison faces the *same* request sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mac.base import MessageKind
from repro.sim.network import Network

__all__ = ["TrafficMix", "TrafficGenerator", "ScheduledMessage"]


@dataclass(frozen=True)
class TrafficMix:
    """Message-type proportions (Table 2 defaults)."""

    unicast: float = 0.2
    multicast: float = 0.4
    broadcast: float = 0.4

    def __post_init__(self):
        # Written so that NaN fails both checks.
        total = self.unicast + self.multicast + self.broadcast
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"traffic mix must sum to 1, got {total}")
        if not all(p >= 0 for p in (self.unicast, self.multicast, self.broadcast)):
            raise ValueError("traffic mix proportions must be non-negative")


@dataclass(frozen=True)
class ScheduledMessage:
    """One precomputed arrival."""

    time: int
    src: int
    kind: MessageKind
    dests: frozenset[int]


class TrafficGenerator:
    """Precomputes a message schedule and injects it into a network."""

    def __init__(
        self,
        n_nodes: int,
        neighbor_sets: list[frozenset[int]],
        horizon: int,
        message_rate: float,
        mix: TrafficMix | None = None,
        seed: int = 0,
    ):
        if horizon < 0:
            raise ValueError(f"horizon must be non-negative, got {horizon}")
        if not 0.0 <= message_rate <= 1.0:
            raise ValueError(f"message_rate must be in [0, 1], got {message_rate}")
        self.n_nodes = n_nodes
        self.neighbor_sets = neighbor_sets
        self.horizon = int(horizon)
        self.message_rate = message_rate
        self.mix = mix or TrafficMix()
        self.seed = seed
        self.schedule: list[ScheduledMessage] = self._build_schedule()

    def _build_schedule(self) -> list[ScheduledMessage]:
        rng = np.random.default_rng((self.seed, 0xB0A7))
        out: list[ScheduledMessage] = []
        if self.horizon == 0 or self.message_rate == 0.0:
            return out
        # Bernoulli per (node, slot); arrivals are sparse so draw the whole
        # matrix at once and keep only the hits.
        hits = rng.random((self.n_nodes, self.horizon)) < self.message_rate
        nodes, slots = np.nonzero(hits)
        order = np.argsort(slots, kind="stable")
        kinds_cdf = np.cumsum([self.mix.unicast, self.mix.multicast, self.mix.broadcast])
        for node, slot in zip(nodes[order], slots[order]):
            neigh = sorted(self.neighbor_sets[node])
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

    # -- injection ----------------------------------------------------------------

    def inject(self, network: Network) -> list:
        """Start a process feeding the schedule into *network*'s MACs.

        Returns the (live) list of submitted
        :class:`~repro.mac.base.MacRequest` objects, filled in as the
        simulation runs.
        """
        requests: list = []
        network.env.process(self._injector(network, requests), name="traffic")
        return requests

    def _injector(self, network: Network, requests: list):
        env = network.env
        for msg in self.schedule:
            if msg.time > env.now:
                yield env.timeout(msg.time - env.now)
            # Under mobility the topology may have drifted since the
            # schedule was drawn: clip the destination set to the *current*
            # neighbors (an upper layer would do the same from its routing
            # table) and drop messages whose targets all moved away.
            dests = msg.dests & network.propagation.neighbors[msg.src]
            if not dests:
                continue
            req = network.mac(msg.src).submit(msg.kind, dests)
            requests.append(req)

    # -- summary -------------------------------------------------------------------

    def counts_by_kind(self) -> dict[MessageKind, int]:
        out: dict[MessageKind, int] = {k: 0 for k in MessageKind}
        for m in self.schedule:
            out[m.kind] += 1
        return out

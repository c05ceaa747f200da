"""Runtime fault machinery: Markov chains, crash processes, jittered maps.

One :class:`FaultInjector` is attached per :class:`~repro.sim.network.Network`
when the settings carry a :class:`~repro.faults.plan.FaultPlan` that needs
channel-side machinery (``plan.needs_injector``).  The channel consults it
on its hot paths; churn runs as ordinary kernel processes.

Determinism: every draw comes from dedicated ``{seed}:faults:*`` streams
(one for the burst chains, one per node for churn, one numpy stream for
location jitter), so enabling the machinery never perturbs the channel,
node or traffic streams — the all-zero bit-identity contract depends on
this separation.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.faults.plan import FaultPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.counters import Counters
    from repro.sim.kernel import Environment

__all__ = ["FaultInjector"]

#: Stream tag mixed into the numpy seed for location jitter (distinct from
#: traffic 0xB0A7, mobility 0x30B1 and topology seeds).
_JITTER_TAG = 0xFA17


class FaultInjector:
    """Per-run fault state: who is down, per-receiver channel chains, jittered map.

    Parameters
    ----------
    plan:
        The frozen fault configuration.
    n_nodes:
        Topology size (churn spawns one process per node).
    seed:
        The network seed; fault streams are derived from it by name.
    env, counters:
        Required only when churn is active (crash processes need a clock
        and somewhere to count); chain/jitter queries work without them,
        which keeps the Gilbert-Elliott unit tests kernel-free.
    """

    __slots__ = (
        "plan",
        "n_nodes",
        "seed",
        "env",
        "counters",
        "down",
        "ge",
        "_ge_rng",
        "_ge_pi",
        "_ge_decay",
        "_ge_bad",
        "_ge_time",
    )

    def __init__(
        self,
        plan: FaultPlan,
        n_nodes: int,
        seed: int,
        env: "Environment | None" = None,
        counters: "Counters | None" = None,
    ):
        self.plan = plan
        self.n_nodes = n_nodes
        self.seed = seed
        self.env = env
        self.counters = counters
        #: Nodes whose radio is currently dark (maintained by churn processes).
        self.down: set[int] = set()
        ge = plan.burst
        self.ge = ge if ge is not None and not ge.is_noop else None
        if self.ge is not None:
            self._ge_rng = random.Random(f"{seed}:faults:burst")
            self._ge_pi = self.ge.stationary_bad
            self._ge_decay = self.ge.decay
            #: node -> chain state at its last observation (True = BAD).
            self._ge_bad: dict[int, bool] = {}
            #: node -> slot of that last observation.
            self._ge_time: dict[int, float] = {}

    # -- Gilbert-Elliott -------------------------------------------------------

    def chain_state(self, node: int, now: float) -> bool:
        """Advance *node*'s chain to slot *now* and return it (True = BAD).

        The chain notionally steps once per slot, but idle receivers are
        advanced lazily with the closed-form n-step marginal
        ``P(BAD at t+n | state at t) = pi_B + (x - pi_B) * decay**n``
        (``x`` = 1 if BAD else 0), so cost is one RNG draw per *frame*,
        not per slot.  A chain is first observed in its stationary
        distribution.  Same-slot queries reuse the stored state, so
        frames ending in the same slot at one receiver see one channel
        state — that correlation is the point of the model.
        """
        bad = self._ge_bad.get(node)
        if bad is None:
            bad = self._ge_rng.random() < self._ge_pi
        else:
            n = int(round(now - self._ge_time[node]))
            if n > 0:
                x = 1.0 if bad else 0.0
                p_bad = self._ge_pi + (x - self._ge_pi) * self._ge_decay**n
                bad = self._ge_rng.random() < p_bad
        self._ge_bad[node] = bad
        self._ge_time[node] = now
        return bad

    def frame_lost(self, node: int, now: float) -> bool:
        """Bernoulli loss draw for a frame ending at *node* in slot *now*."""
        ge = self.ge
        if ge is None:
            return False
        if self.chain_state(node, now):
            p = ge.loss_bad
        else:
            p = ge.loss_good
        if p <= 0.0:
            return False
        return p >= 1.0 or self._ge_rng.random() < p

    # -- location error --------------------------------------------------------

    def location_offset(self) -> "np.ndarray | None":
        """Each node's location error, an (n_nodes, 2) N(0, sigma^2) draw.

        Drawn from a dedicated numpy stream: a fixed survey/GPS error per
        node, not per-query noise, so every call returns the same offsets.
        None when ``location_sigma`` is zero.
        """
        sigma = self.plan.location_sigma
        if sigma <= 0.0:
            return None
        rng = np.random.default_rng((abs(self.seed), _JITTER_TAG))
        return rng.normal(0.0, sigma, size=(self.n_nodes, 2))

    # -- churn -----------------------------------------------------------------

    def start_churn(self) -> None:
        """Spawn one crash/recover process per node (no-op without churn)."""
        churn = self.plan.churn
        if churn is None or churn.is_noop:
            return
        if self.env is None or self.counters is None:
            raise RuntimeError("churn requires an Environment and Counters")
        for node in range(self.n_nodes):
            rng = random.Random(f"{self.seed}:faults:churn:{node}")
            self.env.process(self._churn_process(node, rng), name=f"churn:{node}")

    def _churn_process(self, node: int, rng: random.Random) -> Iterator:
        """Alternate exponential uptime / downtime for *node* forever.

        While down the node's radio is dark: the channel suppresses its
        transmissions and drops everything arriving at it.  A frame
        already on the air when the node crashes keeps propagating (the
        energy is out), but the crashed node itself cannot decode frames
        that *end* during its downtime.
        """
        churn = self.plan.churn
        env = self.env
        counters = self.counters
        assert churn is not None and env is not None and counters is not None
        obs = env.obs
        while True:
            yield env.timeout(max(rng.expovariate(churn.crash_rate), 1.0))
            self.down.add(node)
            counters.inc("faults.crashes", node=node)
            if obs.fault_crash:
                obs.emit("fault_crash", node=node)
            yield env.timeout(max(rng.expovariate(1.0 / churn.mean_downtime), 1.0))
            self.down.discard(node)
            counters.inc("faults.recoveries", node=node)
            if obs.fault_recover:
                obs.emit("fault_recover", node=node)

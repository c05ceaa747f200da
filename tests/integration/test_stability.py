"""Long-run stability and fairness of the MAC substrate."""


import numpy as np

from repro.core.bmmm import BmmmMac
from repro.experiments.config import SimulationSettings, protocol_class
from repro.experiments.runner import run_raw
from repro.mac.base import MessageKind, MessageStatus
from repro.sim.network import Network

from tests.conftest import star_positions


class TestLongRunStability:
    def test_saturated_long_run_completes(self):
        """A saturated network (8x Table-2 rate) for a long horizon: no
        crashes, bounded per-radio state, every old request terminal."""
        settings = SimulationSettings(n_nodes=60, horizon=8000, message_rate=0.004)
        mac_cls, kwargs = protocol_class("BMMM")
        raw = run_raw(mac_cls, settings, seed=0, mac_kwargs=kwargs)
        assert len(raw.requests) > 1000
        terminal = (MessageStatus.COMPLETED, MessageStatus.TIMED_OUT, MessageStatus.ABANDONED)
        old = [r for r in raw.requests if r.arrival < 8000 - 400]
        assert all(r.status in terminal for r in old)

    def test_radio_state_bounded_after_long_run(self):
        net = Network(star_positions(5), 0.2, BmmmMac, seed=0)
        for i in range(6):
            for _ in range(10):
                net.mac(i).submit(MessageKind.BROADCAST, timeout=50_000)
        net.run(until=20_000)
        # The channel's air list is the only per-frame state that outlives
        # a frame; unpruned it would hold every frame of the run.
        assert sum(net.channel.stats.frames_sent.values()) > 500
        assert 0 < len(net.channel.air) < 50


class TestFairness:
    def test_symmetric_contenders_share_medium(self):
        """Two stations with identical offered load complete similar
        message counts (no systematic first-mover advantage from the
        event ordering)."""
        counts = {0: 0, 1: 0}
        for seed in range(6):
            net = Network(star_positions(1, radius=0.05), 0.2, BmmmMac, seed=seed)
            # star_positions(1) gives 2 nodes: centre + one receiver.
            for _ in range(30):
                net.mac(0).submit(MessageKind.MULTICAST, frozenset({1}), timeout=30_000)
                net.mac(1).submit(MessageKind.MULTICAST, frozenset({0}), timeout=30_000)
            net.run(until=3_000)  # not enough time for all 60: they compete
            for nid in (0, 1):
                counts[nid] += sum(
                    1
                    for r in net.mac(nid).completed
                    if r.status is MessageStatus.COMPLETED
                )
        total = counts[0] + counts[1]
        assert total > 20
        share = counts[0] / total
        assert 0.35 < share < 0.65, f"unfair medium split: {counts}"

    def test_backoff_distribution_covers_window(self):
        """Access instants after DIFS spread across the contention window
        rather than clustering (sanity of the RNG plumbing)."""
        from repro.mac.contention import Contender, ContentionParams
        from repro.mac.nav import Nav
        from repro.phy.propagation import UnitDiskPropagation
        from repro.sim.channel import Channel
        from repro.sim.kernel import Environment
        import random

        grants = []
        for seed in range(60):
            env = Environment()
            ch = Channel(env, UnitDiskPropagation(np.array([[0.5, 0.5]]), 0.2))
            c = Contender(
                env, ch.attach(0), Nav(env), random.Random(seed),
                ContentionParams(cw_min=16, cw_max=16),
            )

            def proc(c=c):
                yield from c.contention_phase()
                grants.append(env.now)

            env.process(proc())
            env.run(until=100)
        spread = max(grants) - min(grants)
        assert spread >= 10, f"backoffs clustered: {sorted(set(grants))}"
        assert len(set(grants)) >= 8

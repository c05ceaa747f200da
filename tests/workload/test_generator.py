"""Tests for the traffic generator."""

import numpy as np
import pytest

from repro.mac.base import MessageKind
from repro.phy.propagation import neighbor_sets
from repro.protocols.plain import PlainMulticastMac
from repro.sim.network import Network
from repro.workload.generator import TrafficGenerator, TrafficMix
from repro.workload.topology import uniform_square


def make_gen(n=50, horizon=5000, rate=0.002, seed=0, mix=None):
    pos = uniform_square(n, seed=seed)
    ns = neighbor_sets(pos, 0.2)
    return TrafficGenerator(n, ns, horizon, rate, mix=mix, seed=seed), pos


class TestTrafficMix:
    def test_default_is_table2(self):
        m = TrafficMix()
        assert (m.unicast, m.multicast, m.broadcast) == (0.2, 0.4, 0.4)

    def test_must_sum_to_one(self):
        with pytest.raises(ValueError):
            TrafficMix(unicast=0.5, multicast=0.5, broadcast=0.5)

    def test_no_negative(self):
        with pytest.raises(ValueError):
            TrafficMix(unicast=-0.2, multicast=0.6, broadcast=0.6)

    @pytest.mark.parametrize(
        "mix",
        [
            dict(unicast=float("nan"), multicast=0.5, broadcast=0.5),
            dict(unicast=0.5, multicast=float("nan"), broadcast=0.5),
            dict(unicast=float("inf"), multicast=float("-inf"), broadcast=1.0),
        ],
    )
    def test_nan_rejected(self, mix):
        """NaN compares false both ways: it must fail the checks, not slip
        past them (a NaN unicast share made every request a broadcast)."""
        with pytest.raises(ValueError):
            TrafficMix(**mix)


class TestSchedule:
    def test_arrival_rate_statistics(self):
        gen, _ = make_gen(n=100, horizon=10_000, rate=0.0005)
        expected = 100 * 10_000 * 0.0005
        assert len(gen.schedule) == pytest.approx(expected, rel=0.2)

    def test_schedule_sorted_by_time(self):
        gen, _ = make_gen()
        times = [m.time for m in gen.schedule]
        assert times == sorted(times)

    def test_deterministic(self):
        a, _ = make_gen(seed=4)
        b, _ = make_gen(seed=4)
        assert a.schedule == b.schedule

    def test_mix_statistics(self):
        gen, _ = make_gen(n=100, horizon=20_000, rate=0.002)
        counts = gen.counts_by_kind()
        total = sum(counts.values())
        assert counts[MessageKind.UNICAST] / total == pytest.approx(0.2, abs=0.05)
        assert counts[MessageKind.MULTICAST] / total == pytest.approx(0.4, abs=0.05)
        assert counts[MessageKind.BROADCAST] / total == pytest.approx(0.4, abs=0.05)

    def test_dests_are_neighbors(self):
        gen, pos = make_gen()
        ns = neighbor_sets(pos, 0.2)
        for m in gen.schedule[:200]:
            assert m.dests <= ns[m.src]
            assert m.dests

    def test_broadcast_targets_all_neighbors(self):
        gen, pos = make_gen()
        ns = neighbor_sets(pos, 0.2)
        bcasts = [m for m in gen.schedule if m.kind is MessageKind.BROADCAST]
        assert bcasts
        for m in bcasts[:100]:
            assert m.dests == ns[m.src]

    def test_unicast_single_dest(self):
        gen, _ = make_gen()
        for m in gen.schedule:
            if m.kind is MessageKind.UNICAST:
                assert len(m.dests) == 1

    def test_isolated_nodes_generate_nothing(self):
        pos = np.array([[0.0, 0.0], [0.9, 0.9]])  # not in range of each other
        ns = neighbor_sets(pos, 0.2)
        gen = TrafficGenerator(2, ns, 10_000, 0.01, seed=1)
        assert gen.schedule == []

    def test_zero_rate_empty(self):
        gen, _ = make_gen(rate=0.0)
        assert gen.schedule == []

    def test_validation(self):
        with pytest.raises(ValueError):
            TrafficGenerator(1, [frozenset()], -5, 0.1)
        with pytest.raises(ValueError):
            TrafficGenerator(1, [frozenset()], 10, 2.0)


class TestInjection:
    def test_inject_submits_all_messages(self):
        pos = uniform_square(30, seed=2)
        net = Network(pos, 0.2, PlainMulticastMac, seed=2)
        gen = TrafficGenerator(30, net.propagation.neighbors, 2000, 0.002, seed=2)
        reqs = gen.inject(net)
        net.run(until=2000)
        assert len(reqs) == len(gen.schedule)

    def test_arrival_times_match_schedule(self):
        pos = uniform_square(30, seed=3)
        net = Network(pos, 0.2, PlainMulticastMac, seed=3)
        gen = TrafficGenerator(30, net.propagation.neighbors, 2000, 0.001, seed=3)
        reqs = gen.inject(net)
        net.run(until=2000)
        for sched, req in zip(gen.schedule, reqs):
            assert req.arrival == sched.time
            assert req.src == sched.src
            assert req.dests == sched.dests

"""LAMM edge cases: degenerate geometries, cover-set corner cases."""

import numpy as np

from repro.core.lamm import LammMac, LammPolicy
from repro.mac.base import MessageKind, MessageStatus
from repro.sim.frames import FrameType
from repro.sim.network import Network

from tests.conftest import air_log, make_star


class TestDegenerateGeometries:
    def test_single_receiver(self):
        net = make_star(LammMac, 1)
        req = net.mac(0).submit(MessageKind.BROADCAST)
        net.run(until=200)
        assert req.status is MessageStatus.COMPLETED
        assert net.channel.counters.get(FrameType.RTS.sent_key) == 1

    def test_colocated_receivers_single_poll(self):
        """Receivers stacked on one point: the cover set is a single node;
        the rest are inferred."""
        pos = np.array([[0.5, 0.5]] + [[0.55, 0.5]] * 4)
        net = Network(pos, 0.2, LammMac, seed=2)
        req = net.mac(0).submit(MessageKind.BROADCAST, timeout=500)
        net.run(until=600)
        assert req.status is MessageStatus.COMPLETED
        assert net.channel.counters.get(FrameType.RTS.sent_key) == 1
        assert len(req.inferred) == 3
        # Ground truth backs the inference.
        got = net.channel.stats.clean_data_receipts[req.msg_id]
        assert req.inferred <= got

    def test_collinear_receivers(self):
        """A straight line of receivers (degenerate arcs) still works."""
        pos = np.array([[0.5, 0.5]] + [[0.5 + 0.03 * i, 0.5] for i in range(1, 6)])
        net = Network(pos, 0.2, LammMac, seed=3)
        req = net.mac(0).submit(MessageKind.BROADCAST, timeout=800)
        net.run(until=900)
        assert req.status is MessageStatus.COMPLETED
        assert req.dests <= net.channel.stats.data_receipts[req.msg_id]

    def test_receivers_mutually_out_of_range(self):
        """Members > R apart cannot cover each other: LAMM must poll all
        of them (cover angles are empty across the set)."""
        pos = np.array([[0.5, 0.5], [0.5, 0.68], [0.5, 0.32], [0.68, 0.5]])
        net = Network(pos, 0.2, LammMac, seed=4)
        air = air_log(net.env)
        req = net.mac(0).submit(MessageKind.BROADCAST, timeout=500)
        net.run(until=600)
        assert req.status is MessageStatus.COMPLETED
        polled = {t.frame.ra for t in air() if t.frame.ftype is FrameType.RTS}
        assert polled == {1, 2, 3}
        assert req.inferred == set()


class TestPolicyEdges:
    def test_exact_policy_with_max_exact_zero_falls_back(self):
        policy = LammPolicy(mcs="exact", max_exact=0)
        pos = np.array([[0.5, 0.5], [0.52, 0.5], [0.5, 0.52]])
        out = policy.cover_set([0, 1, 2], pos, 0.2)
        from repro.geometry.cover import is_cover_set

        assert is_cover_set(out, [0, 1, 2], pos, 0.2)

    def test_empty_ids(self):
        assert LammPolicy().cover_set([], np.zeros((0, 2)), 0.2) == set()

    def test_lamm_multicast_subset(self):
        """LAMM on a strict subset of neighbors: only members count for
        cover/UPDATE, even when non-member neighbors are nearby."""
        net = make_star(LammMac, 5)
        req = net.mac(0).submit(MessageKind.MULTICAST, frozenset({1, 3}), timeout=400)
        net.run(until=500)
        assert req.status is MessageStatus.COMPLETED
        assert req.acked == {1, 3}

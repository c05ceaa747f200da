"""Protocol interaction scenarios: concurrent exchanges, role mixing,
queue pressure."""

import numpy as np

from repro.core.bmmm import BmmmMac
from repro.core.lamm import LammMac
from repro.mac.base import MessageKind, MessageStatus
from repro.protocols.bmw import BmwMac
from repro.sim.frames import FrameType
from repro.sim.network import Network

from tests.conftest import air_log, make_star, star_positions


class TestConcurrentBatches:
    def test_two_bmmm_senders_in_range_serialize(self):
        """Two stations with simultaneous batch requests in one collision
        domain: carrier sense + NAV serialize them and both complete."""
        net = make_star(BmmmMac, 4)
        air = air_log(net.env)
        a = net.mac(0).submit(MessageKind.MULTICAST, frozenset({2, 3}), timeout=800)
        b = net.mac(1).submit(MessageKind.MULTICAST, frozenset({2, 4}), timeout=800)
        net.run(until=1000)
        assert a.status is MessageStatus.COMPLETED
        assert b.status is MessageStatus.COMPLETED
        # Their DATA frames must not have overlapped.
        datas = [t for t in air() if t.frame.ftype is FrameType.DATA]
        assert len(datas) >= 2
        for i, x in enumerate(datas):
            for y in datas[i + 1 :]:
                assert not x.overlaps(y), "batches overlapped on the medium"

    def test_many_senders_all_complete(self):
        """Every station of a clique multicasts at once; with generous
        deadlines all requests drain."""
        net = make_star(BmmmMac, 5)
        reqs = [
            net.mac(i).submit(MessageKind.BROADCAST, timeout=4000)
            for i in range(6)
        ]
        net.run(until=5000)
        assert all(r.status is MessageStatus.COMPLETED for r in reqs)

    def test_hidden_batches_eventually_recover(self):
        """Two senders hidden from each other share a middle receiver:
        their batches can collide at it, but retries get both through."""
        pos = np.array([[0.2, 0.5], [0.36, 0.5], [0.52, 0.5]])
        net = Network(pos, 0.2, BmmmMac, seed=7)
        a = net.mac(0).submit(MessageKind.MULTICAST, frozenset({1}), timeout=3000)
        b = net.mac(2).submit(MessageKind.MULTICAST, frozenset({1}), timeout=3000)
        net.run(until=3500)
        assert a.status is MessageStatus.COMPLETED
        assert b.status is MessageStatus.COMPLETED
        got = net.channel.stats.data_receipts
        assert 1 in got[a.msg_id] and 1 in got[b.msg_id]


class TestRoleMixing:
    def test_receiver_with_queued_message_still_answers_polls(self):
        """A station waiting in contention for its own multicast must
        still CTS/ACK another sender's batch."""
        net = make_star(BmmmMac, 3)
        # Node 1 gets a queued request a moment before node 0's batch.
        b = net.mac(1).submit(MessageKind.MULTICAST, frozenset({2}), timeout=800)
        a = net.mac(0).submit(MessageKind.BROADCAST, timeout=800)
        net.run(until=1000)
        assert a.status is MessageStatus.COMPLETED
        assert 1 in a.acked, "node 1 must have answered node 0's polls"
        assert b.status is MessageStatus.COMPLETED

    def test_sender_mid_batch_ignores_foreign_polls(self):
        """A station running its own batch does not answer a hidden
        station's RTS mid-procedure (its radio is committed), and the
        foreign sender retries instead of deadlocking."""
        # 0 and 2 hidden; 1 in the middle is 0's batch receiver AND 2's
        # unicast target.
        pos = np.array([[0.2, 0.5], [0.36, 0.5], [0.52, 0.5]])
        net = Network(pos, 0.2, BmwMac, seed=9)
        a = net.mac(0).submit(MessageKind.MULTICAST, frozenset({1}), timeout=2000)
        c = net.mac(2).submit(MessageKind.UNICAST, frozenset({1}), timeout=2000)
        net.run(until=2500)
        assert a.status is MessageStatus.COMPLETED
        assert c.status in (MessageStatus.COMPLETED, MessageStatus.ABANDONED,
                            MessageStatus.TIMED_OUT)

    def test_lamm_and_bmmm_coexist_in_one_network(self):
        pos = star_positions(4)
        classes = [LammMac, BmmmMac, LammMac, BmmmMac, LammMac]
        net = Network(pos, 0.2, classes, seed=5)
        reqs = [net.mac(i).submit(MessageKind.BROADCAST, timeout=3000) for i in range(3)]
        net.run(until=4000)
        for r in reqs:
            assert r.status is MessageStatus.COMPLETED
            assert r.dests <= net.channel.stats.data_receipts[r.msg_id]


class TestQueuePressure:
    def test_deep_queue_drains_fifo(self):
        net = make_star(BmmmMac, 3)
        reqs = [
            net.mac(0).submit(MessageKind.BROADCAST, timeout=10_000)
            for _ in range(10)
        ]
        net.run(until=10_000)
        finishes = [r.finish_time for r in reqs]
        assert all(r.status is MessageStatus.COMPLETED for r in reqs)
        assert finishes == sorted(finishes)

    def test_queue_with_tight_deadlines_sheds_load(self):
        """Later messages die in the queue while the head is served; the
        MAC never wedges."""
        net = make_star(BmwMac, 5)
        reqs = [
            net.mac(0).submit(MessageKind.BROADCAST, timeout=60)
            for _ in range(8)
        ]
        net.run(until=2000)
        statuses = {r.status for r in reqs}
        assert MessageStatus.TIMED_OUT in statuses
        assert all(
            r.status in (MessageStatus.COMPLETED, MessageStatus.TIMED_OUT)
            for r in reqs
        )

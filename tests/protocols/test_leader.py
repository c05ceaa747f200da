"""Tests for the leader-based multicast baseline (Kuri & Kasera [13])."""

import numpy as np

from repro.mac.base import MacConfig, MessageKind, MessageStatus
from repro.phy.capture import ZorziRaoCapture
from repro.protocols.leader import LeaderBasedMac
from repro.sim.frames import FrameType
from repro.sim.network import Network

from tests.conftest import air_log, make_star, run_one_broadcast


class TestLeaderElection:
    def test_nearest_member_is_leader(self):
        net = make_star(LeaderBasedMac, 4)
        air = air_log(net.env)
        req = net.mac(0).submit(MessageKind.BROADCAST)
        net.run(until=300)
        rts = [tx.frame for tx in air() if tx.frame.ftype is FrameType.RTS]
        assert rts
        prop = net.propagation
        nearest = min(req.dests, key=lambda d: (prop.distances[0, d], d))
        assert rts[0].ra == nearest


class TestCleanChannel:
    def test_completes_with_leader_ack(self):
        net, req = run_one_broadcast(LeaderBasedMac, n_receivers=4)
        assert req.status is MessageStatus.COMPLETED
        assert len(req.acked) == 1  # only the leader is ever confirmed
        sent = net.channel.counters
        assert sent.get(FrameType.RTS.sent_key) == 1
        assert sent.get(FrameType.CTS.sent_key) == 1
        assert sent.get(FrameType.DATA.sent_key) == 1
        assert sent.get(FrameType.ACK.sent_key) == 1
        assert sent.get(FrameType.NAK.sent_key) == 0  # everyone got the data

    def test_single_contention_phase_on_clean_channel(self):
        net, req = run_one_broadcast(LeaderBasedMac, n_receivers=5)
        assert req.contention_phases == 1

    def test_everyone_receives_on_clean_star(self):
        net, req = run_one_broadcast(LeaderBasedMac, n_receivers=4)
        assert net.channel.stats.data_receipts[req.msg_id] >= req.dests


class TestNakRecovery:
    def test_member_nak_collides_with_leader_ack_and_forces_retry(self):
        """Chain A(0)-L(1)-M(2)-J(3): leader L is adjacent to the sender,
        member M is further along, jammer J is hidden from A.  When J's
        traffic destroys the DATA at M, M's NAK hits A in the leader's ACK
        slot -- either colliding with the ACK or arriving alone -- and A
        retries."""
        # A at 0.30; leader L at 0.35 and member M at 0.48 (both A's
        # neighbors); jammer J at 0.64 hears M but not A or L.
        pos = np.array([[0.30, 0.5], [0.35, 0.5], [0.48, 0.5], [0.64, 0.5]])
        net = Network(pos, 0.2, LeaderBasedMac, seed=3)
        for _ in range(8):
            net.mac(3).submit(MessageKind.UNICAST, frozenset({2}), timeout=3000)
        req = net.mac(0).submit(MessageKind.MULTICAST, frozenset({1, 2}), timeout=3000)
        net.run(until=3000)
        if req.status is MessageStatus.COMPLETED:
            # If LBP claims completion, the *leader* certainly has it.
            assert 1 in net.channel.stats.data_receipts[req.msg_id]

    def test_not_logically_reliable(self):
        """A member that never heard the RTS cannot NAK: under load, LBP
        completes some multicasts that missed members (like BSMA, unlike
        BMMM)."""
        from repro.workload.generator import TrafficGenerator

        bad = 0
        completed = 0
        for seed in range(4):
            rng = np.random.default_rng(seed)
            pos = rng.random((40, 2))
            net = Network(pos, 0.2, LeaderBasedMac, seed=seed, capture=ZorziRaoCapture())
            gen = TrafficGenerator(
                40, net.propagation.neighbors, horizon=3000, message_rate=0.002, seed=seed
            )
            reqs = gen.inject(net)
            net.run(until=3000)
            for req in reqs:
                if req.status is MessageStatus.COMPLETED and req.kind is not MessageKind.UNICAST:
                    completed += 1
                    got = net.channel.stats.data_receipts.get(req.msg_id, set())
                    if not req.dests <= got:
                        bad += 1
        assert completed > 0
        assert bad > 0, "expected some silent LBP delivery failures under load"

    def test_timeout_respected(self):
        net, req = run_one_broadcast(
            LeaderBasedMac, n_receivers=3, mac_config=MacConfig(timeout_slots=5)
        )
        assert req.status is MessageStatus.TIMED_OUT


class TestAgainstOtherBaselines:
    def test_more_reliable_than_plain_under_load(self):
        """The leader ACK catches at least leader-side losses: LBP's
        delivered fraction should not be materially worse than plain
        802.11's, and its completions carry more meaning."""
        from repro.metrics.aggregate import summarize_run
        from repro.protocols.plain import PlainMulticastMac
        from repro.workload.generator import TrafficGenerator

        fractions = {}
        for mac_cls in (PlainMulticastMac, LeaderBasedMac):
            rng = np.random.default_rng(11)
            pos = rng.random((40, 2))
            net = Network(pos, 0.2, mac_cls, seed=11, capture=ZorziRaoCapture())
            gen = TrafficGenerator(
                40, net.propagation.neighbors, horizon=4000, message_rate=0.002, seed=11
            )
            reqs = gen.inject(net)
            net.run(until=4000)
            m = summarize_run(reqs, net.channel.stats, threshold=0.9)
            fractions[mac_cls.name] = m.avg_delivered_fraction
        assert fractions["LBP"] >= fractions["802.11"] - 0.05

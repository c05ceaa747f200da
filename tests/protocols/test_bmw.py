"""Tests for BMW [21]: per-neighbor unicast rounds, suppression, cost."""


from repro.mac.base import MacConfig, MessageKind, MessageStatus
from repro.protocols.bmw import BmwMac
from repro.sim.frames import FrameType

from tests.conftest import air_log, make_star, run_one_broadcast


class TestBmw:
    def test_clean_broadcast_completes_and_acks_everyone(self):
        net, req = run_one_broadcast(BmwMac, n_receivers=4)
        assert req.status is MessageStatus.COMPLETED
        assert req.acked == req.dests

    def test_one_contention_phase_per_receiver(self):
        """The paper's complaint: 'at least n contention phases'."""
        for n in (2, 3, 5):
            net, req = run_one_broadcast(BmwMac, n_receivers=n, until=2000)
            assert req.contention_phases >= n

    def test_one_rts_per_receiver(self):
        net, req = run_one_broadcast(BmwMac, n_receivers=4)
        assert net.channel.counters.get(FrameType.RTS.sent_key) == 4
        assert net.channel.counters.get(FrameType.CTS.sent_key) == 4

    def test_overhearing_suppresses_data(self):
        """After the first DATA, every other receiver overheard it and its
        CTS suppresses retransmission: exactly one DATA and one ACK."""
        net, req = run_one_broadcast(BmwMac, n_receivers=4)
        assert net.channel.counters.get(FrameType.DATA.sent_key) == 1
        assert net.channel.counters.get(FrameType.ACK.sent_key) == 1

    def test_without_overhearing_every_receiver_needs_data(self):
        """Figure 2's worst-case timeline: n DATA + n ACK."""
        net, req = run_one_broadcast(
            BmwMac, n_receivers=4, until=2000, mac_kwargs={"overhearing": False}
        )
        assert req.status is MessageStatus.COMPLETED
        assert net.channel.counters.get(FrameType.DATA.sent_key) == 4
        assert net.channel.counters.get(FrameType.ACK.sent_key) == 4

    def test_delivery_ground_truth(self):
        net, req = run_one_broadcast(BmwMac, n_receivers=3)
        assert net.channel.stats.data_receipts[req.msg_id] >= req.dests

    def test_serves_receivers_in_address_order(self):
        net = make_star(BmwMac, 3)
        air = air_log(net.env)
        net.mac(0).submit(MessageKind.BROADCAST)
        net.run(until=500)
        rts_ras = [
            tx.frame.ra for tx in air() if tx.frame.ftype is FrameType.RTS
        ]
        assert rts_ras == sorted(rts_ras)

    def test_timeout_mid_list(self):
        """With a tight deadline BMW cannot finish all receivers."""
        net, req = run_one_broadcast(
            BmwMac, n_receivers=6, mac_config=MacConfig(timeout_slots=25)
        )
        assert req.status is MessageStatus.TIMED_OUT
        assert len(req.acked) < 6

    def test_multicast_subset_only(self):
        net = make_star(BmwMac, 4)
        req = net.mac(0).submit(MessageKind.MULTICAST, frozenset({1, 3}))
        net.run(until=500)
        assert req.status is MessageStatus.COMPLETED
        assert req.acked == {1, 3}
        assert net.channel.counters.get(FrameType.RTS.sent_key) == 2

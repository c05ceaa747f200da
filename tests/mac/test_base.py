"""Tests for MacBase: request validation, queueing, the DCF unicast engine,
and the shared receiver rules."""

import pytest

from repro.core.bmmm import BmmmMac
from repro.mac.base import MacConfig, MessageKind, MessageStatus
from repro.protocols.plain import PlainMulticastMac
from repro.sim.frames import FrameType
from repro.sim.network import Network

from tests.conftest import chain_positions, star_positions


def star_net(mac_cls=PlainMulticastMac, n=3, seed=1, **kw):
    return Network(star_positions(n), 0.2, mac_cls, seed=seed, **kw)


class TestSubmitValidation:
    def test_unicast_requires_single_dest(self):
        net = star_net()
        with pytest.raises(ValueError):
            net.mac(0).submit(MessageKind.UNICAST, frozenset({1, 2}))

    def test_empty_dests_rejected(self):
        net = star_net()
        with pytest.raises(ValueError):
            net.mac(0).submit(MessageKind.MULTICAST, frozenset())

    def test_non_neighbor_dest_rejected(self):
        net = Network(chain_positions(3, 0.15), 0.2, PlainMulticastMac, seed=1)
        with pytest.raises(ValueError):
            net.mac(0).submit(MessageKind.UNICAST, frozenset({2}))

    def test_broadcast_defaults_to_neighbors(self):
        net = star_net(n=4)
        req = net.mac(0).submit(MessageKind.BROADCAST)
        assert req.dests == frozenset({1, 2, 3, 4})

    def test_unicast_without_dests_rejected(self):
        net = star_net()
        with pytest.raises(ValueError):
            net.mac(0).submit(MessageKind.UNICAST)

    def test_deadline_from_config(self):
        net = star_net(mac_config=MacConfig(timeout_slots=42))
        req = net.mac(0).submit(MessageKind.BROADCAST)
        assert req.deadline == req.arrival + 42

    def test_explicit_timeout_overrides(self):
        net = star_net()
        req = net.mac(0).submit(MessageKind.BROADCAST, timeout=7)
        assert req.deadline == req.arrival + 7

    @pytest.mark.parametrize("timeout", [-5.0, float("nan")])
    def test_config_rejects_negative_or_nan_timeout(self, timeout):
        with pytest.raises(ValueError, match="timeout"):
            MacConfig(timeout_slots=timeout)

    @pytest.mark.parametrize("timeout", [-5.0, float("nan")])
    def test_submit_rejects_negative_or_nan_timeout(self, timeout):
        net = star_net()
        with pytest.raises(ValueError, match="timeout"):
            net.mac(0).submit(MessageKind.BROADCAST, timeout=timeout)
        assert not net.mac(0).queue

    def test_infinite_timeout_never_expires(self):
        net = star_net(mac_config=MacConfig(timeout_slots=float("inf")))
        req = net.mac(0).submit(MessageKind.BROADCAST)
        assert req.deadline == float("inf") and not req.expired(1e12)

    def test_submit_accepts_an_infinite_timeout(self):
        assert MacConfig.check_timeout(float("inf")) == float("inf")
        req = star_net().mac(0).submit(MessageKind.BROADCAST, timeout=float("inf"))
        assert req.deadline == float("inf") and not req.expired(1e12)


class TestDcfUnicast:
    def test_clean_unicast_completes_with_full_handshake(self):
        net = star_net()
        req = net.mac(0).submit(MessageKind.UNICAST, frozenset({1}))
        net.run(until=100)
        assert req.status is MessageStatus.COMPLETED
        assert req.acked == {1}
        sent = net.channel.counters
        assert sent.get(FrameType.RTS.sent_key) == 1
        assert sent.get(FrameType.CTS.sent_key) == 1
        assert sent.get(FrameType.DATA.sent_key) == 1
        assert sent.get(FrameType.ACK.sent_key) == 1

    def test_unicast_delivery_ground_truth(self):
        net = star_net()
        req = net.mac(0).submit(MessageKind.UNICAST, frozenset({2}))
        net.run(until=100)
        # data_receipts records *every* station that decoded the frame
        # (bystanders overhear a clean unicast); scoring intersects with
        # the intended set.
        receipts = net.channel.stats.data_receipts[req.msg_id]
        assert 2 in receipts
        assert receipts & req.dests == {2}

    def test_unicast_timing(self):
        """Contention + RTS(1) + CTS(1) + DATA(5) + ACK(1) = 8 slots of
        exchange after channel access."""
        net = star_net()
        req = net.mac(0).submit(MessageKind.UNICAST, frozenset({1}))
        net.run(until=100)
        exchange = req.finish_time - req.service_start
        assert exchange >= 8
        assert req.contention_phases == 1

    def test_two_unicasts_one_node_fifo(self):
        net = star_net()
        r1 = net.mac(0).submit(MessageKind.UNICAST, frozenset({1}))
        r2 = net.mac(0).submit(MessageKind.UNICAST, frozenset({2}))
        net.run(until=200)
        assert r1.status is MessageStatus.COMPLETED
        assert r2.status is MessageStatus.COMPLETED
        assert r1.finish_time < r2.finish_time

    def test_third_parties_yield_during_exchange(self):
        """A neighbor overhearing the RTS must set its NAV for the
        Duration."""
        net = star_net(n=3)
        net.mac(0).submit(MessageKind.UNICAST, frozenset({1}))
        net.run(until=100)
        # Node 2 overheard RTS(0->1): its NAV was set at some point.
        # After the run the NAV has expired, but the exchange completed
        # without node 2 interfering (no collisions on a clean channel).
        assert net.channel.counters.get("collisions") == 0

    def test_queued_message_expires_before_service(self):
        """A message whose deadline passes while queued is TIMED_OUT."""
        net = star_net(mac_config=MacConfig(timeout_slots=5))
        # First message occupies the MAC long enough for the second to die
        # in the queue (unicast exchange takes >= 8 slots + contention).
        r1 = net.mac(0).submit(MessageKind.UNICAST, frozenset({1}))
        r2 = net.mac(0).submit(MessageKind.UNICAST, frozenset({2}))
        net.run(until=300)
        assert r2.status is MessageStatus.TIMED_OUT
        assert r2.completion_time is None


class TestReceiverRules:
    def test_receiver_records_data(self):
        net = star_net(mac_cls=BmmmMac, n=2)
        req = net.mac(0).submit(MessageKind.BROADCAST)
        net.run(until=100)
        assert (0, req.seq) in net.mac(1).received_data
        assert net.mac(1).data_from[0] == req.seq

    def test_rak_without_data_gets_no_ack(self):
        """A receiver that missed the DATA frame must not ACK a RAK
        (Figure 3: 'p has received the data frame')."""
        from repro.sim.frames import Frame

        net = star_net(mac_cls=BmmmMac, n=2)
        mac1 = net.mac(1)
        # Inject a RAK for a data frame node 1 never received.
        rak = Frame(FrameType.RAK, src=0, ra=1, duration=1, seq=999)
        acks = []
        net.mac(0).radio.add_listener(
            lambda f, c: acks.append(f) if f.ftype is FrameType.ACK else None
        )
        net.channel.transmit(net.mac(0).radio, rak)
        net.run(until=20)
        assert acks == []

    def test_completed_requests_recorded(self):
        net = star_net()
        net.mac(0).submit(MessageKind.UNICAST, frozenset({1}))
        net.run(until=100)
        assert len(net.mac(0).completed) == 1

    def test_request_bookkeeping_fields(self):
        net = star_net()
        req = net.mac(0).submit(MessageKind.UNICAST, frozenset({1}))
        assert req.status is MessageStatus.QUEUED
        net.run(until=100)
        assert req.service_start is not None
        assert req.finish_time is not None
        assert req.completion_time == req.finish_time - req.arrival

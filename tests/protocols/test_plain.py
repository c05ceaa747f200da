"""Tests for the stock 802.11 multicast baseline."""

from repro.mac.base import MessageKind, MessageStatus
from repro.protocols.plain import PlainMulticastMac
from repro.sim.frames import FrameType

from tests.conftest import chain_positions, make_star, run_one_broadcast
from repro.sim.network import Network


class TestPlainMulticast:
    def test_no_handshake_no_ack(self):
        net, req = run_one_broadcast(PlainMulticastMac)
        sent = net.channel.counters
        assert sent.get(FrameType.RTS.sent_key) == 0
        assert sent.get(FrameType.CTS.sent_key) == 0
        assert sent.get(FrameType.ACK.sent_key) == 0
        assert sent.get(FrameType.DATA.sent_key) == 1

    def test_single_contention_phase(self):
        net, req = run_one_broadcast(PlainMulticastMac)
        assert req.contention_phases == 1

    def test_all_neighbors_receive_on_clean_channel(self):
        net, req = run_one_broadcast(PlainMulticastMac, n_receivers=5)
        assert net.channel.stats.data_receipts[req.msg_id] >= req.dests

    def test_completes_even_if_nobody_receives(self):
        """Fire-and-forget: the sender cannot observe a hidden-terminal
        loss.  Chain 0-1-2: 0 broadcasts to 1 while 2 jams 1."""
        net = Network(chain_positions(3, 0.15), 0.2, PlainMulticastMac, seed=4)
        # Node 2 transmits constantly (to node 1) -- many collisions at 1.
        for _ in range(6):
            net.mac(2).submit(MessageKind.UNICAST, frozenset({1}))
        req = net.mac(0).submit(MessageKind.MULTICAST, frozenset({1}))
        net.run(until=400)
        assert req.status in (MessageStatus.COMPLETED, MessageStatus.TIMED_OUT)
        if req.status is MessageStatus.COMPLETED:
            # Completion says nothing about delivery (the paper's point).
            delivered = net.channel.stats.data_receipts.get(req.msg_id, set())
            assert delivered <= {1}

    def test_sender_believes_nothing(self):
        net, req = run_one_broadcast(PlainMulticastMac)
        assert req.acked == set()

    def test_times_out_when_medium_never_free(self):
        from repro.mac.base import MacConfig

        net = make_star(PlainMulticastMac, 2, mac_config=MacConfig(timeout_slots=3))
        # Saturate the medium from node 2 before node 0's arrival.
        net.mac(2).submit(MessageKind.UNICAST, frozenset({0}), timeout=1000)
        req = net.mac(0).submit(MessageKind.BROADCAST, timeout=3)
        net.run(until=200)
        assert req.status is MessageStatus.TIMED_OUT

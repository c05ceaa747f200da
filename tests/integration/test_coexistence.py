"""Coexistence tests (paper Section 4): per-request reliability selection
and mixed-protocol networks.

"Using the same control and data frame formats in IEEE 802.11
specification, our protocols are able to co-exist with the current
unreliable IEEE 802.11 multicast MAC protocol to provide reliable
multicast MAC services when needed."
"""

import pytest

from repro.core.bmmm import BmmmMac
from repro.core.lamm import LammMac
from repro.mac.base import MessageKind, MessageStatus
from repro.protocols.plain import PlainMulticastMac
from repro.sim.frames import FrameType
from repro.sim.network import Network

from tests.conftest import air_log, make_star, star_positions


class TestPerRequestReliability:
    def test_unreliable_request_skips_handshake(self):
        """reliable=False on a BMMM node: plain 802.11 service, no
        RTS/RAK/ACK frames."""
        net = make_star(BmmmMac, 3)
        req = net.mac(0).submit(MessageKind.BROADCAST, reliable=False)
        net.run(until=200)
        assert req.status is MessageStatus.COMPLETED
        sent = net.channel.counters
        assert sent.get(FrameType.RTS.sent_key) == 0
        assert sent.get(FrameType.RAK.sent_key) == 0
        assert req.acked == set()
        assert req.contention_phases == 1

    def test_reliable_default_unchanged(self):
        net = make_star(BmmmMac, 3)
        req = net.mac(0).submit(MessageKind.BROADCAST)
        net.run(until=300)
        assert req.status is MessageStatus.COMPLETED
        assert req.acked == req.dests

    def test_mixed_requests_on_one_node(self):
        """A node can interleave reliable and unreliable multicasts."""
        net = make_star(LammMac, 4)
        air = air_log(net.env)
        fast = net.mac(0).submit(MessageKind.BROADCAST, reliable=False)
        safe = net.mac(0).submit(MessageKind.BROADCAST, reliable=True)
        net.run(until=500)
        assert fast.status is MessageStatus.COMPLETED
        assert safe.status is MessageStatus.COMPLETED
        assert fast.acked == set() and safe.acked == safe.dests
        # Exactly one handshake sequence on the air (the reliable one).
        raks = [t for t in air() if t.frame.ftype is FrameType.RAK]
        assert {t.frame.msg_id for t in raks} == {safe.msg_id}

    def test_unreliable_unicast_still_uses_dcf(self):
        """The reliability flag concerns group service only; unicast DCF
        is unchanged."""
        net = make_star(BmmmMac, 2)
        req = net.mac(0).submit(MessageKind.UNICAST, frozenset({1}), reliable=False)
        net.run(until=200)
        assert req.status is MessageStatus.COMPLETED
        assert net.channel.counters.get(FrameType.ACK.sent_key) == 1

    def test_plain_mac_ignores_flag(self):
        net = make_star(PlainMulticastMac, 2)
        a = net.mac(0).submit(MessageKind.BROADCAST, reliable=True)
        b = net.mac(0).submit(MessageKind.BROADCAST, reliable=False)
        net.run(until=300)
        assert a.status is MessageStatus.COMPLETED
        assert b.status is MessageStatus.COMPLETED
        assert net.channel.counters.get(FrameType.RTS.sent_key) == 0


class TestMixedProtocolNetworks:
    def test_heterogeneous_network_runs(self):
        """Half the nodes speak BMMM, half plain 802.11; everyone's
        traffic completes and BMMM's reliability survives the mix."""
        pos = star_positions(5)
        classes = [BmmmMac, PlainMulticastMac, BmmmMac, PlainMulticastMac, BmmmMac, PlainMulticastMac]
        net = Network(pos, 0.2, classes, seed=3)
        reliable = net.mac(0).submit(MessageKind.BROADCAST)
        plain = net.mac(1).submit(MessageKind.BROADCAST)
        net.run(until=500)
        assert reliable.status is MessageStatus.COMPLETED
        assert plain.status is MessageStatus.COMPLETED
        # BMMM's completion still implies ground-truth delivery.
        assert reliable.dests <= net.channel.stats.data_receipts[reliable.msg_id]

    def test_plain_node_yields_to_bmmm_exchange(self):
        """A plain-802.11 station honours the Duration fields of a BMMM
        batch it overhears (same frame formats!): no collisions on an
        otherwise clean star."""
        pos = star_positions(4)
        classes = [BmmmMac, BmmmMac, BmmmMac, BmmmMac, PlainMulticastMac]
        net = Network(pos, 0.2, classes, seed=4)
        req = net.mac(0).submit(MessageKind.BROADCAST)

        def later():
            yield net.env.timeout(8)  # mid-batch
            net.mac(4).submit(MessageKind.MULTICAST, frozenset({0}), timeout=400)

        net.env.process(later())
        net.run(until=600)
        assert req.status is MessageStatus.COMPLETED
        assert net.channel.counters.get("collisions") == 0

    def test_class_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="MAC classes"):
            Network(star_positions(2), 0.2, [BmmmMac], seed=0)

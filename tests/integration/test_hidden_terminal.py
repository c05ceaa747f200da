"""Hidden-terminal scenarios (Section 2.1's motivating problem).

Topology: a chain p - q - r where p and r are mutually hidden.  Plain
CSMA/CA cannot protect q; the RTS/CTS-based protocols must.
"""


from repro.core.bmmm import BmmmMac
from repro.core.lamm import LammMac
from repro.mac.base import MessageKind, MessageStatus
from repro.protocols.plain import PlainMulticastMac
from repro.sim.network import Network

from tests.conftest import chain_positions


def jammed_chain(mac_cls, seed, n_jam=10, horizon=4000):
    """p(0) multicasts to q(1) while hidden r(2) unicasts to q heavily."""
    net = Network(chain_positions(3, 0.15), 0.2, mac_cls, seed=seed)
    for _ in range(n_jam):
        net.mac(2).submit(MessageKind.UNICAST, frozenset({1}), timeout=horizon)
    req = net.mac(0).submit(MessageKind.MULTICAST, frozenset({1}), timeout=horizon)
    net.run(until=horizon)
    return net, req


class TestHiddenTerminal:
    def test_hidden_nodes_cannot_carrier_sense_each_other(self):
        net = Network(chain_positions(3, 0.15), 0.2, PlainMulticastMac, seed=0)
        assert 2 not in net.propagation.neighbors[0]
        assert 1 in net.propagation.neighbors[0]
        assert 1 in net.propagation.neighbors[2]

    def test_plain_multicast_suffers_collisions(self):
        """Unprotected data frames from p and r collide at q."""
        collisions = 0
        for seed in range(6):
            net, req = jammed_chain(PlainMulticastMac, seed)
            collisions += net.channel.counters.get("collisions")
        assert collisions > 0

    def test_bmmm_protects_data_with_handshake(self):
        """If BMMM completes, q really has the frame -- the RTS/CTS/RAK/ACK
        exchange detects any hidden-terminal loss and retries."""
        completed = 0
        for seed in range(6):
            net, req = jammed_chain(BmmmMac, seed)
            if req.status is MessageStatus.COMPLETED:
                completed += 1
                assert 1 in net.channel.stats.data_receipts[req.msg_id]
        assert completed > 0, "BMMM should usually get through"

    def test_lamm_same_guarantee(self):
        for seed in range(6):
            net, req = jammed_chain(LammMac, seed)
            if req.status is MessageStatus.COMPLETED:
                assert 1 in net.channel.stats.data_receipts[req.msg_id]

    def test_cts_reserves_medium_at_hidden_node(self):
        """After q's CTS, r must defer: during p's DATA transmission r
        stays silent (NAV), so the DATA gets through cleanly on a quiet
        network."""
        net = Network(chain_positions(3, 0.15), 0.2, BmmmMac, seed=3)
        req = net.mac(0).submit(MessageKind.MULTICAST, frozenset({1}), timeout=1000)
        # r has one message queued slightly later.
        def later():
            yield net.env.timeout(4)
            net.mac(2).submit(MessageKind.UNICAST, frozenset({1}), timeout=1000)

        net.env.process(later())
        net.run(until=1000)
        assert req.status is MessageStatus.COMPLETED
        # The DATA frame must have been received cleanly by q.
        assert 1 in net.channel.stats.clean_data_receipts[req.msg_id]

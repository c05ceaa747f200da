"""Tests for the BMMM protocol (Section 4)."""


from repro.core.bmmm import BmmmMac
from repro.mac.base import MacConfig, MessageKind, MessageStatus
from repro.sim.frames import FrameType
from repro.sim.network import Network

from tests.conftest import chain_positions, make_star, run_one_broadcast


class TestBmmmCleanChannel:
    def test_completes_single_contention_phase(self):
        """The headline claim: one contention phase for n receivers."""
        for n in (1, 3, 6):
            net, req = run_one_broadcast(BmmmMac, n_receivers=n, until=1000)
            assert req.status is MessageStatus.COMPLETED
            assert req.contention_phases == 1
            assert req.rounds == 1

    def test_acks_collected_from_everyone(self):
        net, req = run_one_broadcast(BmmmMac, n_receivers=5, until=1000)
        assert req.acked == req.dests

    def test_all_receivers_get_data(self):
        net, req = run_one_broadcast(BmmmMac, n_receivers=5, until=1000)
        assert net.channel.stats.data_receipts[req.msg_id] >= req.dests
        assert net.channel.stats.clean_data_receipts[req.msg_id] >= req.dests

    def test_multicast_polls_only_group(self):
        net = make_star(BmmmMac, 4)
        req = net.mac(0).submit(MessageKind.MULTICAST, frozenset({2, 4}))
        net.run(until=500)
        assert req.status is MessageStatus.COMPLETED
        assert net.channel.counters.get(FrameType.RTS.sent_key) == 2
        assert net.channel.counters.get(FrameType.RAK.sent_key) == 2

    def test_unicast_still_uses_dcf(self):
        """The 20% unicast traffic runs plain DCF (no RAK)."""
        net = make_star(BmmmMac, 2)
        req = net.mac(0).submit(MessageKind.UNICAST, frozenset({1}))
        net.run(until=200)
        assert req.status is MessageStatus.COMPLETED
        assert net.channel.counters.get(FrameType.RAK.sent_key) == 0


class TestBmmmRecovery:
    def test_retries_unacked_receivers_in_second_round(self):
        """Chain topology: 0's batch to {1}; hidden node 2 causes data
        loss at 1 sometimes; BMMM must retry until ACKed or timeout."""
        net = Network(chain_positions(3, 0.15), 0.2, BmmmMac, seed=5)
        for _ in range(6):
            net.mac(2).submit(MessageKind.UNICAST, frozenset({1}), timeout=3000)
        req = net.mac(0).submit(MessageKind.MULTICAST, frozenset({1}), timeout=3000)
        net.run(until=3000)
        if req.status is MessageStatus.COMPLETED:
            # Reliability: completion implies the receiver really has it.
            assert 1 in net.channel.stats.data_receipts[req.msg_id]
            assert req.acked == {1}

    def test_completion_implies_ground_truth_delivery(self):
        """BMMM is logically reliable: COMPLETED -> every intended receiver
        decoded the data frame (the property BSMA lacks)."""
        for seed in range(5):
            net = Network(chain_positions(4, 0.15), 0.2, BmmmMac, seed=seed)
            for _ in range(4):
                net.mac(3).submit(MessageKind.UNICAST, frozenset({2}), timeout=4000)
            req = net.mac(0).submit(MessageKind.MULTICAST, frozenset({1}), timeout=4000)
            net.run(until=4000)
            if req.status is MessageStatus.COMPLETED:
                assert req.dests <= net.channel.stats.data_receipts[req.msg_id]

    def test_times_out_under_impossible_deadline(self):
        net, req = run_one_broadcast(
            BmmmMac, n_receivers=5, mac_config=MacConfig(timeout_slots=10)
        )
        assert req.status is MessageStatus.TIMED_OUT

    def test_no_cts_leads_to_backoff_and_retry(self):
        """If every receiver is NAV-blocked, the whole RTS cycle yields no
        CTS and the sender re-contends (Figure 3's else branch)."""
        net = make_star(BmmmMac, 2, mac_config=MacConfig(timeout_slots=400))
        # Pre-set both receivers' NAV to a *different* owner so they
        # refuse to answer node 0's polls for a while.
        net.mac(1).nav.set(60, owner=99)
        net.mac(2).nav.set(60, owner=99)
        req = net.mac(0).submit(MessageKind.BROADCAST)
        net.run(until=500)
        assert req.status is MessageStatus.COMPLETED
        assert req.contention_phases > 1


class TestBmmmMediumControl:
    def test_neighbor_cannot_seize_medium_mid_batch(self):
        """While node 0 runs a batch, a neighbor with a pending message
        must not transmit until the batch ends (gaps < DIFS)."""
        net = make_star(BmmmMac, 4)
        req = net.mac(0).submit(MessageKind.BROADCAST)
        # Node 1 wants to send shortly after the batch starts.
        def inject():
            yield net.env.timeout(8)
            net.mac(1).submit(MessageKind.UNICAST, frozenset({0}), timeout=500)

        net.env.process(inject())
        net.run(until=600)
        assert req.status is MessageStatus.COMPLETED
        # No collisions: node 1 waited the batch out.
        assert net.channel.counters.get("collisions") == 0

    def test_third_party_yields_via_duration(self):
        """A receiver hearing RTS(p2) mid-batch still answers its own
        later poll (NAV owner logic), so the batch completes in 1 round."""
        net, req = run_one_broadcast(BmmmMac, n_receivers=6, until=1000)
        assert req.rounds == 1
        assert req.acked == req.dests

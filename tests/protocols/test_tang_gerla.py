"""Tests for the Tang-Gerla [19] broadcast MAC and its CTS-collision flaw."""


from repro.mac.base import MessageStatus
from repro.phy.capture import ZorziRaoCapture
from repro.protocols.tang_gerla import TangGerlaMac
from repro.sim.frames import FrameType

from tests.conftest import run_one_broadcast


class TestTangGerla:
    def test_single_receiver_clean_handshake(self):
        net, req = run_one_broadcast(TangGerlaMac, n_receivers=1)
        assert req.status is MessageStatus.COMPLETED
        sent = net.channel.counters
        assert sent.get(FrameType.RTS.sent_key) == 1
        assert sent.get(FrameType.CTS.sent_key) == 1
        assert sent.get(FrameType.DATA.sent_key) == 1
        assert sent.get(FrameType.ACK.sent_key) == 0

    def test_multiple_receivers_cts_collide_without_capture(self):
        """Section 3's critique: all intended receivers CTS in the same
        slot; without capture the sender never hears one and retries until
        the message times out."""
        net, req = run_one_broadcast(TangGerlaMac, n_receivers=4, capture=None)
        assert req.status is MessageStatus.TIMED_OUT
        assert net.channel.counters.get(FrameType.DATA.sent_key) == 0
        assert req.contention_phases > 1  # kept backing off and retrying

    def test_capture_rescues_broadcast(self):
        """With DS capture the strongest CTS can be decoded and the data
        goes out."""
        net, req = run_one_broadcast(
            TangGerlaMac,
            n_receivers=4,
            capture=ZorziRaoCapture(c2=1.0, floor=1.0),
        )
        assert req.status is MessageStatus.COMPLETED
        assert net.channel.counters.get("captures") >= 1

    def test_cts_frames_all_transmitted_same_slot(self):
        net, req = run_one_broadcast(TangGerlaMac, n_receivers=3, capture=None, until=30)
        # 3 CTS were sent in response to the first RTS and collided.
        assert net.channel.counters.get(FrameType.CTS.sent_key) >= 3
        assert net.channel.counters.get("collisions") >= 3

    def test_no_reliability_bookkeeping(self):
        net, req = run_one_broadcast(
            TangGerlaMac, n_receivers=2, capture=ZorziRaoCapture(c2=1.0, floor=1.0)
        )
        assert req.acked == set()  # the sender learns nothing about delivery

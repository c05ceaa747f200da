"""Golden slot-by-slot timelines.

For each protocol, the exact on-air schedule of one clean exchange is
pinned frame by frame (type, sender, start slot relative to the first
transmission).  Any change to SIFS/DIFS handling, response timing, or
Duration bookkeeping shows up here immediately.
"""


from repro.core.bmmm import BmmmMac
from repro.core.lamm import LammMac
from repro.mac.base import MessageKind, MessageStatus
from repro.protocols.bmw import BmwMac
from repro.protocols.bsma import BsmaMac
from repro.protocols.leader import LeaderBasedMac
from repro.protocols.plain import PlainMulticastMac
from repro.protocols.tang_gerla import TangGerlaMac
from repro.phy.capture import ZorziRaoCapture
from repro.sim.frames import FrameType as F

from tests.conftest import air_log, make_star


def timeline(air):
    """(frame type, sender, start offset) for every transmission."""
    txs = sorted(air, key=lambda t: (t.start, t.sender))
    if not txs:
        return []
    t0 = txs[0].start
    return [(t.frame.ftype, t.sender, t.start - t0) for t in txs]


def run(mac_cls, n_receivers, kind=MessageKind.BROADCAST, dests=None, **kw):
    net = make_star(mac_cls, n_receivers, **kw)
    air = air_log(net.env)
    req = net.mac(0).submit(kind, dests, timeout=500)
    net.run(until=700)
    return air(), req


class TestGoldenTimelines:
    def test_plain_multicast(self):
        air, req = run(PlainMulticastMac, 2)
        assert timeline(air) == [(F.DATA, 0, 0)]

    def test_dcf_unicast(self):
        air, req = run(PlainMulticastMac, 1, MessageKind.UNICAST, frozenset({1}))
        assert timeline(air) == [
            (F.RTS, 0, 0),
            (F.CTS, 1, 1),
            (F.DATA, 0, 2),
            (F.ACK, 1, 7),
        ]

    def test_bmmm_two_receivers(self):
        air, req = run(BmmmMac, 2)
        assert req.status is MessageStatus.COMPLETED
        assert timeline(air) == [
            (F.RTS, 0, 0),
            (F.CTS, 1, 1),
            (F.RTS, 0, 2),
            (F.CTS, 2, 3),
            (F.DATA, 0, 4),
            (F.RAK, 0, 9),
            (F.ACK, 1, 10),
            (F.RAK, 0, 11),
            (F.ACK, 2, 12),
        ]

    def test_lamm_two_receivers_same_as_bmmm(self):
        """With two mutually-uncoverable receivers LAMM degenerates to
        BMMM's schedule."""
        air, req = run(LammMac, 2)
        assert timeline(air) == [
            (F.RTS, 0, 0),
            (F.CTS, 1, 1),
            (F.RTS, 0, 2),
            (F.CTS, 2, 3),
            (F.DATA, 0, 4),
            (F.RAK, 0, 9),
            (F.ACK, 1, 10),
            (F.RAK, 0, 11),
            (F.ACK, 2, 12),
        ]

    def test_bmw_two_receivers_with_overhearing(self):
        air, req = run(BmwMac, 2)
        tl = timeline(air)
        # First receiver: full exchange at offsets 0,1,2,7.
        assert tl[:4] == [
            (F.RTS, 0, 0),
            (F.CTS, 1, 1),
            (F.DATA, 0, 2),
            (F.ACK, 1, 7),
        ]
        # Second receiver: suppressed to RTS/CTS only (offset gap = its
        # own contention phase, so only check types and sender).
        assert [(t[0], t[1]) for t in tl[4:]] == [(F.RTS, 0), (F.CTS, 2)]

    def test_tang_gerla_single_receiver(self):
        air, req = run(TangGerlaMac, 1)
        assert timeline(air) == [
            (F.RTS, 0, 0),
            (F.CTS, 1, 1),
            (F.DATA, 0, 2),
        ]

    def test_bsma_single_receiver(self):
        air, req = run(BsmaMac, 1)
        # Same as Tang-Gerla (the NAK window adds airtime only on loss).
        assert timeline(air) == [
            (F.RTS, 0, 0),
            (F.CTS, 1, 1),
            (F.DATA, 0, 2),
        ]

    def test_lbp_two_receivers(self):
        air, req = run(LeaderBasedMac, 2, capture=ZorziRaoCapture())
        tl = timeline(air)
        assert tl[0][0] is F.RTS and tl[0][1] == 0
        leader = tl[1][1]
        assert tl[1] == (F.CTS, leader, 1)
        assert tl[2] == (F.DATA, 0, 2)
        assert tl[3] == (F.ACK, leader, 7)
        assert len(tl) == 4  # nobody NAKed

    def test_bmmm_timeline_durations_decrease_monotonically(self):
        air, req = run(BmmmMac, 3)
        txs = sorted(air, key=lambda t: t.start)
        durations = [t.frame.duration for t in txs]
        # Within one batch, every frame's Duration field counts down the
        # remaining reservation.
        assert durations == sorted(durations, reverse=True)

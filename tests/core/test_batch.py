"""Tests for the Batch_Mode_Procedure (Figure 3) duration arithmetic and
frame choreography."""

import pytest

from repro.core.batch import batch_round_airtime, rak_duration, rts_duration
from repro.core.bmmm import BmmmMac
from repro.mac.base import MessageKind, MessageStatus
from repro.sim.frames import FrameType

from tests.conftest import air_log, make_star


def broadcast_air(n_receivers):
    """One BMMM broadcast on a clean star: (request, frames on the air)."""
    net = make_star(BmmmMac, n_receivers)
    air = air_log(net.env)
    req = net.mac(0).submit(MessageKind.BROADCAST)
    net.run(until=500)
    return req, air()


class TestDurationFormulas:
    def test_rts_duration_matches_figure3(self):
        """Duration_i = (n-i)T_RTS + (n-i+1)T_CTS + T_DATA + n(T_RAK+T_ACK),
        with all control frames 1 slot and DATA 5."""
        n = 4
        for i in range(1, n + 1):
            expected = (n - i) * 1 + (n - i + 1) * 1 + 5 + n * 2
            assert rts_duration(n, i) == expected

    def test_first_rts_reserves_whole_round(self):
        """RTS_1's Duration covers everything after it: the remaining
        n-1 RTS + n CTS + DATA + n RAK + n ACK."""
        for n in (1, 2, 5, 10):
            # Whole round minus the first RTS itself:
            assert rts_duration(n, 1) == batch_round_airtime(n) - 1

    def test_last_rak_reserves_final_ack(self):
        assert rak_duration(5, 5) == 1

    def test_rak_duration_decreasing(self):
        n = 6
        durs = [rak_duration(n, i) for i in range(1, n + 1)]
        assert durs == sorted(durs, reverse=True)
        assert durs[0] == 2 * (n - 1) + 1

    def test_round_airtime(self):
        """4n + 5 slots: n RTS, n CTS, DATA(5), n RAK, n ACK."""
        assert batch_round_airtime(1) == 9
        assert batch_round_airtime(4) == 21
        assert batch_round_airtime(10) == 45

    def test_validation(self):
        with pytest.raises(ValueError):
            rts_duration(3, 0)
        with pytest.raises(ValueError):
            rts_duration(3, 4)
        with pytest.raises(ValueError):
            rak_duration(3, 0)
        with pytest.raises(ValueError):
            batch_round_airtime(0)


class TestBatchChoreography:
    def test_frame_sequence_on_clean_channel(self):
        """n RTS, n CTS, 1 DATA, n RAK, n ACK, in that phase order."""
        n = 3
        req, txs = broadcast_air(n)
        assert req.status is MessageStatus.COMPLETED
        kinds = [tx.frame.ftype for tx in txs]
        assert kinds.count(FrameType.RTS) == n
        assert kinds.count(FrameType.CTS) == n
        assert kinds.count(FrameType.DATA) == 1
        assert kinds.count(FrameType.RAK) == n
        assert kinds.count(FrameType.ACK) == n
        # Phase ordering: all RTS/CTS before DATA, all RAK/ACK after.
        data_idx = kinds.index(FrameType.DATA)
        assert all(
            k in (FrameType.RTS, FrameType.CTS) for k in kinds[:data_idx]
        )
        assert all(k in (FrameType.RAK, FrameType.ACK) for k in kinds[data_idx + 1 :])

    def test_rts_cts_alternate(self):
        req, txs = broadcast_air(3)
        kinds = [tx.frame.ftype for tx in txs]
        data_idx = kinds.index(FrameType.DATA)
        assert kinds[:data_idx] == [FrameType.RTS, FrameType.CTS] * 3
        assert kinds[data_idx + 1 :] == [FrameType.RAK, FrameType.ACK] * 3

    def test_gapless_medium_occupancy(self):
        """Between channel access and the last ACK, the medium never idles
        for DIFS (2 slots) or more -- Section 4's key property."""
        req, txs = broadcast_air(4)
        for a, b in zip(txs, txs[1:]):
            gap = b.start - a.end
            assert gap < 2, f"medium idled {gap} slots mid-batch"

    def test_batch_airtime_matches_formula(self):
        n = 4
        req, txs = broadcast_air(n)
        busy = txs[-1].end - txs[0].start
        assert busy == batch_round_airtime(n)

    def test_cts_duration_is_rts_minus_one(self):
        req, txs = broadcast_air(2)
        pairs = [
            (a, b)
            for a, b in zip(txs, txs[1:])
            if a.frame.ftype is FrameType.RTS and b.frame.ftype is FrameType.CTS
        ]
        assert pairs
        for rts, cts in pairs:
            assert cts.frame.duration == rts.frame.duration - 1

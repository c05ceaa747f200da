"""Unit tests for the slotted broadcast channel (collisions, capture,
half-duplex, frame errors, ground-truth bookkeeping)."""

import random

import numpy as np
import pytest

from repro.phy.capture import ZorziRaoCapture
from repro.phy.propagation import UnitDiskPropagation
from repro.sim.channel import PRUNE_MIN_LEN, Channel, Transmission
from repro.sim.frames import Frame, FrameType, GROUP_ADDR
from repro.sim.kernel import Environment

from tests.conftest import air_log


def make_channel(positions, radius=0.2, **kwargs):
    env = Environment()
    prop = UnitDiskPropagation(np.asarray(positions, dtype=float), radius)
    ch = Channel(env, prop, **kwargs)
    radios = [ch.attach(i) for i in range(prop.n_nodes)]
    return env, ch, radios


def listen(radio):
    """Collect (time, frame, clean) deliveries at a radio."""
    log = []
    radio.add_listener(lambda f, c: log.append((radio.env.now, f, c)))
    return log


def span(transmissions):
    """(sender, start, end) of each transmission."""
    return [(t.sender, t.start, t.end) for t in transmissions]


def at(env, t, fn):
    """Run *fn* at time *t*."""
    env.timeout(t).callbacks.append(lambda _e: fn())


def rts(src, ra=1, **kw):
    return Frame(FrameType.RTS, src=src, ra=ra, **kw)


def data(src, group=frozenset(), msg_id=None):
    return Frame(FrameType.DATA, src=src, ra=GROUP_ADDR, group=frozenset(group), msg_id=msg_id)


class TestCleanDelivery:
    def test_frame_delivered_to_all_neighbors_at_airtime_end(self):
        env, ch, radios = make_channel([[0.5, 0.5], [0.55, 0.5], [0.45, 0.5]])
        logs = [listen(r) for r in radios]
        ch.transmit(radios[0], rts(0))
        env.run(until=10)
        assert len(logs[1]) == 1 and len(logs[2]) == 1
        t, frame, clean = logs[1][0]
        assert t == 1 and frame.ftype is FrameType.RTS and clean

    def test_data_frame_takes_five_slots(self):
        env, ch, radios = make_channel([[0.5, 0.5], [0.55, 0.5]])
        log = listen(radios[1])
        ch.transmit(radios[0], data(0, group={1}))
        env.run(until=10)
        assert log[0][0] == 5

    def test_sender_does_not_receive_own_frame(self):
        env, ch, radios = make_channel([[0.5, 0.5], [0.55, 0.5]])
        log0 = listen(radios[0])
        ch.transmit(radios[0], rts(0))
        env.run(until=10)
        assert log0 == []

    def test_out_of_range_node_hears_nothing(self):
        env, ch, radios = make_channel([[0.0, 0.5], [0.1, 0.5], [0.9, 0.5]])
        far_log = listen(radios[2])
        ch.transmit(radios[0], rts(0))
        env.run(until=10)
        assert far_log == []

    def test_sequential_frames_both_delivered(self):
        env, ch, radios = make_channel([[0.5, 0.5], [0.55, 0.5]])
        log = listen(radios[1])
        ch.transmit(radios[0], rts(0))
        at(env, 1, lambda: ch.transmit(radios[0], rts(0, seq=2)))
        env.run(until=10)
        assert [t for t, *_ in log] == [1, 2]
        assert all(clean for *_, clean in log)


class TestCollisions:
    def test_overlapping_frames_collide_without_capture(self):
        # 1 and 2 both in range of 0; they transmit simultaneously.
        env, ch, radios = make_channel([[0.5, 0.5], [0.55, 0.5], [0.45, 0.5]])
        log = listen(radios[0])
        ch.transmit(radios[1], rts(1, ra=0))
        ch.transmit(radios[2], rts(2, ra=0))
        env.run(until=10)
        assert log == []
        assert ch.finalize_counters().get("collisions") == 2  # both frames collided at node 0

    def test_partial_overlap_also_collides(self):
        # DATA [0,5) from node 1; RTS [3,4) from node 2: both die at node 0.
        env, ch, radios = make_channel([[0.5, 0.5], [0.55, 0.5], [0.45, 0.5]])
        log = listen(radios[0])
        ch.transmit(radios[1], data(1, group={0}))
        at(env, 3, lambda: ch.transmit(radios[2], rts(2, ra=0)))
        env.run(until=10)
        assert log == []

    def test_collision_only_local(self):
        # Chain: 0-1-2-3 with only adjacent in range.  1 and 2 transmit
        # simultaneously: 0 still hears only 1... no wait, 0 hears 1 only,
        # but 1's frame overlaps nothing audible at 0 -> clean at 0.
        env, ch, radios = make_channel(
            [[0.1, 0.5], [0.25, 0.5], [0.4, 0.5], [0.55, 0.5]], radius=0.2
        )
        log0, log3 = listen(radios[0]), listen(radios[3])
        ch.transmit(radios[1], rts(1, ra=0))
        ch.transmit(radios[2], rts(2, ra=3))
        env.run(until=10)
        assert len(log0) == 1 and log0[0][2] is True
        assert len(log3) == 1 and log3[0][2] is True

    def test_hidden_terminal_collision(self):
        # 0 and 2 cannot hear each other but both reach 1.
        env, ch, radios = make_channel([[0.1, 0.5], [0.25, 0.5], [0.4, 0.5]], radius=0.2)
        log = listen(radios[1])
        ch.transmit(radios[0], rts(0, ra=1))
        ch.transmit(radios[2], rts(2, ra=1))
        env.run(until=10)
        assert log == []


class TestCapture:
    def test_strongest_frame_captured_with_certainty_model(self):
        # Capture model that always captures: nearer sender (1) wins.
        always = ZorziRaoCapture(c2=1.0, floor=1.0)
        env, ch, radios = make_channel(
            [[0.5, 0.5], [0.52, 0.5], [0.6, 0.5]], capture=always
        )
        log = listen(radios[0])
        ch.transmit(radios[1], rts(1, ra=0))
        ch.transmit(radios[2], rts(2, ra=0))
        env.run(until=10)
        assert len(log) == 1
        t, frame, clean = log[0]
        assert frame.src == 1  # the nearer, stronger one
        assert clean is False  # captured, but NOT "received without collision"
        assert ch.finalize_counters().get("captures") == 1

    def test_equal_power_frames_never_captured(self):
        always = ZorziRaoCapture(c2=1.0, floor=1.0)
        # Coordinates chosen so the two distances are bit-identical.
        env, ch, radios = make_channel(
            [[0.0, 0.0], [0.05, 0.0], [-0.05, 0.0]], capture=always
        )
        log = listen(radios[0])
        ch.transmit(radios[1], rts(1, ra=0))
        ch.transmit(radios[2], rts(2, ra=0))
        env.run(until=10)
        assert log == []  # tie: no strictly strongest frame

    def test_weaker_frame_never_captured(self):
        always = ZorziRaoCapture(c2=1.0, floor=1.0)
        env, ch, radios = make_channel(
            [[0.5, 0.5], [0.52, 0.5], [0.6, 0.5]], capture=always
        )
        log = listen(radios[0])
        ch.transmit(radios[1], rts(1, ra=0))
        ch.transmit(radios[2], rts(2, ra=0))
        env.run(until=10)
        assert all(f.src != 2 for _, f, _ in log)

    def test_capture_statistics_match_probability(self):
        half = ZorziRaoCapture(c2=0.5, floor=0.5)
        captured = 0
        n = 300
        for seed in range(n):
            env, ch, radios = make_channel(
                [[0.5, 0.5], [0.52, 0.5], [0.6, 0.5]],
                capture=half,
                rng=random.Random(seed),
            )
            log = listen(radios[0])
            ch.transmit(radios[1], rts(1, ra=0))
            ch.transmit(radios[2], rts(2, ra=0))
            env.run(until=10)
            captured += len(log)
        assert captured / n == pytest.approx(0.5, abs=0.07)


class TestHalfDuplex:
    def test_receiver_transmitting_misses_frame(self):
        env, ch, radios = make_channel([[0.5, 0.5], [0.55, 0.5], [0.45, 0.5]])
        log1 = listen(radios[1])
        # Node 1 transmits DATA [0,5); node 2's RTS [2,3) arrives meanwhile.
        ch.transmit(radios[1], data(1, group={0}))
        at(env, 2, lambda: ch.transmit(radios[2], rts(2, ra=1)))
        env.run(until=10)
        assert log1 == []
        # Both stations were transmitting during the other's frame: the RTS
        # is lost at node 1 and the DATA is lost at node 2.
        assert ch.finalize_counters().get("half_duplex_losses") == 2

    def test_transmit_while_transmitting_raises(self):
        env, ch, radios = make_channel([[0.5, 0.5], [0.55, 0.5]])
        ch.transmit(radios[0], data(0, group={1}))

        def second():
            with pytest.raises(RuntimeError, match="already transmitting"):
                ch.transmit(radios[0], rts(0))

        at(env, 2, second)
        env.run(until=10)

    def test_back_to_back_own_transmissions_allowed(self):
        env, ch, radios = make_channel([[0.5, 0.5], [0.55, 0.5]])
        log = listen(radios[1])
        ch.transmit(radios[0], rts(0))
        at(env, 1, lambda: ch.transmit(radios[0], rts(0, seq=2)))
        env.run(until=10)
        assert len(log) == 2


class TestFrameErrors:
    def test_error_rate_zero_loses_nothing(self):
        env, ch, radios = make_channel([[0.5, 0.5], [0.55, 0.5]], frame_error_rate=0.0)
        log = listen(radios[1])
        for i in range(20):
            at(env, 2 * i, lambda i=i: ch.transmit(radios[0], rts(0, seq=i)))
        env.run(until=100)
        assert len(log) == 20

    def test_error_rate_statistics(self):
        env, ch, radios = make_channel(
            [[0.5, 0.5], [0.55, 0.5]],
            frame_error_rate=0.3,
            rng=random.Random(9),
        )
        log = listen(radios[1])
        n = 1000
        for i in range(n):
            at(env, 2 * i, lambda i=i: ch.transmit(radios[0], rts(0, seq=i)))
        env.run(until=3 * n)
        assert len(log) / n == pytest.approx(0.7, abs=0.05)
        assert ch.counters.get("frame_errors") == n - len(log)

    def test_invalid_rate_rejected(self):
        env = Environment()
        prop = UnitDiskPropagation(np.array([[0.0, 0.0]]), 0.2)
        with pytest.raises(ValueError):
            Channel(env, prop, frame_error_rate=1.0)


class TestGroundTruth:
    def test_data_receipts_recorded_per_msg_id(self):
        env, ch, radios = make_channel([[0.5, 0.5], [0.55, 0.5], [0.45, 0.5]])
        ch.transmit(radios[0], data(0, group={1, 2}, msg_id=77))
        env.run(until=10)
        assert ch.stats.data_receipts[77] == {1, 2}
        assert ch.stats.clean_data_receipts[77] == {1, 2}

    def test_captured_data_not_marked_clean(self):
        always = ZorziRaoCapture(c2=1.0, floor=1.0)
        env, ch, radios = make_channel(
            [[0.5, 0.5], [0.52, 0.5], [0.6, 0.5]], capture=always
        )
        # DATA from 1 (near) and RTS from 2 (far) overlap at 0.
        ch.transmit(radios[1], data(1, group={0}, msg_id=5))
        ch.transmit(radios[2], rts(2, ra=0))
        env.run(until=10)
        assert ch.stats.data_receipts.get(5) == {0}
        assert 0 not in ch.stats.clean_data_receipts.get(5, set())

    def test_sent_counters(self):
        env, ch, radios = make_channel([[0.5, 0.5], [0.55, 0.5]])
        ch.transmit(radios[0], rts(0))
        at(env, 1, lambda: ch.transmit(radios[0], data(0, group={1})))
        env.run(until=10)
        counts = ch.finalize_counters()
        assert counts.get(FrameType.RTS.sent_key) == 1
        assert counts.get(FrameType.DATA.sent_key) == 1
        assert counts.get(FrameType.RTS.sent_key, node=0) == 1

    def test_attach_is_idempotent(self):
        env, ch, radios = make_channel([[0.5, 0.5], [0.55, 0.5]])
        assert ch.attach(0) is radios[0]

    def test_attach_rejects_unknown_node(self):
        env, ch, radios = make_channel([[0.5, 0.5]])
        with pytest.raises(ValueError):
            ch.attach(5)


class TestBusyTracking:
    def test_busy_until_reflects_audible_transmissions(self):
        env, ch, radios = make_channel([[0.5, 0.5], [0.55, 0.5]])

        def check_busy():
            assert radios[1].is_busy
            assert radios[1].busy_until == 5

        ch.transmit(radios[0], data(0, group={1}))
        at(env, 2, check_busy)
        env.run(until=10)
        assert not radios[1].is_busy  # after the frame ends

    def test_own_transmission_makes_medium_busy(self):
        env, ch, radios = make_channel([[0.5, 0.5], [0.55, 0.5]])
        ch.transmit(radios[0], data(0, group={1}))
        assert radios[0].is_busy
        assert radios[0].is_transmitting


    def test_transmit_schedules_only_the_airtime_timeout(self):
        # Sender plus two interferers: the only kernel work a transmission
        # costs up front is the timeout that ends its airtime.
        env, ch, radios = make_channel([[0.5, 0.5], [0.55, 0.5], [0.45, 0.5]])
        eid0, queued0 = env._eid, len(env._queue)
        done = ch.transmit(radios[0], rts(0))
        assert env._eid - eid0 == 1
        assert len(env._queue) - queued0 == 1
        assert all(entry[2] == 0 for entry in env._queue)  # no ranked sample
        assert env._queue[0][4] is done and done.delay == 1
        assert env._queue[0][0] == 1  # the airtime end is the next event

    def test_transmit_pokes_waiters_whose_busy_until_rises(self):
        # The sender and both interferers are written; a radio whose
        # busy_until already reaches past the frame's end is not.
        env, ch, radios = make_channel([[0.5, 0.5], [0.55, 0.5], [0.45, 0.5]])
        pokes = []
        for nid, radio in enumerate(radios):
            radio.waiters.append(lambda nid=nid: pokes.append((nid, radios[nid].busy_until)))
        radios[2].busy_until = 10
        ch.transmit(radios[0], rts(0))
        assert sorted(pokes) == [(0, 1), (1, 1)]

    def test_transmission_overlap_helper(self):
        f = Frame(FrameType.RTS, src=0, ra=1)
        a = Transmission(f, 0, 0, 5)
        b = Transmission(f, 1, 4, 5)
        c = Transmission(f, 1, 5, 6)
        assert a.overlaps(b) and b.overlaps(a)
        assert not a.overlaps(c) and not c.overlaps(a)


class TestPruneStaleEntries:
    """Air-list pruning.  Entries are in start order, so a long DATA
    frame at the head can still be live while shorter control frames
    behind it are already stale: pruning only the head would keep the
    stale tail."""

    def test_stale_short_behind_fresh_long_head_is_pruned(self):
        env, ch, radios = make_channel([[0.5, 0.5], [0.55, 0.5], [0.45, 0.5]])
        ch.transmit(radios[0], data(0, group={1}))  # [0, 5]: stale at t=10
        at(env, 3, lambda: ch.transmit(radios[2], data(2, group={1})))  # [3, 8]: live head
        for t in (4, 5, 6, 7, 8, 9):  # [4, 5] stale behind the head, then fresh
            at(env, t, lambda: ch.transmit(radios[1], rts(1)))
        # A DATA still in flight at t=10 keeps the horizon at 10 - 5 = 5.
        at(env, 8, lambda: ch.transmit(radios[0], data(0, group={1})))
        before = []

        def last():
            before.extend(ch.air)
            ch.transmit(radios[1], rts(1))

        at(env, 10, last)
        env.run(until=10.5)
        # Nothing was stale at t=9's prune, so *before* is every frame
        # sent until t=10.
        head, stale = before[1], before[2]
        assert (head.start, head.end, stale.start, stale.end) == (3, 8, 4, 5)
        # The list held more than PRUNE_MIN_LEN entries when the last
        # frame was sent, so that transmit compacted it.
        assert len(before) == PRUNE_MIN_LEN + 1
        assert ch.air[:-1] == [t for t in before if t.end > 5]
        assert (ch.air[-1].sender, ch.air[-1].start) == (1, 10)
        assert ch.air[0] is head and stale not in ch.air

    def test_fresh_entries_untouched(self):
        positions = [[0.5 + 0.01 * i, 0.5] for i in range(PRUNE_MIN_LEN + 1)]
        env, ch, radios = make_channel(positions)
        air = air_log(env)
        ch.transmit(radios[0], data(0, group={1}))
        for i in range(1, PRUNE_MIN_LEN + 1):
            at(env, 9, lambda i=i: ch.transmit(radios[i], rts(i, ra=0)))
        at(env, 10, lambda: ch.transmit(radios[0], rts(0)))
        env.run(until=10.5)
        # The DATA landed at t=5, so the in-flight maximum is back at the
        # 1-slot floor and the horizon at t=10 is 9: everything sent at
        # t=9 ends at 10 and survives the compaction the last transmit ran.
        assert len(ch.air) == PRUNE_MIN_LEN + 1
        assert span(ch.air) == span(air()[1:])

    def test_short_lists_skip_the_prune_pass(self):
        env, ch, radios = make_channel([[0.5, 0.5], [0.55, 0.5]])
        air = air_log(env)
        ch.transmit(radios[1], rts(1))
        at(env, 10, lambda: ch.transmit(radios[1], rts(1)))
        env.run(until=10.5)
        # Below PRUNE_MIN_LEN scanning the stale entry is cheaper than
        # compacting the list, so the transmit leaves it alone.
        assert span(ch.air) == span(air()) and len(ch.air) == 2

    def test_max_airtime_tracks_frames_in_flight(self):
        env, ch, radios = make_channel([[0.5, 0.5], [0.55, 0.5]])
        ch.transmit(radios[0], data(0, group={1}))  # airtime 5
        assert ch._max_airtime == 5.0
        env.run(until=6)
        # The DATA landed at t=5: no long frame in flight any more, so
        # the horizon tightens back to the floor instead of ratcheting.
        assert ch._max_airtime == 1.0
        assert ch._airtime_counts == {}

    def test_max_airtime_overlapping_long_frames(self):
        env, ch, radios = make_channel([[0.5, 0.5], [0.55, 0.5], [0.45, 0.5]])
        ch.transmit(radios[0], data(0, group={1}))  # ends at 5
        at(env, 3, lambda: ch.transmit(radios[2], data(2, group={0})))  # ends at 8
        env.run(until=6)
        # First DATA landed, second still in flight: the maximum must
        # reflect the live frame, not drop to the floor.
        assert ch._max_airtime == 5.0
        env.run(until=9)
        assert ch._max_airtime == 1.0

    def test_air_list_stays_bounded_in_long_mixed_airtime_run(self):
        """Long run with back-to-back DATA interleaved with per-slot
        control frames: the air list must stay within the
        ~2 x max_airtime window of live frames (a head-only prune lets
        stale control frames ride along under the DATA head, peaking
        ~60% higher)."""
        env, ch, radios = make_channel(
            [[0.5, 0.5], [0.55, 0.5], [0.45, 0.5], [0.5, 0.55]]
        )
        max_len = 0

        def sample():
            nonlocal max_len
            max_len = max(max_len, len(ch.air))

        horizon = 1000
        for t in range(0, horizon, 5):  # node 1: DATA back-to-back
            at(env, t, lambda: ch.transmit(radios[1], data(1, group={0, 2, 3})))
        for t in range(horizon):  # nodes 2, 3: one control frame per slot
            at(env, t, lambda: ch.transmit(radios[2], rts(2, ra=0)))
            at(env, t, lambda: ch.transmit(radios[3], Frame(FrameType.CTS, src=3, ra=0)))
            at(env, t, sample)
        env.run(until=horizon + 10)
        # Live window: <= 2 DATA + ~2x6 control frames + the just-started
        # slot's arrivals.  A head-only prune peaks at 22 here; with no
        # prune at all the list would hold all 2200 frames.
        counts = ch.finalize_counters()
        assert sum(counts.get(ft.sent_key) for ft in FrameType) == 2200
        assert PRUNE_MIN_LEN <= max_len <= 16

"""Channel regressions under mixed-duration (multi-rate) frames.

The variable-airtime machinery -- the ``_airtime_counts`` multiset, the
``_max_airtime`` air-list prune horizon and the per-link rate-decode gate --
predates multi-rate PHY profiles but was only ever exercised with the
single 1/5-slot mix.  These tests pin its behavior when frames of several
airtimes are in flight at once: a short frame arriving while a longer one
is mid-air at a different rate, watermark ratchet-up/-down, and the
channel dropping DATA at receivers outside the chosen MCS's decode range.
"""

import numpy as np

from repro.phy.profile import PhyProfile
from repro.phy.propagation import UnitDiskPropagation
from repro.sim.channel import PRUNE_MIN_LEN, Channel
from repro.sim.frames import Frame, FrameType, GROUP_ADDR
from repro.sim.kernel import Environment

MILD = PhyProfile(signal_slots=1, data_slots=(5, 3), range_fractions=(1.0, 0.7))


def make_channel(positions, radius=0.2, **kwargs):
    env = Environment()
    prop = UnitDiskPropagation(np.asarray(positions, dtype=float), radius)
    ch = Channel(env, prop, **kwargs)
    radios = [ch.attach(i) for i in range(prop.n_nodes)]
    return env, ch, radios


def listen(radio):
    log = []
    radio.add_listener(lambda f, c: log.append((radio.env.now, f, c)))
    return log


def at(env, t, fn):
    env.timeout(t).callbacks.append(lambda _e: fn())


def rts(src, ra=1, **kw):
    return Frame(FrameType.RTS, src=src, ra=ra, **kw)


def data(src, group, airtime_slots=None, mcs=0):
    return Frame(
        FrameType.DATA,
        src=src,
        ra=GROUP_ADDR,
        group=frozenset(group),
        airtime_slots=airtime_slots,
        mcs=mcs,
    )


class TestMaxAirtimeWatermark:
    def test_ratchets_up_then_back_down(self):
        env, ch, radios = make_channel([[0.5, 0.5], [0.55, 0.5]])
        ch.transmit(radios[0], data(0, {1}, airtime_slots=7))
        assert ch._max_airtime == 7
        # A short frame mid-flight must not lower the watermark...
        at(env, 1, lambda: ch.transmit(radios[1], rts(1, ra=0, seq=2)))
        env.run(until=3)
        assert ch._max_airtime == 7
        # ...and once the long frame lands the watermark falls back to
        # the floor (nothing long is in flight any more).
        env.run(until=8)
        assert ch._max_airtime == 1.0
        assert ch._airtime_counts == {}

    def test_falls_back_to_next_longest_not_floor(self):
        env, ch, radios = make_channel([[0.5, 0.5], [0.55, 0.5]])
        ch.transmit(radios[0], data(0, {1}, airtime_slots=9))
        at(env, 1, lambda: ch.transmit(radios[1], data(1, {0}, airtime_slots=5)))
        env.run(until=1.5)
        assert ch._max_airtime == 9
        assert ch._airtime_counts == {9: 1, 5: 1}
        # Long frame ends at t=9 but the 5-slot one (ends t=6) is gone
        # first; the multiset keeps the watermark exact at each step.
        env.run(until=7)
        assert ch._airtime_counts == {9: 1}
        assert ch._max_airtime == 9
        env.run(until=10)
        assert ch._airtime_counts == {}
        assert ch._max_airtime == 1.0

    def test_duplicate_airtimes_refcounted(self):
        env, ch, radios = make_channel([[0.5, 0.5], [0.55, 0.5], [0.45, 0.5]])
        ch.transmit(radios[1], data(1, {0}, airtime_slots=6))
        at(env, 1, lambda: ch.transmit(radios[2], data(2, {0}, airtime_slots=6)))
        env.run(until=2)
        assert ch._airtime_counts == {6: 2}
        env.run(until=6.5)  # first lands at 6, second still flying
        assert ch._airtime_counts == {6: 1}
        assert ch._max_airtime == 6
        env.run(until=8)
        assert ch._max_airtime == 1.0


class TestPruneUnderMixedDurations:
    def test_long_frame_still_collides_after_short_frame_burst(self):
        """Short frames arriving mid-flight must not prune the live long
        transmission out of the air list: a frame overlapping its tail
        still collides with it at a shared receiver."""
        # 0: long-frame sender; 1: shared receiver; 2: chatty neighbor.
        env, ch, radios = make_channel([[0.45, 0.5], [0.5, 0.5], [0.55, 0.5]])
        log1 = listen(radios[1])
        ch.transmit(radios[0], data(0, {1}, airtime_slots=12))
        # Enough short frames to cross PRUNE_MIN_LEN (so every append
        # considers a compaction pass) while the long frame is in the air.
        for k in range(PRUNE_MIN_LEN + 1):
            at(env, 1 + k * 1.25, lambda: ch.transmit(radios[2], rts(2, ra=1, seq=9)))
        env.run(until=20)
        # The long DATA must have been killed by the overlaps (no capture
        # model attached), not silently delivered because an overlapping
        # entry was compacted away mid-flight: while the 12-slot frame is
        # counted in _airtime_counts the horizon (now - _max_airtime)
        # never reaches past its start, so every overlapping short frame
        # survives until the long frame's own _finish has scanned them.
        assert all(f.ftype is not FrameType.DATA for _, f, _c in log1)
        assert ch.finalize_counters().get("collisions") > 0

    def test_prune_resumes_once_long_frame_lands(self):
        """After the long frame retires, the horizon tightens back to
        the short airtime and stale entries actually get compacted --
        the air list must not keep growing at the long horizon."""
        env, ch, radios = make_channel([[0.45, 0.5], [0.5, 0.5], [0.55, 0.5]])
        ch.transmit(radios[0], data(0, {1}, airtime_slots=12))
        for k in range(4):
            at(env, 1 + k * 1.25, lambda: ch.transmit(radios[2], rts(2, ra=1, seq=9)))
        env.run(until=13)
        assert ch._max_airtime == 1.0
        n_before = len(ch.air)
        assert n_before >= 5  # the long DATA + the phase-1 RTS frames
        for k in range(PRUNE_MIN_LEN + 4):
            at(env, 14 + k * 1.25, lambda: ch.transmit(radios[2], rts(2, ra=1, seq=9)))
        env.run(until=40)
        air = ch.air
        assert len(air) < PRUNE_MIN_LEN
        # Everything from the long frame's era is gone.
        assert all(tx.end > 13 for tx in air)


class TestRateDecodeGate:
    def test_fast_mcs_drops_at_far_receiver_only(self):
        # radius 0.2, tier-1 range 0.7 * 0.2 = 0.14: node 1 at 0.05 is
        # inside, node 2 at 0.15 is inside base range but outside tier 1.
        env, ch, radios = make_channel(
            [[0.0, 0.5], [0.05, 0.5], [0.15, 0.5]], phy=MILD
        )
        log_near, log_far = listen(radios[1]), listen(radios[2])
        ch.transmit(radios[0], data(0, {1, 2}, airtime_slots=3, mcs=1))
        env.run(until=10)
        assert [(t, f.ftype) for t, f, _ in log_near] == [(3, FrameType.DATA)]
        assert log_far == []
        assert ch.counters.get("rate_losses") == 1
        assert ch.counters.get("rate_losses", node=2) == 1

    def test_base_rate_never_gated(self):
        env, ch, radios = make_channel(
            [[0.0, 0.5], [0.05, 0.5], [0.15, 0.5]], phy=MILD
        )
        log_near, log_far = listen(radios[1]), listen(radios[2])
        ch.transmit(radios[0], data(0, {1, 2}, airtime_slots=5, mcs=0))
        env.run(until=10)
        assert len(log_near) == 1 and len(log_far) == 1
        assert ch.counters.get("rate_losses") == 0

    def test_default_profile_ignores_gate_entirely(self):
        # No phy passed: single-rate default; mcs-0 frames sail through.
        env, ch, radios = make_channel([[0.0, 0.5], [0.15, 0.5]])
        log = listen(radios[1])
        ch.transmit(radios[0], data(0, {1}))
        env.run(until=10)
        assert len(log) == 1
        assert ch.counters.get("rate_losses") == 0

    def test_rate_loss_still_counts_as_interference_for_others(self):
        """A rate-gated frame is undecodable, not inaudible: its energy
        still collides with other frames at the victim."""
        env, ch, radios = make_channel(
            [[0.0, 0.5], [0.15, 0.5], [0.3, 0.5]], phy=MILD
        )
        log_mid = listen(radios[1])
        # Fast DATA from 0 (gated at node 1) overlapping an RTS from 2
        # addressed to node 1: the RTS must die in the collision.
        ch.transmit(radios[0], data(0, {1}, airtime_slots=3, mcs=1))
        at(env, 1, lambda: ch.transmit(radios[2], rts(2, ra=1)))
        env.run(until=10)
        assert log_mid == []
        assert ch.finalize_counters().get("collisions") > 0

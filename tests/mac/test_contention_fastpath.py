"""Side-by-side property test for the idle-slot-skipping contention phase.

The fast path in :meth:`Contender.contention_phase` burns provably-idle
mid-slot samples in a single pooled timeout instead of stepping once per
slot.  These tests drive random busy/idle patterns through the fast
machine and through a literal copy of the pre-fast-path per-slot machine
(:class:`ReferenceContender` below), asserting the observable outcomes are
identical: the same win times, the same RNG state after every draw
(i.e. identical draw count and order), and the same phase counters --
while the fast machine schedules no more events than the reference.
"""

from __future__ import annotations

import dataclasses
import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mac.contention import Contender, ContentionParams
from repro.mac.nav import Nav
from repro.obs.counters import Counters
from repro.sim.kernel import Environment


class StubChannel:
    def __init__(self):
        self.counters = Counters()


class StubRadio:
    """Carrier-sense state only -- what the contention machine reads."""

    def __init__(self, env, node_id=0):
        self.env = env
        self.node_id = node_id
        self.busy_until = env.now
        self.channel = StubChannel()


class ReferenceContender(Contender):
    """The per-slot reference contention machine.

    A literal copy of the pre-fast-path loop -- one kernel event per
    DIFS/backoff slot, no horizons, no batching -- except that its
    mid-slot sample waits go through the kernel's sample lane with the
    contender's rank, exactly like the fast machine's.  That shares the
    one semantic pin both machines rely on (same-instant sample wake-ups
    and the commits they schedule order by contender rank, not by
    scheduling history), which is what makes N-contender equivalence a
    theorem rather than an accident of heap insertion order.
    """

    def contention_phase(self, attempt: int = 0):
        env = self.env
        params = self.params
        node = self.radio.node_id
        self.radio.channel.counters.inc("contention_phases", node=node)
        started = env.now
        hkey = self._hkey

        frac = env.now - math.floor(env.now)
        yield env.timeout((0.5 - frac) % 1.0)

        backoff = self.rng.randrange(params.window(attempt))
        while True:
            # -- DIFS: require `difs_slots` consecutive idle slots ---------
            idle_run = 0
            while idle_run < params.difs_slots:
                if self._slot_was_busy():
                    idle_run = 0
                    if not params.resume_backoff:
                        backoff = self.rng.randrange(params.window(attempt))
                    yield env.sample_sleep(self._next_sample_point(), hkey)
                else:
                    idle_run += 1
                    yield env.sample_sleep(1.0, hkey)

            # -- backoff countdown, frozen by activity ---------------------
            frozen = False
            while backoff > 0:
                if self._slot_was_busy():
                    frozen = True
                    break
                backoff -= 1
                yield env.sample_sleep(1.0, hkey)
            if frozen:
                continue

            if self._slot_was_busy():
                # Counter reached zero during a busy slot: defer.
                continue

            yield env.timeout(0.5)
            assert env.now - started >= 0
            return


def build_world(busy_pulses, nav_pulses, noise_times, *, reference, params, seed, n_phases):
    """Run *n_phases* contention phases under a scripted medium.

    Busy transitions and NAV updates are applied inside event callbacks --
    exactly the invariant the fast path's ``peek()`` reasoning relies on
    (nothing in the world changes between scheduler events).
    """
    env = Environment()
    radio = StubRadio(env)
    nav = Nav(env)
    cls = ReferenceContender if reference else Contender
    contender = cls(env, radio, nav, random.Random(seed), params)

    for at, dur in busy_pulses:
        def make(d):
            def cb(_ev):
                radio.busy_until = max(radio.busy_until, env.now + d)
            return cb
        env.timeout(at).callbacks.append(make(dur))
    for at, dur in nav_pulses:
        def make_nav(d):
            def cb(_ev):
                nav.set(d)
            return cb
        env.timeout(at).callbacks.append(make_nav(dur))
    for at in noise_times:
        env.timeout(at)  # no callbacks: only perturbs the peek() horizon

    wins = []

    def proc():
        for attempt in range(n_phases):
            yield from contender.contention_phase(attempt)
            wins.append(env.now)

    env.process(proc())
    env.run(until=100000)
    return wins, contender.rng.getstate(), radio.channel.counters.total, env._eid


pulse = st.tuples(
    st.integers(min_value=0, max_value=60),
    st.floats(min_value=0.5, max_value=12.0).map(lambda x: round(x * 2) / 2),
)


@settings(max_examples=60, deadline=None)
@given(
    busy_pulses=st.lists(pulse, max_size=6),
    nav_pulses=st.lists(pulse, max_size=4),
    noise_times=st.lists(st.integers(min_value=0, max_value=80), max_size=8),
    difs=st.integers(min_value=1, max_value=3),
    cw_min=st.sampled_from([1, 2, 8, 16]),
    resume=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_phases=st.integers(min_value=1, max_value=3),
)
def test_fast_path_matches_reference_machine(
    busy_pulses, nav_pulses, noise_times, difs, cw_min, resume, seed, n_phases
):
    params = ContentionParams(
        difs_slots=difs, cw_min=cw_min, cw_max=256, resume_backoff=resume
    )
    fast = build_world(
        busy_pulses, nav_pulses, noise_times,
        reference=False, params=params, seed=seed, n_phases=n_phases,
    )
    ref = build_world(
        busy_pulses, nav_pulses, noise_times,
        reference=True, params=params, seed=seed, n_phases=n_phases,
    )
    # Identical win times (transmit instants) and phase counts.
    assert fast[0] == ref[0]
    # Identical RNG state: same number of draws in the same order, so the
    # backoff residues along the way were identical too.
    assert fast[1] == ref[1]
    assert fast[2] == ref[2]
    # The whole point: the fast machine never schedules more events.
    assert fast[3] <= ref[3]


def test_fast_path_skips_events_on_idle_medium():
    """On a silent medium a whole phase costs O(1) events, not O(backoff)."""
    params = ContentionParams(difs_slots=2, cw_min=256, cw_max=256)
    fast = build_world([], [], [], reference=False, params=params, seed=7, n_phases=1)
    ref = build_world([], [], [], reference=True, params=params, seed=7, n_phases=1)
    assert fast[0] == ref[0]
    assert fast[3] < ref[3] / 10  # ~257 per-slot events collapse to a handful


# --------------------------------------------------------------------------
# N contenders on one medium: the commit-horizon regime
# --------------------------------------------------------------------------


def build_contended_world(
    n_contenders, busy_pulses, noise_times, *, reference, params, seed, n_phases, tx_dur
):
    """Run *n_contenders* stations through *n_phases* phases each on one
    shared medium.

    All contenders share a single radio/NAV (the medium), so every win
    occupies the channel for *tx_dur* slots and freezes everyone else --
    including simultaneous winners, whose transmissions simply overlap
    (the RTS-collision case).  Returns the globally ordered win log
    ``[(time, node), ...]`` -- its order *is* the same-instant commit
    order -- plus per-node RNG states, the shared counters and the
    kernel's event count.
    """
    env = Environment()
    radio = StubRadio(env)
    nav = Nav(env)
    cls = ReferenceContender if reference else Contender
    contenders = [
        cls(env, radio, nav, random.Random(seed * 1000003 + i), params)
        for i in range(n_contenders)
    ]

    for at, dur in busy_pulses:
        def make(d):
            def cb(_ev):
                radio.busy_until = max(radio.busy_until, env.now + d)
            return cb
        env.timeout(at).callbacks.append(make(dur))
    for at in noise_times:
        env.timeout(at)

    wins = []

    def proc(i, contender):
        for attempt in range(n_phases):
            yield from contender.contention_phase(attempt)
            wins.append((env.now, i))
            # Transmit: occupy the shared medium.  Overlapping winners
            # overlap on the air, exactly like colliding RTS frames.
            radio.busy_until = max(radio.busy_until, env.now + tx_dur)
            yield env.timeout(tx_dur)

    for i, contender in enumerate(contenders):
        env.process(proc(i, contender))
    env.run(until=500000)
    return (
        wins,
        [c.rng.getstate() for c in contenders],
        radio.channel.counters.total,
        env._eid,
    )


@settings(max_examples=40, deadline=None)
@given(
    n_contenders=st.integers(min_value=2, max_value=6),
    busy_pulses=st.lists(pulse, max_size=4),
    noise_times=st.lists(st.integers(min_value=0, max_value=80), max_size=6),
    difs=st.integers(min_value=1, max_value=3),
    cw_min=st.sampled_from([1, 2, 8, 16, 64]),
    resume=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_phases=st.integers(min_value=1, max_value=3),
    tx_dur=st.integers(min_value=1, max_value=8),
)
def test_n_contender_matches_reference_machine(
    n_contenders, busy_pulses, noise_times, difs, cw_min, resume, seed, n_phases, tx_dur
):
    """The tentpole equivalence: arbitrary N-contender interference
    patterns grant at identical instants, commit in the identical
    same-instant order (the win log is order-sensitive), and consume
    per-node RNG identically -- while never scheduling more events than
    per-slot lockstep."""
    params = ContentionParams(
        difs_slots=difs, cw_min=cw_min, cw_max=256, resume_backoff=resume
    )
    kwargs = dict(params=params, seed=seed, n_phases=n_phases, tx_dur=tx_dur)
    fast = build_contended_world(
        n_contenders, busy_pulses, noise_times, reference=False, **kwargs
    )
    ref = build_contended_world(
        n_contenders, busy_pulses, noise_times, reference=True, **kwargs
    )
    assert fast[0] == ref[0]  # grant times AND same-instant commit order
    assert fast[1] == ref[1]  # per-node RNG consumption
    assert fast[2] == ref[2]
    assert fast[3] <= ref[3]


def test_two_contenders_same_instant_collision():
    """The adversarial ordering case: CW=1 makes both backoffs zero, so
    both stations' counters expire together and both must transmit at the
    same instant (colliding), in rank order -- under the horizon fast
    path exactly as under lockstep."""
    params = ContentionParams(difs_slots=2, cw_min=1, cw_max=1)
    kwargs = dict(params=params, seed=3, n_phases=1, tx_dur=4)
    fast = build_contended_world(2, [], [], reference=False, **kwargs)
    ref = build_contended_world(2, [], [], reference=True, **kwargs)
    # Both commit at the first eligible boundary, node 0 first (rank order).
    assert fast[0] == ref[0] == [(3.0, 0), (3.0, 1)]
    assert fast[1] == ref[1]
    assert fast[3] <= ref[3]


def test_dense_contention_event_count_sublinear():
    """Kernel events under dense concurrent contention scale with commits
    and busy transitions, not with slots: widening CW 4x (4x the idle
    slots burned per phase) must leave the fast machine's event count
    nearly flat while lockstep's grows with CW."""
    def world(cw, reference):
        params = ContentionParams(difs_slots=2, cw_min=cw, cw_max=cw)
        return build_contended_world(
            8, [], [], reference=reference,
            params=params, seed=11, n_phases=2, tx_dur=4,
        )

    fast_narrow, fast_wide = world(128, False), world(512, False)
    ref_narrow, ref_wide = world(128, True), world(512, True)
    assert fast_narrow[0] == ref_narrow[0]
    assert fast_wide[0] == ref_wide[0]
    # Lockstep pays per slot: 4x the window costs it ~4x the events.
    assert ref_wide[3] > 2 * ref_narrow[3]
    # The horizon fast path pays per commit: same commits, ~same events.
    assert fast_wide[3] < 1.5 * fast_narrow[3]
    # And it beats lockstep outright in the dense regime.
    assert fast_wide[3] < ref_wide[3] / 5


def test_full_simulation_matches_reference_machine(monkeypatch):
    """End-to-end pin: an entire LAMM campaign driven by the per-slot
    reference machine is metric- and counter-identical to the commit
    -horizon fast path -- every grant time, every channel RNG draw, every
    collision lands the same."""
    from repro.experiments.config import SimulationSettings
    from repro.experiments.runner import run_once
    from repro.experiments.scenario import Scenario

    sc = Scenario(
        settings=SimulationSettings(n_nodes=25, horizon=2000, message_rate=0.002),
        protocols="LAMM",
        seeds=1,
    )
    fast = run_once(sc)
    monkeypatch.setattr(
        Contender, "contention_phase", ReferenceContender.contention_phase
    )
    ref = run_once(sc)
    assert fast.counters == ref.counters
    assert (fast.n_successful, fast.n_completed, fast.n_timed_out) == (
        ref.n_successful, ref.n_completed, ref.n_timed_out
    )
    # msg_ids come from a process-global counter, so the second run's are
    # offset; everything else must match exactly.
    def strip_ids(scores):
        return [dataclasses.replace(s, msg_id=-1) for s in scores]

    assert strip_ids(fast.group_scores) == strip_ids(ref.group_scores)

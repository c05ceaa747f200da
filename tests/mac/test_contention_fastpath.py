"""Side-by-side property tests for the idle-slot-skipping contention phase.

The fast path in :meth:`Contender.contention_phase` sleeps through an
idle run in one ranked wait, which a medium writer (a transmission
or ``Nav.set``) pulls earlier through the contender's poke, instead of
stepping once per slot.  ``Nav.clear`` pokes nobody, and the NAV-clear
pulses below check that it need not.  These tests drive random busy/idle
patterns through the fast machine and through a literal copy of the
pre-fast-path per-slot machine (:class:`ReferenceContender` below),
asserting the observable outcomes are identical: the same win times, the
same RNG state after every draw (i.e. identical draw count and order),
and the same phase counters -- while the fast machine schedules no more
events than the reference.
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
    """Carrier-sense state only -- what the contention machine reads.

    Raising :attr:`busy_until` calls the waiters, as
    :meth:`Channel.transmit` does, so the stub worlds change the medium
    through the same poke path as the real channel.
    """

    def __init__(self, env, node_id=0):
        self.env = env
        self.node_id = node_id
        self._busy_until = env.now
        self.waiters = []
        self.channel = StubChannel()

    @property
    def busy_until(self):
        return self._busy_until

    @busy_until.setter
    def busy_until(self, value):
        raised = value > self._busy_until
        self._busy_until = value
        if raised:
            for poke in self.waiters:
                poke()


class ReferenceContender(Contender):
    """The per-slot reference contention machine.

    A literal copy of the pre-fast-path loop -- one kernel event per
    DIFS/backoff slot, no waiters, no batching -- except that its
    mid-slot sample waits carry the contender's rank, exactly like the
    fast machine's.  That shares the
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
        rank = self._rank

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
                    yield env.timeout(self._next_sample_point(), rank=rank)
                else:
                    idle_run += 1
                    yield env.timeout(1.0, rank=rank)

            # -- backoff countdown, frozen by activity ---------------------
            frozen = False
            while backoff > 0:
                if self._slot_was_busy():
                    frozen = True
                    break
                backoff -= 1
                yield env.timeout(1.0, rank=rank)
            if frozen:
                continue

            if self._slot_was_busy():
                # Counter reached zero during a busy slot: defer.
                continue

            yield env.timeout(0.5)
            assert env.now - started >= 0
            return


def script_medium(env, radio, nav, busy_pulses=(), nav_pulses=(), clear_times=(), noise_times=()):
    """Schedule the scripted medium changes, each inside an event callback
    and through the same writers the real channel and NAV use (so they
    poke the waiting contenders)."""
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
    for at in clear_times:
        env.timeout(at).callbacks.append(lambda _ev: nav.clear())
    for at in noise_times:
        env.timeout(at)  # no callbacks: an event that changes nothing


def build_world(
    busy_pulses, nav_pulses, noise_times, clear_times=(), *, reference, params, seed, n_phases
):
    """Run *n_phases* contention phases under a scripted medium."""
    env = Environment()
    radio = StubRadio(env)
    nav = Nav(env)
    cls = ReferenceContender if reference else Contender
    contender = cls(env, radio, nav, random.Random(seed), params)
    script_medium(env, radio, nav, busy_pulses, nav_pulses, clear_times, noise_times)

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
    clear_times=st.lists(st.integers(min_value=0, max_value=80), max_size=4),
    difs=st.integers(min_value=1, max_value=3),
    cw_min=st.sampled_from([1, 2, 8, 16]),
    resume=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_phases=st.integers(min_value=1, max_value=3),
)
def test_fast_path_matches_reference_machine(
    busy_pulses, nav_pulses, noise_times, clear_times, difs, cw_min, resume, seed, n_phases
):
    params = ContentionParams(
        difs_slots=difs, cw_min=cw_min, cw_max=256, resume_backoff=resume
    )
    fast = build_world(
        busy_pulses, nav_pulses, noise_times, clear_times,
        reference=False, params=params, seed=seed, n_phases=n_phases,
    )
    ref = build_world(
        busy_pulses, nav_pulses, noise_times, clear_times,
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
# N contenders on one medium
# --------------------------------------------------------------------------


def build_contended_world(
    n_contenders, busy_pulses, noise_times, nav_pulses=(), clear_times=(), *,
    reference, params, seed, n_phases, tx_dur,
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
    script_medium(env, radio, nav, busy_pulses, nav_pulses, clear_times, noise_times)

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
    nav_pulses=st.lists(pulse, max_size=3),
    clear_times=st.lists(st.integers(min_value=0, max_value=80), max_size=3),
    difs=st.integers(min_value=1, max_value=3),
    cw_min=st.sampled_from([1, 2, 8, 16, 64]),
    resume=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_phases=st.integers(min_value=1, max_value=3),
    tx_dur=st.integers(min_value=1, max_value=8),
)
def test_n_contender_matches_reference_machine(
    n_contenders, busy_pulses, noise_times, nav_pulses, clear_times,
    difs, cw_min, resume, seed, n_phases, tx_dur,
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
    world = (n_contenders, busy_pulses, noise_times, nav_pulses, clear_times)
    fast = build_contended_world(*world, reference=False, **kwargs)
    ref = build_contended_world(*world, reference=True, **kwargs)
    assert fast[0] == ref[0]  # grant times AND same-instant commit order
    assert fast[1] == ref[1]  # per-node RNG consumption
    assert fast[2] == ref[2]
    assert fast[3] <= ref[3]


def test_two_contenders_same_instant_collision():
    """The adversarial ordering case: CW=1 makes both backoffs zero, so
    both stations' counters expire together and both must transmit at the
    same instant (colliding), in rank order -- under the waiter fast
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
    # The fast path pays per commit: same commits, ~same events.
    assert fast_wide[3] < 1.5 * fast_narrow[3]
    # And it beats lockstep outright in the dense regime.
    assert fast_wide[3] < ref_wide[3] / 5


def test_full_simulation_matches_reference_machine(monkeypatch):
    """End-to-end pin: an entire LAMM campaign driven by the per-slot
    reference machine is metric- and counter-identical to the fast path
    -- every grant time, every channel RNG draw, every collision lands
    the same."""
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


# --------------------------------------------------------------------------
# Two contenders on one radio and NAV: a MAC plus its beacon service
# --------------------------------------------------------------------------


def build_shared_radio_world(
    busy_pulses, nav_pulses, clear_times, *, reference, params, seed, n_phases, tx_dur, period
):
    """A data contender and a beacon contender on the *same* radio and NAV
    (the shape of :class:`repro.mac.beacons.BeaconService` next to its
    MAC): each one's transmission is a write the other must hear, and
    both re-check that the radio is not already transmitting after a
    win.  Returns the win log, both RNG states, the counters and the
    kernel's event count."""
    env = Environment()
    radio = StubRadio(env)
    nav = Nav(env)
    cls = ReferenceContender if reference else Contender
    data = cls(env, radio, nav, random.Random(seed), params)
    beacon = cls(env, radio, nav, random.Random(seed ^ 0x5BD1E995), params)
    script_medium(env, radio, nav, busy_pulses, nav_pulses, clear_times)
    tx_until = [0.0]
    wins = []

    def transmit(airtime):
        if tx_until[0] <= env.now:
            tx_until[0] = env.now + airtime
            radio.busy_until = max(radio.busy_until, tx_until[0])

    def data_proc():
        for attempt in range(n_phases):
            yield from data.contention_phase(attempt)
            wins.append((env.now, "data"))
            transmit(tx_dur)
            yield env.timeout(tx_dur)

    def beacon_proc():
        yield env.timeout(period // 2)
        for _ in range(n_phases):
            yield from beacon.contention_phase()
            wins.append((env.now, "beacon"))
            transmit(1)
            yield env.timeout(period)

    env.process(data_proc())
    env.process(beacon_proc())
    env.run(until=500000)
    return (
        wins,
        [data.rng.getstate(), beacon.rng.getstate()],
        radio.channel.counters.total,
        env._eid,
    )


@settings(max_examples=40, deadline=None)
@given(
    busy_pulses=st.lists(pulse, max_size=4),
    nav_pulses=st.lists(pulse, max_size=3),
    clear_times=st.lists(st.integers(min_value=0, max_value=80), max_size=3),
    difs=st.integers(min_value=1, max_value=3),
    cw_min=st.sampled_from([1, 2, 8, 16, 64]),
    resume=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_phases=st.integers(min_value=1, max_value=4),
    tx_dur=st.integers(min_value=1, max_value=8),
    period=st.integers(min_value=2, max_value=40),
)
def test_mac_and_beacon_contenders_on_one_radio_match_reference(
    busy_pulses, nav_pulses, clear_times, difs, cw_min, resume, seed, n_phases, tx_dur, period
):
    """Two waiters on one radio and one NAV: every write pokes both."""
    params = ContentionParams(
        difs_slots=difs, cw_min=cw_min, cw_max=256, resume_backoff=resume
    )
    world = (busy_pulses, nav_pulses, clear_times)
    kwargs = dict(params=params, seed=seed, n_phases=n_phases, tx_dur=tx_dur, period=period)
    fast = build_shared_radio_world(*world, reference=False, **kwargs)
    ref = build_shared_radio_world(*world, reference=True, **kwargs)
    assert fast[0] == ref[0]
    assert fast[1] == ref[1]
    assert fast[2] == ref[2]
    assert fast[3] <= ref[3]


def _network_outcome(net, air, reqs):
    """What a whole-network run produced: every frame on the air (sender,
    type, start, end), the counters and each request's outcome."""
    return (
        [(t.sender, t.frame.ftype, t.start, t.end) for t in air()],
        dict(net.channel.finalize_counters().total),
        [(r.status, r.contention_phases, r.service_start, r.finish_time) for r in reqs],
    )


def test_full_simulation_lacs_matches_reference_machine(monkeypatch):
    """LACS overrides read a busy medium as idle, and that verdict also
    changes when frames end, which no writer reports; the fast machine
    steps one sample at a time while an override is in force.  Pinned on
    the exposed-terminal topology, where overrides do happen."""
    import numpy as np

    from repro.mac.base import MessageKind
    from repro.protocols.lacs import LacsMulticastMac
    from repro.sim.network import Network
    from tests.conftest import air_log

    # A -> B and C -> D, with A and C in range of each other only.
    positions = np.array([[0.30, 0.5], [0.12, 0.5], [0.45, 0.5], [0.63, 0.5]])

    def run():
        net = Network(positions, 0.2, LacsMulticastMac, seed=1)
        air = air_log(net.env)
        reqs = [
            net.mac(src).submit(MessageKind.MULTICAST, frozenset({dst}), timeout=800)
            for src, dst in ((0, 1), (2, 3)) for _ in range(8)
        ]
        net.run(until=1000)
        overrides = [net.mac(i).contender.overrides for i in range(4)]
        return _network_outcome(net, air, reqs), overrides

    fast, fast_overrides = run()
    monkeypatch.setattr(Contender, "contention_phase", ReferenceContender.contention_phase)
    ref, ref_overrides = run()
    assert sum(fast_overrides) > 0
    assert fast_overrides == ref_overrides
    assert fast == ref


def test_full_simulation_with_beacons_matches_reference_machine(monkeypatch):
    """Every node runs a MAC contender and a beacon contender on one radio
    and NAV, under random multicast traffic."""
    import numpy as np

    from repro.core.bmmm import BmmmMac
    from repro.mac.beacons import BeaconConfig
    from repro.sim.network import Network
    from repro.workload.generator import TrafficGenerator
    from tests.conftest import air_log

    def run():
        positions = np.random.default_rng(4).random((20, 2))
        net = Network(
            positions, 0.3, BmmmMac, seed=4,
            beacons=BeaconConfig(period=50, jitter=5, lifetime=200),
        )
        air = air_log(net.env)
        gen = TrafficGenerator(
            20, net.propagation.neighbors, horizon=1500, message_rate=0.003, seed=4
        )
        reqs = gen.inject(net)
        net.run(until=1500)
        return _network_outcome(net, air, reqs)

    fast = run()
    monkeypatch.setattr(Contender, "contention_phase", ReferenceContender.contention_phase)
    ref = run()
    assert any(ftype.name == "BEACON" for _s, ftype, _a, _b in fast[0])
    assert fast == ref


def test_wake_budget_per_phase(monkeypatch):
    """A contender wakes for its medium's changes, not for every event in
    the network: in a sparse CW=1024 BMW run at n=50 a phase costs at most
    5 generator resumes (the first start included).  Cutting each idle
    sleep short at the next event anywhere costs about 14.5 here."""
    from repro.experiments.config import SimulationSettings
    from repro.experiments.runner import run_once
    from repro.experiments.scenario import Scenario

    counts = {"phases": 0, "resumes": 0}
    phase = Contender.contention_phase

    def counted(self, attempt=0):
        counts["phases"] += 1
        gen = phase(self, attempt)
        counts["resumes"] += 1
        try:
            event = next(gen)
            while True:
                value = yield event
                counts["resumes"] += 1
                event = gen.send(value)
        except StopIteration as stop:
            return stop.value

    monkeypatch.setattr(Contender, "contention_phase", counted)
    settings = SimulationSettings(
        n_nodes=50, horizon=20_000, message_rate=0.0002,
        contention=ContentionParams(cw_min=1024, cw_max=1024),
    )
    run_once(Scenario(settings=settings, protocols="BMW", seeds=1))
    assert counts["phases"] > 100
    assert counts["resumes"] <= 5 * counts["phases"]

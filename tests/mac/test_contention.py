"""Tests for the CSMA/CA contention machine."""

import random

import numpy as np
import pytest

from repro.mac.contention import Contender, ContentionParams
from repro.mac.nav import Nav
from repro.phy.propagation import UnitDiskPropagation
from repro.sim.channel import Channel
from repro.sim.frames import Frame, FrameType
from repro.sim.kernel import Environment


def setup(n_nodes=2, params=None, spacing=0.05):
    env = Environment()
    pos = np.array([[0.1 + spacing * i, 0.5] for i in range(n_nodes)])
    prop = UnitDiskPropagation(pos, 0.2)
    ch = Channel(env, prop)
    radios = [ch.attach(i) for i in range(n_nodes)]
    contenders = [
        Contender(env, r, Nav(env), random.Random(f"t:{i}"), params) for i, r in enumerate(radios)
    ]
    return env, ch, radios, contenders


class TestContentionParams:
    def test_defaults_valid(self):
        p = ContentionParams()
        assert p.difs_slots >= 2

    def test_binary_exponential_backoff(self):
        p = ContentionParams(cw_min=16, cw_max=256)
        assert p.window(0) == 16
        assert p.window(1) == 32
        assert p.window(4) == 256
        assert p.window(10) == 256  # capped

    def test_validation(self):
        with pytest.raises(ValueError):
            ContentionParams(difs_slots=0)
        with pytest.raises(ValueError):
            ContentionParams(cw_min=10, cw_max=5)
        with pytest.raises(ValueError):
            ContentionParams().window(-1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("difs_slots", float("nan")),
            ("difs_slots", float("inf")),
            ("difs_slots", 2.5),
            ("difs_slots", 2.0),
            ("difs_slots", True),
            ("cw_min", 15.5),
            ("cw_min", True),
            ("cw_max", 256.0),
            ("cw_max", float("inf")),
            ("cw_max", "256"),
        ],
    )
    def test_slot_counts_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=field):
            ContentionParams(**{field: value})

    def test_integer_like_slot_counts_are_accepted(self):
        p = ContentionParams(difs_slots=np.int64(3), cw_min=np.int32(8), cw_max=64)
        assert p.window(1) == 16


class TestContentionPhase:
    def test_idle_medium_grants_access_after_difs_plus_backoff(self):
        params = ContentionParams(difs_slots=2, cw_min=1)  # backoff always 0
        env, ch, radios, cont = setup(params=params)
        done = []

        def proc():
            yield from cont[0].contention_phase()
            done.append(env.now)

        env.process(proc())
        env.run(until=50)
        assert len(done) == 1
        t = done[0]
        assert t == int(t), "access granted on a slot boundary"
        assert 2 <= t <= 4  # DIFS (2 idle slots) + alignment

    def test_counts_phases(self):
        params = ContentionParams(cw_min=1)
        env, ch, radios, cont = setup(params=params)

        def proc():
            yield from cont[0].contention_phase()
            yield from cont[0].contention_phase()

        env.process(proc())
        env.run(until=50)
        assert ch.counters.get("contention_phases", node=0) == 2

    def test_waits_for_busy_medium(self):
        params = ContentionParams(difs_slots=2, cw_min=1)
        env, ch, radios, cont = setup(params=params)
        done = []

        # Node 1 occupies the medium with DATA [0, 5).
        ch.transmit(radios[1], Frame(FrameType.DATA, src=1, ra=-1, group=frozenset({0})))

        def proc():
            yield from cont[0].contention_phase()
            done.append(env.now)

        env.process(proc())
        env.run(until=50)
        # Must wait for the frame end (5) + DIFS (2 idle slots) at least.
        assert done and done[0] >= 7

    def test_nav_defers_access(self):
        params = ContentionParams(difs_slots=2, cw_min=1)
        env, ch, radios, cont = setup(params=params)
        cont[0].nav.set(20)
        done = []

        def proc():
            yield from cont[0].contention_phase()
            done.append(env.now)

        env.process(proc())
        env.run(until=100)
        assert done and done[0] >= 22

    def test_two_stations_same_backoff_collide(self):
        """Stations whose backoff expires in the same slot must both
        transmit (this is where RTS collisions come from)."""
        params = ContentionParams(difs_slots=2, cw_min=1)  # both draw 0
        env, ch, radios, cont = setup(n_nodes=3, params=params)
        tx_times = []

        def proc(i):
            yield from cont[i].contention_phase()
            tx_times.append((env.now, i))
            ch.transmit(radios[i], Frame(FrameType.RTS, src=i, ra=2))

        env.process(proc(0))
        env.process(proc(1))
        env.run(until=50)
        assert len(tx_times) == 2
        assert tx_times[0][0] == tx_times[1][0], "same-slot access -> collision"
        assert ch.finalize_counters().get("collisions") > 0

    def test_different_backoffs_serialize(self):
        """The loser of the backoff race freezes and transmits later."""
        params = ContentionParams(difs_slots=2, cw_min=64)
        env, ch, radios, cont = setup(n_nodes=2, params=params)
        order = []

        def proc(i):
            yield from cont[i].contention_phase()
            order.append((env.now, i))
            ch.transmit(radios[i], Frame(FrameType.RTS, src=i, ra=1 - i))

        env.process(proc(0))
        env.process(proc(1))
        env.run(until=300)
        assert len(order) == 2
        t0, t1 = order[0][0], order[1][0]
        if t0 != t1:  # distinct draws (true for this seed)
            # Second access must come at least 1 frame + DIFS later.
            assert t1 >= t0 + 1 + 2
            assert ch.finalize_counters().get("collisions") == 0

    def test_backoff_resumes_after_freeze(self):
        """With resume_backoff, the counter is not redrawn after a freeze:
        total idle slots consumed equals DIFS-runs + the original draw."""
        params = ContentionParams(difs_slots=2, cw_min=8, resume_backoff=True)
        env, ch, radios, cont = setup(params=params)
        done = []

        # Occupy the medium twice to force freezes.
        ch.transmit(radios[1], Frame(FrameType.RTS, src=1, ra=0))
        env.timeout(6).callbacks.append(
            lambda _e: ch.transmit(radios[1], Frame(FrameType.RTS, src=1, ra=0))
        )

        def proc():
            yield from cont[0].contention_phase()
            done.append(env.now)

        env.process(proc())
        env.run(until=100)
        assert done  # completes despite interruptions

    def test_attempt_widens_window(self):
        """Higher attempts draw from a larger window on average."""
        early, late = [], []
        for seed in range(40):
            for attempt, sink in ((0, early), (5, late)):
                env = Environment()
                pos = np.array([[0.5, 0.5]])
                ch = Channel(env, UnitDiskPropagation(pos, 0.2))
                c = Contender(
                    env,
                    ch.attach(0),
                    Nav(env),
                    random.Random(seed),
                    ContentionParams(cw_min=4, cw_max=1024),
                )

                def proc(c=c, sink=sink):
                    yield from c.contention_phase(attempt)
                    sink.append(env.now)

                env.process(proc())
                env.run(until=5000)
        assert sum(late) / len(late) > sum(early) / len(early)

"""Tests pinning the kernel's one heap: ``__slots__`` on the whole event
hierarchy, ranked sample wake-ups moved in place by ``expedite_sample``,
and the inlined ``run()`` dispatch loop staying equivalent to dispatching
one event at a time with the reference :func:`step` below."""

from __future__ import annotations

from heapq import heappop

import pytest

from repro.sim.kernel import (
    Environment,
    Event,
    Process,
    Timeout,
)


def step(env: Environment) -> None:
    """Dispatch the single next event of *env*, the way ``Environment.run``
    does once per loop iteration."""
    # Ordinary events (rank 0) win same-(time, priority) ties over samples.
    entry = heappop(env._queue)
    when = entry[0]
    event = entry[-1]
    if when < env._now:
        raise RuntimeError("event scheduled in the past")
    env._now = when
    event._run_callbacks()
    if env._unhandled is not None:
        exc, env._unhandled = env._unhandled, None
        raise exc


def next_time(env: Environment) -> float:
    """Time of the next event (``inf`` when the heap is empty)."""
    return env._queue[0][0] if env._queue else float("inf")


class TestOneTimeout:
    """``Environment.timeout`` is the only timeout constructor, ranked or
    not; these pin what the retired pooled ``sleep`` path used to cover."""

    def test_ranked_timeout_delivers_its_value_at_the_right_time(self):
        env = Environment()
        log = []

        def proc():
            yield env.timeout(3, rank=1)
            log.append(env.now)
            value = yield env.timeout(2.5, rank=2)
            log.append((env.now, value))
            value = yield env.timeout(1, "v", rank=1)
            log.append((env.now, value))

        env.process(proc())
        env.run()
        assert log == [3, (5.5, None), (6.5, "v")]

    @pytest.mark.parametrize("rank", [0, 1, 7])
    def test_negative_or_nan_delay_rejected_at_every_rank(self, rank):
        env = Environment()
        for delay in (-1, -1e-9, float("nan")):
            with pytest.raises(ValueError):
                env.timeout(delay, rank=rank)
        # A refused timeout schedules nothing and takes no event id.
        assert env._queue == []
        assert env._eid == 0

    def test_a_fired_timeout_is_never_reused(self):
        env = Environment()
        held = []

        def proc():
            for i in range(5):
                t = env.timeout(1, value=i, rank=i % 2)
                held.append(t)
                yield t

        env.process(proc())
        env.run()
        # Every wait was its own object, and each keeps its state after
        # firing: a reference held past dispatch never sees a later wait.
        assert len({id(t) for t in held}) == 5
        assert [t._value for t in held] == [0, 1, 2, 3, 4]
        assert all(t.processed and t.delay == 1 for t in held)
        fresh = env.timeout(4)
        assert all(fresh is not t for t in held)
        assert fresh.callbacks == [] and fresh._exception is None
        assert fresh.defused is False

    def test_run_until_leaves_ranked_events_at_the_boundary(self):
        env = Environment()
        fired = []
        for rank in (0, 2, 1):
            env.timeout(5, rank=rank).callbacks.append(
                lambda _e, rank=rank: fired.append((env.now, rank))
            )
        env.run(until=5)
        assert fired == []
        assert env.now == 5
        env.run()
        assert fired == [(5, 0), (5, 1), (5, 2)]


class TestSlots:
    def test_event_hierarchy_has_no_instance_dict(self):
        env = Environment()

        def gen():
            yield env.timeout(1)

        instances = [
            Event(env),
            env.timeout(1),
            env.timeout(1, rank=1),
            Process(env, gen()),
        ]
        for obj in instances:
            assert not hasattr(obj, "__dict__"), type(obj).__name__
        for cls in (Event, Timeout, Process):
            assert "__slots__" in vars(cls), cls.__name__
        env.run()


class TestRunLoopEquivalence:
    @staticmethod
    def scenario(env, log):
        def worker(tag, delay):
            for i in range(3):
                yield env.timeout(delay)
                log.append((env.now, tag, i))

        def sampler(rank):
            # Ranked wake-ups tie with worker "a" at t=2, 4 and 6.
            for i in range(3):
                yield env.timeout(2, rank=rank)
                log.append((env.now, "sampler", rank, i))

        def failer():
            yield env.timeout(7)
            log.append((env.now, "failer", -1))

        def waiter(ev):
            value = yield ev
            log.append((env.now, "event", value))

        env.process(worker("a", 2))
        env.process(sampler(2))
        env.process(sampler(1))
        env.process(worker("b", 3.5))
        env.process(failer())
        ev = env.event()
        env.timeout(5).callbacks.append(lambda _e: ev.succeed("five"))
        env.process(waiter(ev))

    def test_run_matches_manual_stepping(self):
        env_a = Environment()
        log_a = []
        self.scenario(env_a, log_a)
        env_a.run(until=9)

        env_b = Environment()
        log_b = []
        self.scenario(env_b, log_b)
        while next_time(env_b) < 9:
            step(env_b)
        env_b._now = 9

        assert log_a == log_b
        assert log_a.index((2, "a", 0)) < log_a.index((2, "sampler", 1, 0))
        assert log_a.index((2, "sampler", 1, 0)) < log_a.index((2, "sampler", 2, 0))
        assert env_a.now == env_b.now == 9
        assert env_a._eid == env_b._eid


class TestExpediteSample:
    def test_moved_wake_fires_earlier_as_the_same_event(self):
        env = Environment()
        log = []

        def proc():
            wake = env.timeout(10, rank=1)
            env.timeout(3).callbacks.append(lambda _e: env.expedite_sample(wake, 0.5))
            got = yield wake
            log.append((env.now, got))

        env.process(proc())
        env.run()
        assert log == [(3.5, None)]
        # One event, re-keyed in place: no new id, no stale entry left.
        assert env._eid == 4  # process start, the wake, the timeout, process exit
        assert env._queue == []

    def test_heap_order_survives_moves(self):
        env = Environment()
        fired = []
        wakes = {}
        for rank, delay in enumerate([9.5, 4.5, 7.5, 12.5, 6.5, 10.5, 8.5], start=1):
            wake = env.timeout(delay, rank=rank)
            wake.callbacks.append(lambda _e, rank=rank: fired.append((env.now, rank)))
            wakes[rank] = wake
        env.expedite_sample(wakes[4], 5.5)
        env.expedite_sample(wakes[6], 0.5)
        env.expedite_sample(wakes[1], 4.5)  # ties with rank 2: rank decides
        env.run()
        assert fired == [
            (0.5, 6), (4.5, 1), (4.5, 2), (5.5, 4), (6.5, 5), (7.5, 3), (8.5, 7)
        ]

    def test_later_instant_and_non_pending_wakes_are_rejected(self):
        env = Environment()
        wake = env.timeout(2, rank=1)
        with pytest.raises(ValueError):
            env.expedite_sample(wake, 3)
        with pytest.raises(ValueError):
            env.expedite_sample(wake, -1)
        with pytest.raises(RuntimeError):
            env.expedite_sample(env.timeout(1), 0.5)  # rank 0: not a sample
        env.run()
        with pytest.raises(RuntimeError):
            env.expedite_sample(wake, 0)  # already fired

"""Tests pinning the kernel allocation diet: pooled ``sleep`` timeouts,
``__slots__`` on the whole event hierarchy, and the inlined ``run()``
dispatch loop staying equivalent to dispatching one event at a time with
the reference :func:`step` below."""

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
    queue = env._queue
    squeue = env._sample_queue
    # Cross-lane ties at equal (time, priority) go to the main queue.
    if squeue and (not queue or (squeue[0][0], squeue[0][1]) < (queue[0][0], queue[0][1])):
        entry = heappop(squeue)
    else:
        entry = heappop(queue)
    when = entry[0]
    event = entry[-1]
    if when < env._now:
        raise RuntimeError("event scheduled in the past")
    env._now = when
    event._run_callbacks()
    if env._unhandled is not None:
        exc, env._unhandled = env._unhandled, None
        raise exc
    if type(event) is Timeout and event._recycle and len(env._timeout_pool) < env._POOL_MAX:
        env._timeout_pool.append(event)


def next_time(env: Environment) -> float:
    """Time of the next event in either lane (``inf`` when both are empty)."""
    heads = [lane[0][0] for lane in (env._queue, env._sample_queue) if lane]
    return min(heads, default=float("inf"))


class TestSleepPooling:
    def test_sleep_delivers_none_at_the_right_time(self):
        env = Environment()
        log = []

        def proc():
            yield env.sleep(3)
            log.append(env.now)
            value = yield env.sleep(2.5)
            log.append((env.now, value))

        env.process(proc())
        env.run()
        assert log == [3, (5.5, None)]

    def test_retired_sleep_timeout_is_reused(self):
        env = Environment()
        seen = []

        def proc():
            for _ in range(5):
                t = env.sleep(1)
                seen.append(id(t))
                yield t

        env.process(proc())
        env.run()
        # After the first sleep retires, the pool serves the same object.
        assert len(set(seen)) == 1 or len(set(seen)) < len(seen)
        assert len(env._timeout_pool) >= 1

    def test_recycled_timeout_state_is_reset(self):
        env = Environment()

        def proc():
            yield env.sleep(1)

        env.process(proc())
        env.run()
        assert env._timeout_pool
        t = env.sleep(4)
        assert t.callbacks == []
        assert t.delay == 4
        assert t._exception is None
        assert t.defused is False
        env.run()

    def test_plain_timeout_is_never_pooled(self):
        env = Environment()

        def proc():
            yield env.timeout(1)

        env.process(proc())
        env.run()
        assert env._timeout_pool == []

    def test_negative_delay_rejected_on_both_paths(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.sleep(-1)  # fresh-allocation path
        def proc():
            yield env.sleep(1)
        env.process(proc())
        env.run()
        assert env._timeout_pool
        with pytest.raises(ValueError):
            env.sleep(-1)  # pooled path

    def test_pool_is_bounded(self):
        env = Environment()

        def sleeper():
            yield env.sleep(1)

        # More simultaneous sleeps than _POOL_MAX; all retire at once.
        for _ in range(Environment._POOL_MAX + 50):
            env.process(sleeper())
        env.run()
        assert len(env._timeout_pool) == Environment._POOL_MAX


class TestSlots:
    def test_event_hierarchy_has_no_instance_dict(self):
        env = Environment()

        def gen():
            yield env.timeout(1)

        instances = [
            Event(env),
            Timeout(env, 1),
            env.sleep(1),
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
                yield env.sleep(delay)
                log.append((env.now, tag, i))

        def sampler(rank):
            # Sample-lane wake-ups tie with worker "a" at t=2, 4 and 6.
            for i in range(3):
                yield env.sample_sleep(2, rank)
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

    def test_run_until_event_still_works_with_pooling(self):
        # A process whose waits are all pooled still hands its return value
        # to a joiner.
        env = Environment()

        def proc():
            yield env.sleep(3)
            return "done"

        p = env.process(proc())
        got = []

        def joiner():
            got.append((yield p))

        env.process(joiner())
        env.run()
        assert got == ["done"]
        assert env.now == 3


class TestExpediteSample:
    def test_moved_wake_fires_earlier_as_the_same_event(self):
        env = Environment()
        log = []

        def proc():
            wake = env.sample_sleep(10, rank=1)
            env.timeout(3).callbacks.append(lambda _e: env.expedite_sample(wake, 0.5))
            got = yield wake
            log.append((env.now, got))

        env.process(proc())
        env.run()
        assert log == [(3.5, None)]
        # One event, re-keyed in place: no new id, no stale entry left.
        assert env._eid == 4  # process start, the wake, the timeout, process exit
        assert env._sample_queue == []

    def test_heap_order_survives_moves(self):
        env = Environment()
        fired = []
        wakes = {}
        for rank, delay in enumerate([9.5, 4.5, 7.5, 12.5, 6.5, 10.5, 8.5], start=1):
            wake = env.sample_sleep(delay, rank)
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
        wake = env.sample_sleep(2, rank=1)
        with pytest.raises(ValueError):
            env.expedite_sample(wake, 3)
        with pytest.raises(ValueError):
            env.expedite_sample(wake, -1)
        with pytest.raises(RuntimeError):
            env.expedite_sample(env.sleep(1), 0.5)  # main lane
        env.run()
        with pytest.raises(RuntimeError):
            env.expedite_sample(wake, 0)  # already fired

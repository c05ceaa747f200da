"""Unit tests for the discrete-event kernel (repro.sim.kernel)."""

import pytest

import repro.sim
import repro.sim.kernel
from repro.sim.kernel import (
    Environment,
    Event,
    PRIORITY_DELIVERY,
    PRIORITY_NORMAL,
    Process,
    Timeout,
)


class TestEnvironmentBasics:
    def test_initial_time_defaults_to_zero(self):
        assert Environment().now == 0

    def test_run_until_time_advances_clock(self):
        env = Environment()
        env.run(until=10)
        assert env.now == 10

    def test_run_until_past_time_raises(self):
        env = Environment()
        env.run(until=5)
        with pytest.raises(ValueError):
            env.run(until=3)

    def test_run_with_no_events_returns_none(self):
        assert Environment().run(until=1) is None

    def test_run_until_nan_raises(self):
        env = Environment()
        fired = []
        env.timeout(3).callbacks.append(lambda _e: fired.append(env.now))
        with pytest.raises(ValueError):
            env.run(until=float("nan"))
        assert env.now == 0 and fired == []
        env.run()
        assert fired == [3] and env.now == 3


class TestTimeout:
    def test_timeout_fires_at_correct_time(self):
        env = Environment()
        times = []

        def proc():
            yield env.timeout(3)
            times.append(env.now)
            yield env.timeout(4)
            times.append(env.now)

        env.process(proc())
        env.run()
        assert times == [3, 7]

    def test_timeout_value_is_delivered(self):
        env = Environment()
        got = []

        def proc():
            got.append((yield env.timeout(1, value="hello")))

        env.process(proc())
        env.run()
        assert got == ["hello"]

    def test_zero_delay_timeout_fires_at_current_time(self):
        env = Environment()
        times = []

        def proc():
            yield env.timeout(0)
            times.append(env.now)

        env.process(proc())
        env.run()
        assert times == [0]

    def test_negative_delay_raises(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.timeout(-1)

    def test_nan_delay_raises_and_clock_stays_monotone(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.timeout(float("nan"))
        with pytest.raises(ValueError):
            env.timeout(float("nan"), priority=PRIORITY_DELIVERY)
        with pytest.raises(ValueError):
            env.timeout(float("nan"), rank=1)
        seen = []

        def proc():
            yield env.timeout(3)
            seen.append(env.now)
            with pytest.raises(ValueError):
                env.timeout(float("nan"))  # after events have been dispatched
            yield env.timeout(1)
            seen.append(env.now)

        env.process(proc())
        env.timeout(1)  # dispatched at t=1
        env.run()
        assert seen == [3, 4] and env.now == 4

    def test_run_until_time_does_not_execute_boundary_events(self):
        # Mirroring SimPy: run(until=t) stops before events at exactly t.
        env = Environment()
        fired = []

        def proc():
            yield env.timeout(5)
            fired.append(env.now)

        env.process(proc())
        env.run(until=5)
        assert fired == []
        env.run()
        assert fired == [5]


class TestSameTimeOrdering:
    def test_priority_orders_same_time_events(self):
        env = Environment()
        order = []

        def lo():
            yield env.timeout(1, priority=PRIORITY_NORMAL)
            order.append("normal")

        def hi():
            yield env.timeout(1, priority=PRIORITY_DELIVERY)
            order.append("delivery")

        env.process(lo())
        env.process(hi())
        env.run()
        assert order == ["delivery", "normal"]

    def test_fifo_within_same_priority(self):
        env = Environment()
        order = []

        def mk(tag):
            def proc():
                yield env.timeout(1)
                order.append(tag)

            return proc

        for tag in "abc":
            env.process(mk(tag)())
        env.run()
        assert order == ["a", "b", "c"]


class TestEvents:
    def test_manual_event_succeed(self):
        env = Environment()
        ev = env.event()
        results = []

        def waiter():
            results.append((yield ev))

        def trigger():
            yield env.timeout(2)
            ev.succeed(99)

        env.process(waiter())
        env.process(trigger())
        env.run()
        assert results == [99]

    def test_event_cannot_trigger_twice(self):
        env = Environment()
        ev = env.event()
        ev.succeed(1)
        with pytest.raises(RuntimeError):
            ev.succeed(2)

    def test_failed_event_raises_in_waiter(self):
        env = Environment()
        caught = []

        def crasher():
            yield env.timeout(1)
            raise ValueError("boom")

        crashed = env.process(crasher())

        def waiter():
            try:
                yield crashed
            except ValueError as exc:
                caught.append((str(exc), env.now))

        env.process(waiter())
        env.run()  # the waiter consumed the failure: run() must not raise
        assert caught == [("boom", 1)]

    def test_unhandled_failure_escapes_run(self):
        env = Environment()

        def bad():
            yield env.timeout(1)
            raise RuntimeError("process bug")

        env.process(bad())
        with pytest.raises(RuntimeError, match="process bug"):
            env.run()

    def test_yield_on_processed_event_resumes_with_value(self):
        env = Environment()
        ev = env.event()
        ev.succeed("cached")
        got = []

        def late_waiter():
            yield env.timeout(5)
            got.append((yield ev))
            got.append(env.now)

        env.process(late_waiter())
        env.run()
        assert got == ["cached", 5]


class TestProcess:
    def test_process_return_value_via_join(self):
        env = Environment()
        results = []

        def child():
            yield env.timeout(3)
            return "done-at-3"

        def parent():
            results.append((yield env.process(child())))
            results.append(env.now)

        env.process(parent())
        env.run()
        assert results == ["done-at-3", 3]

    def test_process_yielding_non_event_raises(self):
        env = Environment()

        def bad():
            yield 42

        env.process(bad())
        with pytest.raises(TypeError, match="may only yield events"):
            env.run()

    def test_run_until_process_returns_its_value(self):
        # A process joined after it has finished still hands over its
        # return value (the replay of an already-processed event).
        env = Environment()

        def child():
            yield env.timeout(2)
            return 7

        proc = env.process(child())
        assert env.run() is None
        assert proc.processed and env.now == 2
        got = []

        def late_joiner():
            got.append((yield proc))

        env.process(late_joiner())
        env.run()
        assert got == [7]

    def test_exception_in_child_propagates_to_joiner(self):
        env = Environment()
        caught = []

        def child():
            yield env.timeout(1)
            raise KeyError("child failed")

        def parent():
            try:
                yield env.process(child())
            except KeyError:
                caught.append(True)

        env.process(parent())
        env.run()
        assert caught == [True]


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def build_and_run():
            env = Environment()
            trace = []

            def worker(tag, period):
                for _ in range(5):
                    yield env.timeout(period)
                    trace.append((env.now, tag))

            env.process(worker("a", 3))
            env.process(worker("b", 2))
            env.run()
            return trace

        assert build_and_run() == build_and_run()

    def test_many_processes_complete(self):
        env = Environment()
        done = []

        def worker(i):
            yield env.timeout(i % 7)
            done.append(i)

        for i in range(200):
            env.process(worker(i))
        env.run()
        assert sorted(done) == list(range(200))


class TestPublicSurface:
    """The kernel exports exactly what the MAC layers use; removed names
    must not silently return."""

    KERNEL_ALL = [
        "Environment",
        "Event",
        "Timeout",
        "Process",
        "PRIORITY_URGENT",
        "PRIORITY_DELIVERY",
        "PRIORITY_NORMAL",
    ]

    def test_kernel_all_is_pinned(self):
        assert repro.sim.kernel.__all__ == self.KERNEL_ALL

    def test_sim_all_is_pinned(self):
        assert repro.sim.__all__ == [
            "Environment",
            "Event",
            "Timeout",
            "Process",
            "Frame",
            "FrameType",
            "GROUP_ADDR",
            "Channel",
            "ChannelStats",
            "Transmission",
            "Radio",
            "Network",
        ]

    def test_public_attributes_are_pinned(self):
        def public(obj):
            return {name for name in dir(obj) if not name.startswith("_")}

        assert public(Environment()) == {
            "now", "event", "timeout", "expedite_sample", "process", "run", "obs",
        }
        event_api = {"succeed", "triggered", "processed", "callbacks", "env", "defused"}
        assert public(Event) == event_api
        assert public(Timeout) == event_api | {"delay"}
        assert public(Process) == event_api | {"name"}

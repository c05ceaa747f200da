"""Additional kernel edge cases beyond the core suite."""


from repro.sim.kernel import (
    Environment,
    PRIORITY_DELIVERY,
)


class TestEventEdges:
    def test_two_waiters_on_one_event(self):
        env = Environment()
        ev = env.event()
        got = []

        def waiter(tag):
            got.append((tag, (yield ev)))

        env.process(waiter("a"))
        env.process(waiter("b"))
        env.timeout(3).callbacks.append(lambda _e: ev.succeed("v"))
        env.run()
        assert sorted(got) == [("a", "v"), ("b", "v")]

    def test_failed_event_kills_all_waiters_that_reraise(self):
        env = Environment()
        outcomes = []

        def crasher():
            yield env.timeout(1)
            raise RuntimeError("x")

        crashed = env.process(crasher())

        def waiter(tag):
            try:
                yield crashed
            except RuntimeError:
                outcomes.append(tag)

        env.process(waiter("a"))
        env.process(waiter("b"))
        env.run()
        assert sorted(outcomes) == ["a", "b"]

    def test_chained_processes(self):
        """A chain of processes each joining the previous one."""
        env = Environment()

        def leaf():
            yield env.timeout(2)
            return 1

        def wrap(inner):
            val = yield inner
            return val + 1

        p = env.process(leaf())
        for _ in range(5):
            p = env.process(wrap(p))
        got = []

        def joiner():
            got.append((yield p))

        env.process(joiner())
        env.run()
        assert got == [6]
        assert env.now == 2

    def test_process_completing_instantly(self):
        env = Environment()

        def instant():
            return 42
            yield  # pragma: no cover

        p = env.process(instant())
        got = []

        def joiner():
            got.append((yield p))

        env.process(joiner())
        env.run()
        assert got == [42]
        assert env.now == 0


class TestPriorities:
    def test_delivery_priority_beats_normal_within_conditions(self):
        """A delivery-priority frame and a normal timer racing to settle one
        result event at the same instant resolve to the frame (the
        radio.expect pattern)."""
        env = Environment()
        result = env.event()
        got = []

        def settle(value):
            def callback(_e):
                if not result.triggered:
                    result.succeed(value)

            return callback

        def waiter():
            # The timer is scheduled first, so only priority lets the frame win.
            timer = env.timeout(5)
            frame_ev = env.timeout(5, priority=PRIORITY_DELIVERY)
            timer.callbacks.append(settle("timer"))
            frame_ev.callbacks.append(settle("frame"))
            got.append((yield result))

        env.process(waiter())
        env.run()
        assert got == ["frame"]

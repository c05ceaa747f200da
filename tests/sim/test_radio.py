"""Unit tests for the Radio interface (expect(), listeners, state)."""

import numpy as np

from repro.faults import FaultPlan
from repro.faults.inject import FaultInjector
from repro.phy.propagation import UnitDiskPropagation
from repro.sim.channel import Channel
from repro.sim.frames import Frame, FrameType
from repro.sim.kernel import Environment


def pair():
    env = Environment()
    prop = UnitDiskPropagation(np.array([[0.5, 0.5], [0.55, 0.5]]), 0.2)
    ch = Channel(env, prop)
    return env, ch, ch.attach(0), ch.attach(1)


def rts(src, ra, seq=None):
    return Frame(FrameType.RTS, src=src, ra=ra, seq=seq)


class TestExpect:
    def test_matching_frame_resolves(self):
        env, ch, r0, r1 = pair()
        got = []

        def waiter():
            ev = r0.expect(lambda f: f.ftype is FrameType.RTS, timeout=10)
            got.append((yield ev))

        env.process(waiter())
        env.timeout(3).callbacks.append(lambda _e: ch.transmit(r1, rts(1, 0)))
        env.run(until=30)
        assert len(got) == 1 and got[0].src == 1

    def test_timeout_resolves_none(self):
        env, ch, r0, r1 = pair()
        got = []

        def waiter():
            got.append((yield r0.expect(lambda f: True, timeout=5)))
            got.append(env.now)

        env.process(waiter())
        env.run(until=30)
        assert got == [None, 5]

    def test_frame_at_exact_deadline_wins(self):
        """A frame whose reception completes exactly at the deadline beats
        the timer (delivery priority) -- the 'wait T_CTS' semantics."""
        env, ch, r0, r1 = pair()
        got = []

        def waiter():
            # RTS airtime 1: transmitted at t=4, delivered at t=5 == deadline.
            got.append((yield r0.expect(lambda f: True, timeout=5)))

        env.process(waiter())
        env.timeout(4).callbacks.append(lambda _e: ch.transmit(r1, rts(1, 0)))
        env.run(until=30)
        assert got[0] is not None

    def test_predicate_filters(self):
        env, ch, r0, r1 = pair()
        got = []

        def waiter():
            ev = r0.expect(lambda f: f.seq == 2, timeout=20)
            got.append((yield ev))

        env.process(waiter())
        env.timeout(1).callbacks.append(lambda _e: ch.transmit(r1, rts(1, 0, seq=1)))
        env.timeout(5).callbacks.append(lambda _e: ch.transmit(r1, rts(1, 0, seq=2)))
        env.run(until=40)
        assert got[0].seq == 2

    def test_listener_removed_after_match(self):
        env, ch, r0, r1 = pair()

        def waiter():
            yield r0.expect(lambda f: True, timeout=10)

        env.process(waiter())
        env.timeout(1).callbacks.append(lambda _e: ch.transmit(r1, rts(1, 0)))
        env.run(until=30)
        # Only the permanent listeners (none here) remain.
        assert r0._listeners == []

    def test_listener_removed_after_timeout(self):
        env, ch, r0, r1 = pair()

        def waiter():
            yield r0.expect(lambda f: True, timeout=3)

        env.process(waiter())
        env.run(until=30)
        assert r0._listeners == []


class TestListeners:
    def test_add_remove(self):
        env, ch, r0, r1 = pair()
        calls = []
        fn = lambda f, c: calls.append(f)
        r0.add_listener(fn)
        ch.transmit(r1, rts(1, 0))
        env.run(until=5)
        r0.remove_listener(fn)
        ch.transmit(r1, rts(1, 0))
        env.run(until=10)
        assert len(calls) == 1

    def test_listener_may_remove_itself_during_delivery(self):
        env, ch, r0, r1 = pair()
        calls = []

        def once(f, c):
            calls.append(f)
            r0.remove_listener(once)

        r0.add_listener(once)
        ch.transmit(r1, rts(1, 0))
        env.run(until=5)
        assert len(calls) == 1


class TestBystanderRule:
    """The rule a listener declares for frames not intended for its node
    is only in force while that listener is the radio's only one."""

    def test_rule_follows_sole_owner(self):
        env, ch, r0, r1 = pair()

        def owner(f, c):
            pass

        def other(f, c):
            pass

        def rule(f, owner):
            pass

        r0.add_listener(owner, bystander=rule)
        assert r0.bystander is rule
        r0.add_listener(other)
        assert r0.bystander is None
        r0.remove_listener(other)
        assert r0.bystander is rule
        r0.remove_listener(owner)
        assert r0.bystander is None

    def test_pending_expect_suspends_rule(self):
        env, ch, r0, r1 = pair()
        r0.add_listener(lambda f, c: None, bystander=lambda duration, owner: None)
        r0.expect(lambda f: False, timeout=3)
        assert r0.bystander is None
        env.run(until=5)
        assert r0.bystander is not None

    @staticmethod
    def _bystander_frames(faults: bool):
        env, ch, r0, r1 = pair()
        if faults:
            ch.faults = FaultInjector(FaultPlan(), n_nodes=2, seed=0)
        full, lane = [], []
        r0.add_listener(
            lambda f, c: full.append(f.ftype),
            bystander=lambda duration, owner: lane.append((duration, owner)),
        )
        ch.transmit(r1, rts(1, 0))  # addressed to node 0
        env.run(until=2)
        cts = Frame(FrameType.CTS, src=1, ra=5, duration=3)  # bystander; 5 owns it
        ch.transmit(r1, cts)
        env.run(until=4)
        ch.transmit(r1, Frame(FrameType.RTS, src=1, ra=5))  # bystander, Duration 0
        env.run(until=6)
        ch.transmit(r1, Frame(FrameType.DATA, src=1, ra=-1, group=frozenset({0})))
        env.run(until=12)
        assert full == [FrameType.RTS, FrameType.DATA]
        assert lane == [(cts.duration, 5)]
        assert ch.finalize_counters().total["frames_delivered.RTS"] == 2

    def test_channel_calls_rule_only_for_bystander_frames(self):
        """The rival-free loop hands the rule ``(Duration, exchange
        owner)`` and skips a zero-Duration bystander frame."""
        self._bystander_frames(faults=False)

    def test_receive_at_calls_rule_only_for_bystander_frames(self):
        """So does ``Channel._receive_at``: an attached (empty) fault plan
        sends every frame through it."""
        self._bystander_frames(faults=True)


class TestState:
    def test_is_transmitting_window(self):
        env, ch, r0, r1 = pair()
        states = []
        ch.transmit(r0, Frame(FrameType.DATA, src=0, ra=-1, group=frozenset({1})))
        env.timeout(2).callbacks.append(lambda _e: states.append(r0.is_transmitting))
        env.timeout(5).callbacks.append(lambda _e: states.append(r0.is_transmitting))
        env.run(until=10)
        assert states == [True, False]


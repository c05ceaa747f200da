"""Unit tests for the NAV (yield state)."""

import pytest

from repro.mac.nav import Nav
from repro.sim.kernel import Environment


class TestNav:
    def test_initially_clear(self):
        nav = Nav(Environment())
        assert not nav.active

    def test_set_makes_active(self):
        env = Environment()
        nav = Nav(env)
        nav.set(10)
        assert nav.active
        assert nav.until == 10

    def test_expires_with_time(self):
        env = Environment()
        nav = Nav(env)
        nav.set(5)
        env.run(until=6)
        assert not nav.active

    def test_never_shortens(self):
        env = Environment()
        nav = Nav(env)
        nav.set(20, owner=1)
        nav.set(5, owner=2)
        assert nav.until == 20

    def test_longer_reservation_takes_ownership(self):
        env = Environment()
        nav = Nav(env)
        nav.set(5, owner=1)
        nav.set(20, owner=2)
        assert nav.owner == 2

    def test_shorter_reservation_keeps_owner(self):
        env = Environment()
        nav = Nav(env)
        nav.set(20, owner=1)
        nav.set(5, owner=2)
        assert nav.owner == 1

    def test_zero_duration_is_noop_when_clear(self):
        env = Environment()
        nav = Nav(env)
        nav.set(0)
        assert not nav.active

    def test_negative_duration_rejected(self):
        nav = Nav(Environment())
        with pytest.raises(ValueError):
            nav.set(-1)

    @pytest.mark.parametrize("duration", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_duration_rejected(self, duration):
        env = Environment()
        nav = Nav(env)
        nav.set(10, owner=1)
        with pytest.raises(ValueError):
            nav.set(duration, owner=3)
        assert (nav.until, nav.owner) == (10, 1)

    def test_expired_nav_taken_over_by_shorter_reservation(self):
        env = Environment()
        nav = Nav(env)
        nav.set(20, owner=1)
        env.run(until=30)
        nav.set(5, owner=2)
        assert (nav.until, nav.owner) == (35, 2)

    def test_clear(self):
        env = Environment()
        nav = Nav(env)
        nav.set(100, owner=3)
        nav.clear()
        assert not nav.active
        assert nav.owner is None

    def test_blocks_response_to_other_exchange_only(self):
        """The BMMM receiver rule: yielding to exchange A must not block
        answering exchange A's own polls, but must block exchange B's."""
        env = Environment()
        nav = Nav(env)
        nav.set(50, owner=7)
        assert not nav.blocks_response_to(7)
        assert nav.blocks_response_to(8)

    def test_inactive_nav_blocks_nothing(self):
        env = Environment()
        nav = Nav(env)
        assert not nav.blocks_response_to(1)

    def test_ignored_while_sending(self):
        """While the station's own sender procedure owns the radio, an
        overheard reservation changes nothing: no expiry, no owner, no
        waiter poke and no ``nav_set`` event.  Afterwards it applies."""
        env = Environment()
        nav = Nav(env, node_id=4)
        events, pokes = [], []
        env.obs.subscribe(events.append, types={"nav_set"})
        nav.waiters.append(lambda: pokes.append(env.now))
        nav.sending = True
        nav.set(30, owner=2)
        assert (nav.until, nav.owner, pokes, events) == (0, None, [], [])
        nav.sending = False
        nav.set(30, owner=2)
        assert (nav.until, nav.owner, pokes) == (30, 2, [0])
        assert [(e.node, e.data["owner"]) for e in events] == [(4, 2)]

    def test_event_published_when_nav_does_not_move(self):
        env = Environment()
        nav = Nav(env, node_id=1)
        events = []
        env.obs.subscribe(events.append, types={"nav_set"})
        nav.set(20, owner=1)
        nav.set(5, owner=2)
        assert [(e.data["until"], e.data["duration"], e.data["owner"]) for e in events] == [
            (20, 20, 1),
            (20, 5, 1),
        ]

"""Tests for the event bus (repro.obs.events)."""

import copy
import pickle

import pytest

from repro.obs.events import EVENT_TYPES, EventBus, SimEvent
from repro.sim.kernel import Environment


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now


class TestEventBus:
    def test_starts_inactive(self):
        bus = EventBus(FakeClock())
        assert not bus.active
        assert not bus
        assert bus.n_subscribers == 0

    def test_subscribe_activates(self):
        bus = EventBus(FakeClock())
        seen = []
        bus.subscribe(seen.append)
        assert bus.active and bool(bus)
        bus.unsubscribe(seen.append)
        assert not bus.active

    def test_emit_stamps_clock_time(self):
        clock = FakeClock(now=42.0)
        bus = EventBus(clock)
        seen = []
        bus.subscribe(seen.append)
        bus.emit("frame_tx", node=3, ftype="DATA")
        clock.now = 50.0
        bus.emit("collision", node=1)
        assert [e.time for e in seen] == [42.0, 50.0]
        assert seen[0] == SimEvent("frame_tx", 42.0, 3, {"ftype": "DATA"})

    def test_emitted_events_are_frozen_and_round_trip(self):
        """``emit`` builds a slotted draft and switches it to ``SimEvent``:
        the event is still frozen, equal to one built directly, and
        survives pickling and copying."""
        bus = EventBus(FakeClock(now=7.0))
        seen = []
        bus.subscribe(seen.append)
        bus.emit("collision", node=2, k=3)
        event = seen[0]
        assert type(event) is SimEvent and not hasattr(event, "__dict__")
        with pytest.raises(AttributeError):
            event.time = 8.0
        assert event == SimEvent(etype="collision", time=7.0, node=2, data={"k": 3})
        assert pickle.loads(pickle.dumps(event)) == event == copy.copy(event)
        assert SimEvent("backoff", 1.0).data == {}

    def test_fanout_in_subscription_order(self):
        bus = EventBus(FakeClock())
        order = []
        bus.subscribe(lambda e: order.append("a"))
        bus.subscribe(lambda e: order.append("b"))
        bus.emit("collision", node=2, k=2)
        assert order == ["a", "b"]

    def test_emit_without_subscribers_is_noop(self):
        bus = EventBus(FakeClock())
        bus.emit("frame_tx", node=0, ftype="RTS")  # must not raise

    def test_subscribe_rejects_non_callable(self):
        bus = EventBus(FakeClock())
        with pytest.raises(TypeError):
            bus.subscribe("not callable")

    def test_unsubscribe_unknown_raises(self):
        bus = EventBus(FakeClock())
        with pytest.raises(ValueError):
            bus.unsubscribe(lambda e: None)

    def test_subscribe_returns_subscriber(self):
        bus = EventBus(FakeClock())

        @bus.subscribe
        def handler(event):
            pass

        assert bus.n_subscribers == 1
        bus.unsubscribe(handler)

    def test_environment_carries_a_bus(self):
        env = Environment()
        assert isinstance(env.obs, EventBus)
        assert not env.obs.active
        seen = []
        env.obs.subscribe(seen.append)
        env.obs.emit("request_done", node=0)
        assert seen[0].time == env.now


class TestTypedSubscription:
    def test_every_type_starts_off(self):
        bus = EventBus(FakeClock())
        assert all(getattr(bus, etype) == () for etype in EVENT_TYPES)

    def test_types_are_unique(self):
        assert len(set(EVENT_TYPES)) == len(EVENT_TYPES)

    def test_typed_subscriber_sees_only_its_types(self):
        bus = EventBus(FakeClock())
        seen = []
        bus.subscribe(seen.append, types=("frame_tx", "backoff"))
        assert bus.active
        assert bus.frame_tx and bus.backoff and not bus.frame_rx
        bus.emit("frame_rx", node=1)
        bus.emit("frame_tx", node=0)
        bus.emit("backoff", node=0)
        assert [e.etype for e in seen] == ["frame_tx", "backoff"]

    def test_mixed_subscribers_keep_subscription_order(self):
        bus = EventBus(FakeClock())
        order = []
        bus.subscribe(lambda e: order.append("all"))
        bus.subscribe(lambda e: order.append("tx"), types=["frame_tx"])
        bus.subscribe(lambda e: order.append("all2"))
        bus.emit("frame_tx", node=0)
        bus.emit("nav_set", node=0)
        assert order == ["all", "tx", "all2", "all", "all2"]

    def test_unsubscribe_reroutes(self):
        bus = EventBus(FakeClock())
        seen = []
        bus.subscribe(seen.append, types={"frame_rx"})
        bus.unsubscribe(seen.append)
        assert not bus.frame_rx and not bus.active
        bus.emit("frame_rx", node=1)
        assert seen == []

    def test_routes_hold_the_subscriber_itself(self):
        class Counter:
            def __call__(self, event):
                pass

        bus = EventBus(FakeClock())
        counter = bus.subscribe(Counter(), types=("frame_tx",))
        assert bus.frame_tx == (counter,)

    def test_unknown_type_rejected_at_subscribe(self):
        bus = EventBus(FakeClock())
        with pytest.raises(ValueError, match="tick"):
            bus.subscribe(lambda e: None, types=("frame_tx", "tick"))
        assert not bus.active

    def test_empty_types_rejected(self):
        bus = EventBus(FakeClock())
        with pytest.raises(ValueError, match="empty"):
            bus.subscribe(lambda e: None, types=())
        assert bus.n_subscribers == 0

    def test_bare_string_types_rejected(self):
        bus = EventBus(FakeClock())
        with pytest.raises(ValueError):
            bus.subscribe(lambda e: None, types="frame_tx")

    def test_unknown_type_rejected_at_emit(self):
        bus = EventBus(FakeClock())
        with pytest.raises(ValueError, match="tick"):
            bus.emit("tick")
        # Also with subscribers attached, and for names of bus attributes.
        bus.subscribe(lambda e: None)
        for etype in ("tick", "active", "_clock"):
            with pytest.raises(ValueError):
                bus.emit(etype)

"""The simulator's event bus: typed observability events, zero-cost when off.

Instrumented code (channel, contention engine, batch procedure, protocol
state machines) publishes :class:`SimEvent` records to the
:class:`EventBus` hanging off :class:`repro.sim.kernel.Environment`.  The
bus is a plain fan-out with **no queueing**: each event goes synchronously
to the subscribers of its type, in subscription order, at the simulated
instant the event occurs.

Cost discipline
---------------
Hot paths must pay (almost) nothing for events nobody reads.  The bus
keeps one attribute per event type in :data:`EVENT_TYPES`, holding the
tuple of that type's subscribers (empty: the type is off), and every emit
site guards on its own type *before* building the payload::

    obs = self.env.obs
    if obs.frame_tx:
        obs.emit("frame_tx", node=sender, ftype=frame.ftype.value, ...)

so a bare run executes one attribute load and one branch per site, and a
subscriber to a few types (the MAC-phase profiler reads four) leaves
every other site just as cheap.  Payload construction (dicts, sorted
sets) happens only for types somebody subscribed to.

Payloads must be JSON-safe (str/int/float/bool/None/list/dict): the JSONL
trace writer (:mod:`repro.obs.trace`) serializes them verbatim.  Convert
enums with ``.value`` and frozensets with ``sorted(...)`` at the emit site.

The event taxonomy is documented in ``docs/observability.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Protocol

__all__ = ["SimEvent", "EventBus", "Subscriber", "EVENT_TYPES"]

#: Every event type the simulator publishes, in the order of the taxonomy
#: tables in ``docs/observability.md``.  :meth:`EventBus.subscribe` and
#: :meth:`EventBus.emit` reject any other type.
EVENT_TYPES = (
    # channel
    "frame_tx",
    "frame_rx",
    "collision",
    "capture",
    "frame_error",
    "half_duplex_loss",
    "rate_loss",
    # MAC substrate
    "nav_set",
    "backoff",
    "contention_won",
    "request_submitted",
    "request_done",
    "retry",
    # batch procedure and protocols
    "batch_round_start",
    "batch_round_end",
    "lamm_update",
    "ram_update",
    "ram_rate",
    # fault injection
    "fault_burst_loss",
    "fault_crash",
    "fault_recover",
    "fault_tx_suppressed",
    "fault_rx_dropped",
    "receiver_give_up",
    "lamm_coverage_violation",
    "ram_coverage_violation",
)

_KNOWN = frozenset(EVENT_TYPES)


class _Clock(Protocol):  # pragma: no cover - typing helper
    @property
    def now(self) -> float: ...


#: Subscriber signature: called synchronously with each published event.
Subscriber = Callable[["SimEvent"], None]


@dataclass(frozen=True, slots=True, init=False)
class SimEvent:
    """One observability event.

    Attributes
    ----------
    etype:
        Event type tag (e.g. ``"frame_tx"``, ``"collision"``); the full
        taxonomy lives in ``docs/observability.md``.
    time:
        Simulation time (slots) when the event occurred.
    node:
        The node the event is attributed to (sender for transmissions,
        receiver for reception outcomes), or ``None`` for global events.
    data:
        JSON-safe payload, keyed per event type.

    Built like :class:`~repro.sim.frames.Frame`: the fields are stored
    into a plain slotted :class:`_EventDraft`, which then becomes a
    ``SimEvent`` by a class switch, instead of one ``object.__setattr__``
    per field.
    """

    etype: str
    time: float
    node: int | None = None
    data: dict[str, Any] = field(default_factory=dict)

    def __new__(
        cls,
        etype: str,
        time: float,
        node: int | None = None,
        data: dict[str, Any] | None = None,
    ) -> "SimEvent":
        self = _new_draft(_EventDraft)
        self.etype = etype
        self.time = time
        self.node = node
        self.data = {} if data is None else data
        self.__class__ = cls
        return self

    def __reduce__(self):
        return (type(self), (self.etype, self.time, self.node, self.data))


class _EventDraft:
    """A :class:`SimEvent` under construction: same slots, plain stores."""

    __slots__ = SimEvent.__slots__


_new_draft = object.__new__


class EventBus:
    """Synchronous fan-out of :class:`SimEvent` to registered subscribers.

    Parameters
    ----------
    clock:
        Anything with a ``now`` attribute (normally the
        :class:`~repro.sim.kernel.Environment`); events are stamped with
        ``clock.now`` at emit time.

    Each name in :data:`EVENT_TYPES` is an attribute holding the tuple of
    that type's subscribers in subscription order; an empty tuple is
    falsy, which is what emit sites test (``if obs.frame_rx:``).
    """

    __slots__ = ("_clock", "_subscribers", "active", *EVENT_TYPES)

    def __init__(self, clock: _Clock):
        self._clock = clock
        #: ``(subscriber, types)`` in subscription order; ``types`` is a
        #: frozenset, or ``None`` for every type.
        self._subscribers: list[tuple[Subscriber, frozenset[str] | None]] = []
        #: True iff at least one subscriber is attached (to any type).
        self.active: bool = False
        self._route()

    def __bool__(self) -> bool:
        return self.active

    @property
    def n_subscribers(self) -> int:
        return len(self._subscribers)

    def _route(self) -> None:
        """Rebuild every type's subscriber tuple from :attr:`_subscribers`.

        The subscriber object itself is stored, not a bound method, so
        each call looks ``__call__`` up afresh.
        """
        for etype in EVENT_TYPES:
            setattr(
                self,
                etype,
                tuple(s for s, types in self._subscribers if types is None or etype in types),
            )
        self.active = bool(self._subscribers)

    def subscribe(
        self, subscriber: Subscriber, types: Iterable[str] | None = None
    ) -> Subscriber:
        """Attach *subscriber* to *types* (default: every type); returns it
        (usable as a decorator).

        Raises ``ValueError`` for an empty *types* or a type not in
        :data:`EVENT_TYPES`.
        """
        if not callable(subscriber):
            raise TypeError(f"{subscriber!r} is not callable")
        if types is not None:
            types = frozenset(types)
            if not types:
                raise ValueError("types is empty: the subscriber would receive nothing")
            unknown = types - _KNOWN
            if unknown:
                raise ValueError(f"unknown event types: {sorted(unknown)}")
        self._subscribers.append((subscriber, types))
        self._route()
        return subscriber

    def unsubscribe(self, subscriber: Subscriber) -> None:
        """Detach *subscriber* (raises ValueError if not attached)."""
        for i, (s, _) in enumerate(self._subscribers):
            if s == subscriber:
                del self._subscribers[i]
                self._route()
                return
        raise ValueError(f"{subscriber!r} is not subscribed")

    def emit(self, etype: str, node: int | None = None, **data: Any) -> None:
        """Publish one event, stamped with the clock's current time.

        Callers in hot paths should guard on the type's attribute first;
        calling ``emit`` for a type nobody reads is harmless but builds
        the payload.  Raises ``ValueError`` for a type not in
        :data:`EVENT_TYPES`.
        """
        if etype not in _KNOWN:
            raise ValueError(f"unknown event type {etype!r}")
        subscribers = getattr(self, etype)
        if not subscribers:
            return
        # SimEvent.__new__'s body, without the call.
        event = _new_draft(_EventDraft)
        event.etype = etype
        event.time = self._clock.now
        event.node = node
        event.data = data
        event.__class__ = SimEvent
        for subscriber in subscribers:
            subscriber(event)

"""Generator-based discrete-event simulation kernel.

The paper's evaluation (Section 7) uses a custom slotted wireless-LAN
simulator.  This module provides the event-scheduling substrate for our
re-implementation of that simulator: a small, deterministic kernel built on
Python generators, holding only what the MAC layers use -- one-shot events,
timeouts and processes, dispatched by one run loop.

Design notes
------------
* **Time** is a plain number.  The wireless layers above use integer slot
  counts ("the time is slotted so that the event happens at the beginning of
  a slot" -- paper, Section 7), but the kernel itself does not care.  A
  negative or NaN delay, and a NaN or past ``run`` deadline, raise
  :class:`ValueError`: the clock never moves backwards.
* **Determinism.**  Events scheduled for the same timestamp are ordered by an
  explicit integer *priority* (lower value runs earlier) and then by
  insertion order.  The wireless channel delivers frames at
  :data:`PRIORITY_DELIVERY` while protocol timeouts use
  :data:`PRIORITY_NORMAL`, so a frame arriving exactly when a wait-for-frame
  timer expires is always processed *before* the timer -- matching the paper's
  "wait :math:`T_{CTS}` for the CTS" semantics where a CTS occupying the
  whole wait window still counts as received.
* **Processes** are Python generators that ``yield`` events.  A process is
  itself an event that triggers when the generator returns, so processes can
  wait on each other.
* **Failures crash loudly.**  An exception escaping a process is thrown into
  every process joined on it; if nobody joins, it is re-raised from
  :meth:`Environment.run` -- a simulation bug must never be silently
  swallowed.
* **One heap.**  Every scheduled event sits in one heap keyed
  ``(time, priority, rank, eid)``.  Ordinary events have rank 0; a
  contender's carrier-sense samples carry its creation rank (>= 1), so at
  one ``(time, priority)`` every ordinary event runs before any sample and
  same-instant samples run in rank order whatever their scheduling
  history (see docs/simulator.md, "Same-instant order").  The event id
  *eid* is one counter shared by every event, so it breaks all remaining
  ties by insertion order.  :meth:`Environment.timeout` is the only way a
  :class:`Timeout` is built, every event class carries ``__slots__``, and
  :meth:`Environment.run` pops and dispatches each event in one inlined
  loop.
"""

from __future__ import annotations

from collections.abc import Generator
from heapq import heappop, heappush
from typing import Any, Callable

from repro.obs.events import EventBus

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "PRIORITY_URGENT",
    "PRIORITY_DELIVERY",
    "PRIORITY_NORMAL",
]

#: Priority for process start-up and for replaying an already-processed
#: event to a late waiter.
PRIORITY_URGENT = 0
#: Priority used by the channel when handing received frames to nodes.
PRIORITY_DELIVERY = 1
#: Default priority for timeouts and ordinary events.
PRIORITY_NORMAL = 5


# Sentinel distinguishing "not yet triggered" from a triggered None value.
_PENDING = object()


class Event:
    """A one-shot occurrence that processes can wait on.

    An event goes through three states:

    1. *pending* -- created but not triggered;
    2. *triggered* -- :meth:`succeed` was called (or, for a :class:`Process`,
       its generator exited) and the event sits in the scheduler queue;
    3. *processed* -- its callbacks have run.

    Waiting on an already-processed event resumes the waiter immediately (on
    the next kernel step), with the stored value or exception.
    """

    __slots__ = ("env", "callbacks", "_value", "_exception", "_scheduled", "defused")

    def __init__(self, env: "Environment"):
        self.env = env
        #: Callables invoked with this event once it is processed.
        self.callbacks: list[Callable[["Event"], None]] | None = []
        self._value: Any = _PENDING
        self._exception: BaseException | None = None
        self._scheduled = False
        #: Set when a failure has been handed to a waiter (so the kernel does
        #: not also crash the simulation for it).
        self.defused = False

    @property
    def triggered(self) -> bool:
        """True once the event has a value or an exception."""
        return self._value is not _PENDING or self._exception is not None

    @property
    def processed(self) -> bool:
        """True once callbacks have been run."""
        return self.callbacks is None

    def succeed(self, value: Any = None, priority: int = PRIORITY_NORMAL) -> "Event":
        """Trigger the event successfully with *value*."""
        if self.triggered:
            raise RuntimeError(f"{self!r} already triggered")
        self._value = value
        self.env._schedule(self, priority)
        return self

    def _run_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        assert callbacks is not None
        for callback in callbacks:
            callback(self)
        if self._exception is not None and not self.defused:
            # Nobody consumed the failure: surface it from env.run().
            self.env._unhandled = self._exception

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "processed" if self.processed else ("triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers *delay* time units after creation.

    Built only by :meth:`Environment.timeout`.
    """

    __slots__ = ("delay",)


class Process(Event):
    """Wrap a generator as a simulation process.

    The process is itself an event: it triggers with the generator's return
    value when the generator finishes, or fails with the escaping exception.
    Other processes may therefore ``yield proc`` to join on it.
    """

    __slots__ = ("_generator", "name")

    def __init__(self, env: "Environment", generator: Generator, name: str | None = None):
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        start = Event(env)
        start._value = None
        start.callbacks.append(self._resume)
        env._schedule(start, PRIORITY_URGENT)

    def _resume(self, event: Event) -> None:
        """Advance the generator with *event*'s outcome."""
        env = self.env
        try:
            if event._exception is not None:
                event.defused = True
                result = self._generator.throw(event._exception)
            else:
                result = self._generator.send(event._value)
        except StopIteration as exc:
            self._value = exc.value
            env._schedule(self, PRIORITY_NORMAL)
            return
        except BaseException as exc:
            self._exception = exc
            self._value = None
            env._schedule(self, PRIORITY_NORMAL)
            return

        if not isinstance(result, Event):
            raise TypeError(
                f"process {self.name!r} yielded {result!r}; processes may only yield events"
            )
        if result.processed:
            # Already settled: resume on the next step with its outcome.
            redo = Event(env)
            redo._value = result._value
            redo._exception = result._exception
            if result._exception is not None:
                redo.defused = True
                result.defused = True
            redo.callbacks.append(self._resume)
            env._schedule(redo, PRIORITY_URGENT)
        else:
            result.callbacks.append(self._resume)


class Environment:
    """The simulation clock and event queue (time starts at 0)."""

    def __init__(self):
        self._now = 0
        #: The one event heap, entries ``(time, priority, rank, eid, event)``.
        self._queue: list[tuple[float, int, int, int, Event]] = []
        self._eid = 0
        self._unhandled: BaseException | None = None
        #: Observability event bus (see :mod:`repro.obs.events`).  Created
        #: once per environment and never replaced, so instrumented layers
        #: may cache the reference.
        self.obs = EventBus(self)

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    # -- event factories ----------------------------------------------------

    def event(self) -> Event:
        """Create a fresh untriggered :class:`Event`."""
        return Event(self)

    def timeout(
        self,
        delay: float,
        value: Any = None,
        priority: int = PRIORITY_NORMAL,
        rank: int = 0,
    ) -> Timeout:
        """Create a :class:`Timeout` firing after *delay* with *value*.

        *rank* orders same-``(time, priority)`` events after the ordinary
        ones (rank 0).  Only carrier-sense sample wake-ups pass one: their
        contender's creation rank (>= 1), so same-instant samples -- and the
        commits they schedule -- run in rank order however each contender
        slept its way there, and every sample sees the same-instant
        deliveries and commits already applied.  Such a sample's callbacks
        only read the medium and schedule further waits (see
        docs/simulator.md, "Idle-slot skipping"); :meth:`expedite_sample`
        pulls a pending one earlier.
        """
        if not delay >= 0:
            raise ValueError(f"invalid delay {delay}")
        # Built inline (no __init__ chain): the hottest allocation in a run.
        timeout = Timeout.__new__(Timeout)
        timeout.env = self
        timeout.callbacks = []
        timeout._value = value
        timeout._exception = None
        timeout._scheduled = True
        timeout.defused = False
        timeout.delay = delay
        self._eid += 1
        heappush(self._queue, (self._now + delay, priority, rank, self._eid, timeout))
        return timeout

    def expedite_sample(self, wake: Timeout, delay: float) -> None:
        """Move the pending ranked sample *wake* earlier, to *delay* from now.

        The wake keeps its rank, priority and event id -- it is the same
        event, due sooner -- so this schedules nothing new and leaves no
        stale entry behind: the heap entry is re-keyed in place and
        sifted toward the root.  Raises :class:`ValueError` for a later
        instant and :class:`RuntimeError` for anything not a pending
        ranked timeout.
        """
        queue = self._queue
        for pos, entry in enumerate(queue):
            if entry[4] is wake and entry[2]:
                break
        else:
            raise RuntimeError(f"{wake!r} is not a pending sample")
        when = self._now + delay
        if not self._now <= when <= entry[0]:
            raise ValueError(f"cannot move a wake due at {entry[0]} to {when}")
        wake.delay = delay
        entry = (when,) + entry[1:]
        while pos:
            parent = (pos - 1) >> 1
            if entry < queue[parent]:
                queue[pos] = queue[parent]
                pos = parent
            else:
                break
        queue[pos] = entry

    def process(self, generator: Generator, name: str | None = None) -> Process:
        """Start *generator* as a :class:`Process`."""
        return Process(self, generator, name)

    # -- scheduling ----------------------------------------------------------

    def _schedule(self, event: Event, priority: int) -> None:
        if event._scheduled:
            raise RuntimeError(f"{event!r} scheduled twice")
        event._scheduled = True
        self._eid += 1
        heappush(self._queue, (self._now, priority, 0, self._eid, event))

    # -- execution -----------------------------------------------------------

    def run(self, until: float | None = None) -> None:
        """Run until time *until*, or until the queue is empty.

        The clock is advanced exactly to *until* even if no event is
        scheduled there.  Events at exactly *until* are left for a later
        ``run()``.
        """
        if until is None:
            deadline = float("inf")
        else:
            deadline = float(until)
            if not deadline >= self._now:
                raise ValueError(f"until={deadline} is not at or after now={self._now}")

        queue = self._queue
        while queue:
            entry = queue[0]
            when = entry[0]
            if when >= deadline:
                break
            heappop(queue)
            self._now = when
            entry[4]._run_callbacks()
            if self._unhandled is not None:
                exc, self._unhandled = self._unhandled, None
                raise exc
        if deadline != float("inf"):
            self._now = deadline

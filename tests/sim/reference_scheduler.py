"""The two-lane dispatch rule, kept as a test oracle for the one-heap kernel.

Before the kernel kept one heap, carrier-sense sample wake-ups lived in a
second heap of their own and ``run()`` merged the two lanes per event:

* the main heap is keyed ``(time, priority, eid)``;
* the sample heap is keyed ``(time, priority, rank, eid)``;
* the sample lane runs only when its head is strictly earlier on
  ``(time, priority)``, so the main lane wins every cross-lane tie.

Both lanes share one ``_eid`` counter.  :class:`TwoLaneEnvironment` is
that scheduler, behind the same API as
:class:`repro.sim.kernel.Environment` (a ``timeout`` with ``rank > 0`` goes
to the sample lane), so the same processes can drive both and
``tests/sim/test_dispatch_order.py`` can compare the orders they produce.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any

from repro.sim.kernel import PRIORITY_NORMAL, Environment, Event, Timeout


class TwoLaneEnvironment(Environment):
    """The main heap plus a sample heap, merged on ``(time, priority)``."""

    def __init__(self):
        super().__init__()
        #: The sample lane, entries ``(time, priority, rank, eid, event)``.
        #: ``_queue`` is the main lane, entries ``(time, priority, eid, event)``.
        self._sample_queue: list[tuple[float, int, int, int, Event]] = []

    def timeout(
        self,
        delay: float,
        value: Any = None,
        priority: int = PRIORITY_NORMAL,
        rank: int = 0,
    ) -> Timeout:
        if not delay >= 0:
            raise ValueError(f"invalid delay {delay}")
        timeout = Timeout.__new__(Timeout)
        Event.__init__(timeout, self)
        timeout._value = value
        timeout._scheduled = True
        timeout.delay = delay
        self._eid += 1
        if rank:
            entry = (self._now + delay, priority, rank, self._eid, timeout)
            heappush(self._sample_queue, entry)
        else:
            heappush(self._queue, (self._now + delay, priority, self._eid, timeout))
        return timeout

    def _schedule(self, event: Event, priority: int) -> None:
        if event._scheduled:
            raise RuntimeError(f"{event!r} scheduled twice")
        event._scheduled = True
        self._eid += 1
        heappush(self._queue, (self._now, priority, self._eid, event))

    def expedite_sample(self, wake: Timeout, delay: float) -> None:
        squeue = self._sample_queue
        for pos, entry in enumerate(squeue):
            if entry[4] is wake:
                break
        else:
            raise RuntimeError(f"{wake!r} is not pending in the sample lane")
        when = self._now + delay
        if not self._now <= when <= entry[0]:
            raise ValueError(f"cannot move a wake due at {entry[0]} to {when}")
        wake.delay = delay
        entry = (when,) + entry[1:]
        while pos:
            parent = (pos - 1) >> 1
            if entry < squeue[parent]:
                squeue[pos] = squeue[parent]
                pos = parent
            else:
                break
        squeue[pos] = entry

    def run(self, until: float | None = None) -> None:
        deadline = float("inf") if until is None else float(until)
        if not deadline >= self._now:
            raise ValueError(f"until={deadline} is not at or after now={self._now}")
        queue = self._queue
        squeue = self._sample_queue
        while queue or squeue:
            # Cross-lane ties at equal (time, priority) go to the main lane.
            if squeue and (
                not queue or (squeue[0][0], squeue[0][1]) < (queue[0][0], queue[0][1])
            ):
                lane = squeue
            else:
                lane = queue
            entry = lane[0]
            when = entry[0]
            if when >= deadline:
                break
            heappop(lane)
            self._now = when
            entry[-1]._run_callbacks()
            if self._unhandled is not None:
                exc, self._unhandled = self._unhandled, None
                raise exc
        if deadline != float("inf"):
            self._now = deadline

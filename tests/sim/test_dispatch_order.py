"""The one-heap kernel dispatches exactly like the two-lane rule it replaced.

:class:`~tests.sim.reference_scheduler.TwoLaneEnvironment` keeps ordinary
events and ranked carrier-sense samples in two heaps and lets the main
lane win cross-lane ties; :class:`repro.sim.kernel.Environment` keys one
heap ``(time, priority, rank, eid)`` with rank 0 for ordinary events.
Hypothesis drives both with the same random processes -- timeouts and
``succeed()`` at every priority, process starts and joins, ranked samples
on a half-slot grid (so they tie with ordinary events and with each other)
and ``expedite_sample`` moves -- and every dispatch is logged with its
event id.
"""

from __future__ import annotations

from heapq import heappush

from hypothesis import HealthCheck, find, given, settings
from hypothesis import strategies as st

from repro.sim.kernel import (
    PRIORITY_DELIVERY,
    PRIORITY_NORMAL,
    PRIORITY_URGENT,
    Environment,
)

from tests.sim.reference_scheduler import TwoLaneEnvironment

PRIORITIES = (PRIORITY_URGENT, PRIORITY_DELIVERY, 3, PRIORITY_NORMAL)
delays = st.sampled_from([0, 0.5, 1, 1.5, 2, 3])
ranks = st.integers(1, 4)

leaf_ops = st.one_of(
    st.tuples(st.just("timeout"), delays, st.sampled_from(PRIORITIES)),
    st.tuples(st.just("sample"), delays, ranks),
    st.tuples(st.just("succeed"), st.sampled_from(PRIORITIES)),
    # A ranked wake due after `delay`, which a timeout at `at` pulls to
    # `to` from then (clamped to the wake's own instant).
    st.tuples(st.just("move"), delays, ranks, delays, delays),
)
ops = st.one_of(leaf_ops, st.tuples(st.just("spawn"), st.integers(0, 2), st.booleans()))
scenarios = st.fixed_dictionaries(
    {
        "roots": st.lists(st.lists(ops, max_size=6), min_size=1, max_size=4),
        "children": st.lists(st.lists(leaf_ops, max_size=4), min_size=3, max_size=3),
    }
)


def recording(base: type[Environment]) -> type[Environment]:
    """*base* with a logging callback put first on every scheduled event:
    each dispatch appends ``("dispatch", now, eid)`` to ``env.log``."""

    class Recording(base):
        def __init__(self):
            super().__init__()
            self.log: list[tuple] = []

        def _note(self, event) -> None:
            eid = self._eid
            event.callbacks.insert(0, lambda _e: self.log.append(("dispatch", self._now, eid)))

        def _schedule(self, event, priority):
            super()._schedule(event, priority)
            self._note(event)

        def timeout(self, *args, **kwargs):
            timeout = super().timeout(*args, **kwargs)
            self._note(timeout)
            return timeout

    return Recording


def trace(env_cls: type[Environment], scenario: dict) -> tuple[list[tuple], int]:
    """Run *scenario* on a recording *env_cls*; return its log and last eid."""
    env = recording(env_cls)()
    log = env.log

    def script(tag, steps):
        for i, op in enumerate(steps):
            kind = op[0]
            if kind == "timeout":
                got = yield env.timeout(op[1], (tag, i), priority=op[2])
            elif kind == "sample":
                got = yield env.timeout(op[1], (tag, i), rank=op[2])
            elif kind == "succeed":
                got = yield env.event().succeed((tag, i), priority=op[1])
            elif kind == "move":
                _, delay, rank, at, to = op
                due = env.now + delay
                wake = env.timeout(delay, (tag, i), rank=rank)

                def move(_e, wake=wake, due=due, to=to, i=i):
                    if wake.callbacks is not None:  # still pending
                        env.expedite_sample(wake, min(to, due - env.now))
                        log.append(("move", env.now, tag, i))

                if at < delay:
                    env.timeout(at).callbacks.append(move)
                got = yield wake
            else:
                _, child, join = op
                proc = env.process(script((tag, "child", i), scenario["children"][child]))
                got = (yield proc) if join else None
            log.append(("resume", env.now, tag, i, got))
        return tag

    for n, steps in enumerate(scenario["roots"]):
        env.process(script(n, steps))
    env.run()
    return log, env._eid


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenarios)
def test_one_heap_dispatches_like_the_two_lane_merge(scenario):
    expected = trace(TwoLaneEnvironment, scenario)
    assert trace(Environment, scenario) == expected


class RankedOrdinary(Environment):
    """A broken kernel: ordinary events carry a rank above every sample's."""

    RANK = 1_000

    def timeout(self, delay, value=None, priority=PRIORITY_NORMAL, rank=0):
        return super().timeout(delay, value, priority, rank or self.RANK)

    def _schedule(self, event, priority):
        if event._scheduled:
            raise RuntimeError(f"{event!r} scheduled twice")
        event._scheduled = True
        self._eid += 1
        heappush(self._queue, (self._now, priority, self.RANK, self._eid, event))


def test_property_catches_ordinary_events_ranked_above_samples():
    # The scenarios reach a cross-lane tie that the broken kernel orders
    # the other way, so the property above would fail on it.
    scenario = find(
        scenarios,
        lambda s: trace(RankedOrdinary, s) != trace(TwoLaneEnvironment, s),
        settings=settings(database=None, max_examples=500),
    )
    assert trace(Environment, scenario) == trace(TwoLaneEnvironment, scenario)

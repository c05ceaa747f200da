"""Per-type subscription on real runs: a subscriber to a few event types
sees exactly what a catch-all subscriber sees of those types, and nothing
about the run changes.

The typed subscribers are attached inside ``run_raw`` by wrapping
``build_network``, so the run under test is the production one.
"""

from dataclasses import replace

import pytest

import repro.experiments.runner as runner
import repro.obs.profiler as profiler_mod
from repro.experiments.config import SIMULATED_PROTOCOLS, SimulationSettings, protocol_class
from repro.experiments.ratesweep import RATE_PROFILES
from repro.experiments.runner import run_raw
from repro.faults import FaultPlan, GilbertElliott, NodeChurn
from repro.obs.events import EVENT_TYPES
from repro.obs.profiler import _PHASE_STARTERS, KernelPhaseProfiler
from repro.obs.trace import TraceRecorder

from tests.faults.conftest import canon

SMALL = SimulationSettings(n_nodes=20, horizon=800, message_rate=0.003)
#: RAM at a multi-rate profile, with churn and Gilbert-Elliott bursts.
FAULTED = replace(
    SMALL,
    phy=RATE_PROFILES["mild"],
    faults=FaultPlan(
        churn=NodeChurn(crash_rate=0.002, mean_downtime=40.0),
        burst=GilbertElliott.from_burst(4.0, 0.1),
    ),
)
CASES = [pytest.param(name, SMALL, id=name) for name in SIMULATED_PROTOCOLS]
CASES.append(pytest.param("RAM", FAULTED, id="RAM-faulted"))

#: Type sets of the typed subscribers, attached around a catch-all one.
TYPE_SETS = [
    tuple(sorted(_PHASE_STARTERS)),
    ("frame_tx",),
    ("frame_rx", "nav_set", "collision"),
    tuple(t for t in EVENT_TYPES if t.startswith("fault_")) + ("receiver_give_up",),
    ("ram_rate", "ram_update", "rate_loss", "batch_round_start", "retry"),
]


def _observed_run(monkeypatch, name, settings):
    """Run *name* with a catch-all recorder between typed recorders;
    returns ``(raw, catch_all, [(types, recorder), ...])``."""
    catch_all = TraceRecorder()
    typed = [(types, TraceRecorder()) for types in TYPE_SETS]
    build = runner.build_network

    def build_and_subscribe(*args, **kwargs):
        net = build(*args, **kwargs)
        half = len(typed) // 2
        for types, rec in typed[:half]:
            net.env.obs.subscribe(rec, types=types)
        net.env.obs.subscribe(catch_all)
        for types, rec in typed[half:]:
            net.env.obs.subscribe(rec, types=types)
        return net

    monkeypatch.setattr(runner, "build_network", build_and_subscribe)
    mac_cls, kwargs = protocol_class(name)
    raw = run_raw(mac_cls, settings, 0, kwargs)
    monkeypatch.undo()
    return raw, catch_all, typed


@pytest.mark.parametrize("name,settings", CASES)
def test_typed_subscriber_sees_the_filtered_stream(monkeypatch, name, settings):
    raw, catch_all, typed = _observed_run(monkeypatch, name, settings)
    for types, rec in typed:
        expected = [e for e in catch_all.events if e.etype in types]
        assert rec.events == expected, types
        # The very same event objects, so the same payloads.
        assert all(a is b for a, b in zip(rec.events, expected))
    assert typed[0][1].events and typed[1][1].events and typed[2][1].events
    if settings is FAULTED:
        seen = {e.etype for e in catch_all.events}
        assert {"fault_crash", "fault_burst_loss", "ram_rate", "ram_update"} <= seen

    mac_cls, kwargs = protocol_class(name)
    bare = run_raw(mac_cls, settings, 0, kwargs)
    assert canon(raw.metrics()) == canon(bare.metrics())
    assert raw.counters.total == bare.counters.total
    assert raw.counters.per_node == bare.counters.per_node


def test_profiler_attaches_to_its_four_types_only():
    from repro.sim.kernel import Environment

    env = Environment()
    profiler = KernelPhaseProfiler().attach(env)
    for etype in EVENT_TYPES:
        assert getattr(env.obs, etype) == ((profiler,) if etype in _PHASE_STARTERS else ())
    profiler.detach()
    assert not env.obs.active


@pytest.mark.parametrize("name", ["BMMM", "LAMM"])
def test_profiler_slices_merge_when_non_starters_are_dropped(monkeypatch, name):
    """One recorded stream replayed into two profilers under a clock that
    reads each event's full-stream position: every event into one, the
    phase-starting ones only into the other.  A non-starter never
    switches phase, so the slices it splits merge back exactly."""
    raw, catch_all, typed = _observed_run(monkeypatch, name, SMALL)
    full = catch_all.events
    starters = typed[0][1].events
    assert full[0].etype not in _PHASE_STARTERS  # the leading rule is exercised
    assert 0 < len(starters) < len(full)
    stamp = {id(e): float(i) for i, e in enumerate(full)}
    now = [0.0]
    monkeypatch.setattr(profiler_mod, "perf_counter", lambda: now[0])

    def replay(events, total=None):
        prof = KernelPhaseProfiler()
        for event in events:
            now[0] = stamp[id(event)]
            prof(event)
        prof.finish(total)
        return prof

    every, only = replay(full), replay(starters)
    assert every.phase_seconds == only.phase_seconds
    assert len(only.phase_seconds) > 2
    assert sum(only.phase_events.values()) == len(starters)
    total = float(len(full) + 10)
    assert replay(full, total).phase_seconds == replay(starters, total).phase_seconds

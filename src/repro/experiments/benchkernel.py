"""Kernel and fast-path micro-benchmarks behind ``repro-mac bench-kernel``.

The sweep-level ``BENCH_<name>.json`` records end-to-end campaign
throughput; this module pins the *substrate* underneath it, one fast path
per case, so a regression can be attributed to the layer that caused it:

``timeout_churn``
    Raw event dispatch: one :meth:`Environment.timeout` per event through
    one process (events/sec).
``idle_network``
    A zero-traffic network: idle-slot skipping plus the event-driven
    kernel must make untrafficked simulated time almost free (slots/sec).
``sparse_network``
    A lightly loaded network -- long idle DIFS/backoff stretches between
    frames; the idle-slot skipper's bread-and-butter case (slots/sec).
``dense_network``
    The reception-heavy corner (4x the default rate): dominated by the
    channel's overlap scans and capture ranking, i.e. the vectorized
    reception tables (slots/sec).
``contention_heavy``
    The headline idle-slot-skipping case: sparse traffic contended with
    the 802.11 maximum window (CW = 1024), so each of a sender's
    per-receiver rounds burns hundreds of provably idle backoff slots.
    The pre-fast-path machine stepped the kernel once per slot here; the
    fast path collapses each solo phase to a handful of events.
``dense_contention``
    Many stations *simultaneously* in backoff with CW = 1024 (20x the
    contention_heavy arrival rate).  A contender sleeps through an idle
    run and wakes only when a transmission or NAV update changes its
    own medium, so concurrency neither cuts its sleeps short nor
    degrades the fast path toward per-slot stepping.  This case pins
    that concurrent win.
``bsma_storm``
    BSMA at the top of the paper's density sweep (140 stations, Table 2
    rate, capture on): every receiver of a broadcast RTS answers with
    CTS or NAK in the same slot, so reception is dominated by *storms*
    of frames sharing one ``(start, end)``, decided from one storm
    record per instant (slots/sec).  The only case not run with the
    record's protocol.
``observer_overhead``
    The price of looking: the same traffic-heavy run three times --
    unobserved (emit sites pay only their per-type guard), with a
    minimal counting subscriber to every type (every site builds and
    dispatches a :class:`SimEvent`: the worst case), and with the kernel
    phase profiler attached (only its four phase-starting types do).
    Metrics are bit-identical across the three (the no-op discipline);
    this case pins how much wall clock observation itself costs.

Every record is stamped with ``"code": code_stamp()`` (the git commit and
the simulation-code fingerprint, like
:func:`repro.experiments.sweep.bench_record`) so the bench trajectory
stays attributable across PRs; :func:`repro.experiments.sweep.save_bench`
writes it.  The results are wall
-clock measurements: meaningful relative to a baseline on the same
machine, not across machines.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.experiments.config import SimulationSettings, protocol_class
from repro.experiments.runner import run_raw
from repro.mac.contention import ContentionParams
from repro.sim.kernel import Environment
from repro.store.digests import code_stamp

__all__ = [
    "bench_timeout_churn",
    "bench_network_case",
    "bench_observer_overhead",
    "kernel_bench_record",
    "format_kernel_bench",
    "NETWORK_CASES",
]


def _timed(fn: Callable[[], object]) -> tuple[object, float]:
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def bench_timeout_churn(n_events: int = 200_000) -> dict:
    """Dispatch *n_events* timeouts through one process."""

    def run() -> float:
        env = Environment()

        def proc():
            for _ in range(n_events):
                yield env.timeout(1)

        env.process(proc())
        env.run()
        return env.now

    _, wall = _timed(run)
    return {
        "events": n_events,
        "wall_clock_s": wall,
        "events_per_sec": n_events / wall if wall > 0 else None,
    }


#: The full-simulation cases: name -> settings overrides (seed 0).
#: Two keys are not :class:`SimulationSettings` fields, so the case table
#: stays JSON-serializable for the bench record's settings echo: ``"cw"``
#: expands to ``contention=ContentionParams(cw_min=cw, cw_max=cw)``, and
#: ``"protocol"`` names the protocol the case runs instead of the one
#: :func:`bench_network_case` is given (BMMM by default).
NETWORK_CASES: dict[str, dict] = {
    "idle_network": {"n_nodes": 100, "horizon": 50_000, "message_rate": 0.0},
    "sparse_network": {"n_nodes": 60, "horizon": 20_000, "message_rate": 0.0001},
    "dense_network": {"n_nodes": 100, "horizon": 2_000, "message_rate": 0.002},
    "contention_heavy": {
        "n_nodes": 50,
        "horizon": 200_000,
        "message_rate": 0.00001,
        "cw": 1024,
    },
    "dense_contention": {
        "n_nodes": 50,
        "horizon": 20_000,
        "message_rate": 0.0002,
        "cw": 1024,
    },
    "bsma_storm": {
        "n_nodes": 140,
        "horizon": 5_000,
        "message_rate": 0.0005,
        "protocol": "BSMA",
    },
}


def bench_network_case(case: str, *, protocol: str = "BMMM", seed: int = 0) -> dict:
    """Run one :data:`NETWORK_CASES` scenario; report simulated slots/sec.

    *protocol* applies unless the case names its own."""
    overrides = NETWORK_CASES[case]
    kwargs_settings = dict(overrides)
    protocol = kwargs_settings.pop("protocol", protocol)
    cw = kwargs_settings.pop("cw", None)
    if cw is not None:
        kwargs_settings["contention"] = ContentionParams(cw_min=cw, cw_max=cw)
    settings = SimulationSettings(**kwargs_settings)
    mac_cls, kwargs = protocol_class(protocol)
    raw, wall = _timed(lambda: run_raw(mac_cls, settings, seed, kwargs))
    # slots/sec rates the simulator proper (the RunManifest convention):
    # world building and schedule pre-generation are setup, not stepping.
    simulate_s = raw.timings.get("simulate", 0.0)
    return {
        "protocol": protocol,
        "seed": seed,
        "settings": overrides,
        "n_requests": len(raw.requests),
        "sim_slots": float(settings.horizon),
        "wall_clock_s": wall,
        "simulate_s": simulate_s,
        "slots_per_sec": settings.horizon / simulate_s if simulate_s > 0 else None,
    }


#: The observer-overhead scenario: busy enough that emit sites fire often
#: (the guard's worst case), short enough to run three times per record.
_OBSERVER_CASE: dict = {"n_nodes": 60, "horizon": 2_000, "message_rate": 0.002}


def bench_observer_overhead(*, protocol: str = "BMMM", seed: int = 0) -> dict:
    """Price the event bus and its instruments on one busy scenario.

    Runs the same (settings, seed) three ways -- bare, with a minimal
    counting subscriber, and with the kernel phase profiler -- and
    reports simulate-phase slots/sec for each plus the observed/profiled
    overhead as a ratio over bare.  The three runs' delivery metrics are
    bit-identical (no-op discipline, pinned by the obs/profiler tests);
    only the wall clock is allowed to move.
    """
    settings = SimulationSettings(**_OBSERVER_CASE)
    mac_cls, kwargs = protocol_class(protocol)

    def one(**kw) -> tuple[float, object]:
        raw = run_raw(mac_cls, settings, seed, kwargs, **kw)
        return raw.timings.get("simulate", 0.0), raw

    bare_s, raw = one()
    seen = {"events": 0}

    def counting_subscriber(event) -> None:
        seen["events"] += 1

    observed_s, _ = one(subscribers=[counting_subscriber])
    profiled_s, _ = one(profile=True)
    horizon = float(settings.horizon)

    def rate(simulate_s: float) -> float | None:
        return horizon / simulate_s if simulate_s > 0 else None

    return {
        "protocol": protocol,
        "seed": seed,
        "settings": dict(_OBSERVER_CASE),
        "n_requests": len(raw.requests),
        "n_events": seen["events"],
        "sim_slots": horizon,
        "wall_clock_s": bare_s + observed_s + profiled_s,
        "bare_slots_per_sec": rate(bare_s),
        "observed_slots_per_sec": rate(observed_s),
        "profiled_slots_per_sec": rate(profiled_s),
        "observed_overhead": observed_s / bare_s if bare_s > 0 else None,
        "profiled_overhead": profiled_s / bare_s if bare_s > 0 else None,
    }


#: Per-case throughput field the best-of-N selection maximises.
_RATE_KEYS = ("events_per_sec", "slots_per_sec", "bare_slots_per_sec")


def _best_of(fn: Callable[[], dict], repeat: int) -> dict:
    """Run *fn* *repeat* times; keep the fastest sample.

    Wall-clock benchmarks are noisy downward only -- scheduler preemption
    and cache pollution make runs slower, never faster -- so the best of N
    is the least-noisy estimate of the code's true speed.  The kept sample
    carries the total measurement cost in ``measured_wall_clock_s``.
    """
    samples = [fn() for _ in range(max(1, repeat))]

    def rate(sample: dict) -> float:
        for key in _RATE_KEYS:
            if sample.get(key) is not None:
                return sample[key]
        return 0.0

    best = max(samples, key=rate)
    best["measured_wall_clock_s"] = sum(s["wall_clock_s"] for s in samples)
    return best


def kernel_bench_record(
    name: str = "kernel",
    *,
    churn_events: int = 200_000,
    protocol: str = "BMMM",
    repeat: int = 1,
) -> dict:
    """The ``BENCH_kernel.json`` payload: every case, provenance-stamped.

    *repeat* > 1 runs each case that many times and records the fastest
    sample per case (see :func:`_best_of`) -- the CI perf gate uses this
    to keep shared-runner noise out of the regression signal.
    """
    cases: dict[str, dict] = {
        "timeout_churn": _best_of(lambda: bench_timeout_churn(churn_events), repeat),
    }
    for case in NETWORK_CASES:
        cases[case] = _best_of(
            lambda case=case: bench_network_case(case, protocol=protocol), repeat
        )
    cases["observer_overhead"] = _best_of(
        lambda: bench_observer_overhead(protocol=protocol), repeat
    )
    return {
        "name": name,
        "kind": "kernel-bench",
        "code": code_stamp(),
        "churn_events": churn_events,
        "protocol": protocol,
        "repeat": max(1, repeat),
        "wall_clock_s": sum(c["measured_wall_clock_s"] for c in cases.values()),
        "cases": cases,
    }


def format_kernel_bench(record: dict) -> str:
    """Human-readable one-line-per-case summary of a bench record."""
    lines = [f"kernel bench '{record['name']}' ({record['wall_clock_s']:.2f}s total)"]
    for case, data in record["cases"].items():
        if "events_per_sec" in data:
            rate = data["events_per_sec"] or 0.0
            lines.append(
                f"  {case:<16} {rate:>14,.0f} events/s  ({data['events']:,} events)"
            )
        elif "bare_slots_per_sec" in data:
            bare = data["bare_slots_per_sec"] or 0.0
            observed = data["observed_overhead"]
            profiled = data["profiled_overhead"]
            lines.append(
                f"  {case:<16} {bare:>14,.0f} slots/s   "
                f"(observed x{observed:.2f}, profiled x{profiled:.2f}, "
                f"{data['n_events']:,} bus events)"
                if observed is not None and profiled is not None
                else f"  {case:<16} {bare:>14,.0f} slots/s"
            )
        else:
            rate = data["slots_per_sec"] or 0.0
            lines.append(
                f"  {case:<16} {rate:>14,.0f} slots/s   "
                f"({data['n_requests']} requests, horizon {data['sim_slots']:,.0f})"
            )
    return "\n".join(lines)

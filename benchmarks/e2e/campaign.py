"""Campaign benchmark workloads: inputs, the timed loop, output checks, metrics.

A workload is a grid of cells (protocol x sweep point x simulation seed)
run through the public campaign API, ``run_sweep(Scenario(...),
points=[...], processes=1)``, one *pass* (one ``run_sweep`` call) after
another while the next pass is expected to end inside the time box: a
single closed-loop client issuing campaigns back to back.  Pass ``p`` of a
run at ``--seed S`` simulates the seed block ``S + p*k .. S + p*k + k - 1``,
so the first pass is always ``S .. S+k-1``.  The ``store_warm`` workload
instead re-reads one fixed grid from a results store every pass.

This module imports ``repro``; the caller puts ``src`` on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib
import json
import os
import pickle
import resource
import shutil
import sqlite3
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

from repro import Scenario, SimulationSettings
from repro.mac.contention import ContentionParams

from hostspeed import REF_IMPORT_S, REFERENCE_IMPORT, HostClock
from layers import LAYERS, Tracer

# By module, not by name: the tracer patches ``run_sweep`` on the module
# (``repro.experiments.sweep`` is also the name of a function there).
sweep_mod = importlib.import_module("repro.experiments.sweep")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
EXPECTED = HERE / "expected.json"

#: The paper's four protocols, in its plotting order (fixed here, not read
#: from the registry, so the digests do not depend on registration order).
PAPER_PROTOCOLS = ("BMW", "BSMA", "BMMM", "LAMM")

#: Fresh-interpreter import probes per run; ``setup_s`` takes their median.
IMPORT_PROBES = 5


@dataclasses.dataclass(frozen=True)
class Workload:
    """One named workload; ``BENCHMARK.json`` says why each exists."""

    name: str
    points: tuple[SimulationSettings, ...]
    #: Simulation seeds per pass.
    seeds_per_pass: int
    #: ``bare``, ``cold_store`` (fresh store per pass), ``observed``
    #: (MAC-phase profiler + telemetry stream) or ``warm_store`` (every
    #: pass re-reads the same seeds from a store filled before timing).
    mode: str


def _workloads() -> dict[str, Workload]:
    table2 = SimulationSettings()
    fixed_cw = ContentionParams(cw_min=1024, cw_max=1024)
    # A cell serves message_rate x horizon messages per node (4-40 here);
    # much shorter cells would time the start-up transient rather than the
    # regime the workload is named for.  saturated runs 2500 slots, not
    # 5000, so a run spans three seeds: its traced layer shares, frames
    # received per transmission and kernel events per slot match the
    # 5000-slot cells' to within 1 point, 1% and 2%.
    wls = (
        Workload(
            "paper_density",
            tuple(table2.with_(n_nodes=n) for n in (40, 100, 140)),
            seeds_per_pass=1,
            mode="cold_store",
        ),
        Workload(
            "saturated",
            (table2.with_(n_nodes=100, message_rate=0.002, horizon=2500),),
            seeds_per_pass=1,
            mode="bare",
        ),
        Workload(
            "backoff_heavy",
            (
                table2.with_(
                    n_nodes=50, message_rate=0.0002, horizon=200_000, contention=fixed_cw
                ),
            ),
            seeds_per_pass=2,
            mode="bare",
        ),
        Workload(
            "store_warm",
            tuple(
                table2.with_(n_nodes=40, horizon=200, message_rate=r)
                for r in (0.00025, 0.0005, 0.001, 0.002)
            ),
            seeds_per_pass=50,
            mode="warm_store",
        ),
        Workload(
            "observed",
            (table2.with_(n_nodes=60, message_rate=0.002, horizon=2000),),
            seeds_per_pass=2,
            mode="observed",
        ),
    )
    return {wl.name: wl for wl in wls}


WORKLOADS = _workloads()


def pass_seeds(wl: Workload, seed: int, index: int) -> range:
    """Simulation seeds of pass *index* of a run at ``--seed seed``."""
    start = seed if wl.mode == "warm_store" else seed + index * wl.seeds_per_pass
    return range(start, start + wl.seeds_per_pass)


# --------------------------------------------------------------------------
# Outputs: digest and checks
# --------------------------------------------------------------------------


def cell_records(result):
    """Per-cell metrics and counters in planned-job order (point, seed,
    protocol).

    Each request's score enters whole (the per-cell averages the figures
    plot derive from them), minus its message id: ids come from a
    process-wide counter, so they depend on what ran earlier in the
    process."""
    for p in range(len(result.points)):
        for i, seed in enumerate(result.seeds):
            for proto in result.protocols:
                cell = result.cells[(p, proto)]
                m = cell.metrics[i]
                yield {
                    "point": p,
                    "protocol": proto,
                    "seed": seed,
                    "degree": cell.degrees[i],
                    "n_requests": m.n_requests,
                    "n_successful": m.n_successful,
                    "n_completed": m.n_completed,
                    "n_timed_out": m.n_timed_out,
                    "n_abandoned": m.n_abandoned,
                    "scores": [
                        (
                            s.kind.value,
                            s.status.value,
                            s.n_dests,
                            s.n_delivered,
                            s.completion_time,
                            s.service_time,
                            s.contention_phases,
                            s.rounds,
                        )
                        for s in m.all_scores
                    ],
                    "frames_sent": m.frames_sent,
                    "counters": m.counters,
                }


def result_digest(records) -> str:
    """Hash of :func:`cell_records` output: equal digests, equal results."""
    h = hashlib.sha256()
    for rec in records:
        h.update(json.dumps(rec, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def expected_digests() -> dict[str, str]:
    """Committed ``result_digest`` per workload at ``--seed 0``."""
    if not EXPECTED.exists():
        return {}
    return json.loads(EXPECTED.read_text())["digests"]


def cell_problems(records: list[dict]) -> list[tuple[int, str]]:
    """``(cell index, problem)`` for every cell breaking a per-cell
    invariant that holds for every seed.  (The request count is checked
    against the schedule in traced runs, where the injections are seen.)"""
    problems = []
    for idx, rec in enumerate(records):
        where = f"{rec['protocol']} point {rec['point']} seed {rec['seed']}"
        if not 0 <= rec["n_successful"] <= rec["n_requests"]:
            problems.append(
                (idx, f"{where}: {rec['n_successful']} of {rec['n_requests']} delivered")
            )
        counters = rec["counters"]
        if counters.get("contention_phases", 0) < counters.get("batch_rounds", 0):
            problems.append((idx, f"{where}: fewer contention phases than batch rounds"))
    return problems


# --------------------------------------------------------------------------
# One pass
# --------------------------------------------------------------------------


@dataclasses.dataclass
class Pass:
    seeds: list[int]
    wall_s: float
    cells: int
    #: Slots simulated in this pass (0 when every cell was a store hit).
    simulated_slots: float
    build_s: float
    inject_s: float
    cache_hits: int
    cache_misses: int
    store_hits: int
    store_misses: int
    digest: str | None
    failed: int
    problems: list[str]
    counters: dict[str, int]
    #: Part of ``wall_s`` spent in host-speed calibration chunks.
    cal_s: float = 0.0

    @property
    def work_s(self) -> float:
        return self.wall_s - self.cal_s


def run_pass(
    wl: Workload,
    seeds,
    workdir: Path,
    store_path: Path | None = None,
    clock: HostClock | None = None,
) -> Pass:
    """Run (and time) one ``run_sweep`` over the workload grid, then check
    it.  With a running *clock*, the pass records the calibration time
    that fell inside its wall time."""
    scenario = Scenario(settings=wl.points[0], protocols=PAPER_PROTOCOLS, seeds=seeds)
    n_cells = len(wl.points) * len(scenario.seeds) * len(PAPER_PROTOCOLS)
    kwargs: dict = {}
    if wl.mode == "cold_store":
        store_path = workdir / "cold.sqlite"
        store_path.unlink(missing_ok=True)
    if store_path is not None:
        kwargs["store"] = store_path
    if wl.mode == "observed":
        kwargs.update(profile=True, telemetry=workdir / "telemetry.jsonl")
    busy0 = clock.busy_s if clock is not None else 0.0
    t0 = perf_counter()
    try:
        result = sweep_mod.run_sweep(scenario, points=list(wl.points), processes=1, **kwargs)
        wall = perf_counter() - t0
        cal = clock.busy_s - busy0 if clock is not None else 0.0
        merged = sum(len(cell.metrics) for cell in result.cells.values())
        if merged != n_cells:
            raise RuntimeError(f"{merged} cells merged, {n_cells} planned")
    except Exception:
        return Pass(
            seeds=list(scenario.seeds), wall_s=perf_counter() - t0, cells=n_cells,
            simulated_slots=0.0, build_s=0.0, inject_s=0.0, cache_hits=0,
            cache_misses=0, store_hits=0, store_misses=0, digest=None, failed=n_cells,
            problems=[traceback.format_exc()], counters={},
        )
    records = list(cell_records(result))
    problems = cell_problems(records)
    counters: dict[str, int] = {}
    for rec in records:
        for key, n in rec["counters"].items():
            counters[key] = counters.get(key, 0) + n
    fresh = n_cells - result.store_hits
    return Pass(
        seeds=list(scenario.seeds),
        wall_s=wall,
        cells=n_cells,
        simulated_slots=result.sim_slots * fresh / n_cells,
        build_s=result.timings.get("build", 0.0),
        inject_s=result.timings.get("inject", 0.0),
        cache_hits=result.cache_hits,
        cache_misses=result.cache_misses,
        store_hits=result.store_hits,
        store_misses=result.store_misses,
        digest=result_digest(records),
        failed=len({idx for idx, _ in problems}),
        problems=[msg for _, msg in problems],
        counters=counters,
        cal_s=cal,
    )


def _warm_up(wl: Workload, seed: int, workdir: Path, store_path: Path | None) -> None:
    """One untimed pass, so lazily imported modules and per-process caches
    are loaded before timing starts.  Its cells are cut to 200 slots; a
    ``store_warm`` pass is short already and must hit the store as is."""
    if wl.mode != "warm_store":
        wl = dataclasses.replace(
            wl, points=tuple(p.with_(horizon=min(p.horizon, 200)) for p in wl.points)
        )
    run_pass(wl, pass_seeds(wl, seed, 0), workdir, store_path)


def _fail_digest(p: Pass, want: str | None, what: str) -> None:
    """Count every cell of *p* as failed when its digest is not *want*."""
    if want is not None and p.digest is not None and p.digest != want:
        p.problems.append(f"result digest {p.digest} != {what} {want}")
        p.failed = p.cells


# --------------------------------------------------------------------------
# A whole run
# --------------------------------------------------------------------------


def import_seconds(probes: int) -> list[tuple[float, float]]:
    """``(repro seconds, reference seconds)`` per probe: the wall time of
    ``import repro`` (registry loaded) in a fresh interpreter, then that of
    ``hostspeed.REFERENCE_IMPORT`` in another one."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    timed = "import time; t0 = time.perf_counter(); {}; print(time.perf_counter() - t0)"
    codes = (
        timed.format("import repro; from repro.experiments.config import PROTOCOLS"),
        timed.format(REFERENCE_IMPORT),
    )
    out = []
    for _ in range(probes):
        pair = []
        for code in codes:
            proc = subprocess.run(
                [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True,
                text=True, check=True, timeout=60,
            )
            pair.append(float(proc.stdout.split()[-1]))
        out.append((pair[0], pair[1]))
    return out


def fill_store(points, seeds, store_path) -> str:
    """Run the grid cold into *store_path*; returns its result digest."""
    scenario = Scenario(settings=points[0], protocols=PAPER_PROTOCOLS, seeds=seeds)
    result = sweep_mod.run_sweep(scenario, points=list(points), processes=1, store=store_path)
    return result_digest(cell_records(result))


def _fixture(wl: Workload, seed: int, workdir: Path) -> tuple[Path, str, float]:
    """Fill a store with the warm workload's grid; returns the store path,
    the cold result digest and the fill wall time.

    The fill runs in a child process, so the run's ``peak_rss_mb`` covers
    the warm passes alone.  The store file is put in WAL mode first, so
    the per-hit bookkeeping commit appends to the log instead of waiting
    on a disk flush.  With the default rollback journal, that flush was
    ~85% of a warm pass on the reference host and varied by 30% from run
    to run: the workload would have measured the disk, not the store code."""
    store_path = workdir / "warm.sqlite"
    with contextlib.closing(sqlite3.connect(store_path)) as conn:
        conn.execute("PRAGMA journal_mode=WAL")
    job = pickle.dumps((wl.points, pass_seeds(wl, seed, 0), store_path))
    code = "import pickle, sys, campaign; print(campaign.fill_store(*pickle.load(sys.stdin.buffer)))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code], input=job, env=env, cwd=ROOT,
        capture_output=True, check=True, timeout=170,
    )
    return store_path, proc.stdout.decode().split()[-1], perf_counter() - t0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run: set-up, the timed loop, checks and metrics.

    Returns the full report; ``report["result"]`` is the line the
    benchmark prints (``correct``/``attempted``/``failed``/``metrics``).
    """
    wl = WORKLOADS[name]
    (HERE / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=HERE / ".work"))
    try:
        imports = import_seconds(IMPORT_PROBES)
        store_path = fixture_digest = None
        fixture_s = 0.0
        if wl.mode == "warm_store":
            store_path, fixture_digest, fixture_s = _fixture(wl, seed, workdir)

        _warm_up(wl, seed, workdir, store_path)
        reference = tracer = clock = counts0 = None
        passes: list[Pass] = []
        with contextlib.ExitStack() as stack:
            if trace:
                # The first pass untraced, then traced: identical work, so
                # the two walls give the tracing overhead and the two
                # digests must agree.
                reference = run_pass(wl, pass_seeds(wl, seed, 0), workdir, store_path)
                tracer = Tracer().install()
                stack.callback(tracer.uninstall)
            else:
                # Untraced runs sample the host's speed while they work (a
                # traced run does not, so no calibration lands in a span).
                clock = stack.enter_context(HostClock())
            t_start = perf_counter()
            # Start a pass only if a typical pass still ends inside the box,
            # so a run lasts about --seconds even when one pass is long.
            while not passes or (
                perf_counter() - t_start + statistics.median(p.wall_s for p in passes)
                <= seconds
            ):
                p = run_pass(wl, pass_seeds(wl, seed, len(passes)), workdir, store_path, clock)
                if tracer is not None:
                    bad = tracer.check_injections()
                    if bad:
                        p.problems.extend(bad)
                        p.failed = p.cells
                    if not passes:
                        counts0 = tracer.snapshot()
                passes.append(p)
                if p.digest is None:
                    break  # run_sweep raised; the next pass would too

        first = passes[0]
        if seed == 0:
            _fail_digest(first, expected_digests().get(name), "expected.json")
        if fixture_digest is not None:
            for p in passes:
                _fail_digest(p, fixture_digest, "the fixture's cold digest")
        if reference is not None:
            _fail_digest(first, reference.digest, "the untraced digest")

        attempted = sum(p.cells for p in passes)
        failed = sum(p.failed for p in passes)
        wall = sum(p.wall_s for p in passes)
        # Host seconds of work, and the same in reference seconds (see
        # hostspeed): the end-to-end times are reported in the latter.
        work = sum(p.work_s for p in passes)
        slowness = clock.slowness() if clock is not None else None
        if trace:
            metrics = _layer_metrics(tracer, counts0, passes, reference)
        else:
            # build/inject are phase sums inside the pass, so they hold
            # calibration in the pass's proportion; scale that out.
            build_inject = statistics.median(
                (p.build_s + p.inject_s) * p.work_s / p.wall_s for p in passes
            )
            metrics = {
                "cells_per_s": (attempted * slowness / work, "1/s"),
                "setup_s": (
                    statistics.median(s * REF_IMPORT_S / ref for s, ref in imports)
                    + build_inject / slowness,
                    "s",
                ),
                "peak_rss_mb": (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "MB",
                ),
            }
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        return {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "result_digest": first.digest,
            "fail_rate": failed / attempted,
            # cells_per_s times the workload's fixed horizon, so not a
            # BENCHMARK.json metric; kept to compare with BENCH_kernel.json.
            # Nothing is simulated on store_warm.
            "slots_per_s": (
                sum(p.simulated_slots for p in passes) * slowness / work
                if wl.mode != "warm_store" and slowness is not None
                else None
            ),
            # How much slower than the reference host this run's host was,
            # and cells_per_s in host seconds (as a wall clock reads it).
            "slowness": slowness,
            "host_cells_per_s": attempted / work,
            "import_s": imports,
            "fixture_s": fixture_s,
            "passes": [
                {k: v for k, v in vars(p).items() if k != "counters"} for p in passes
            ],
            "layers": (
                {
                    "self_s": dict(tracer.self_s),
                    "calls": dict(tracer.calls),
                    "resumes": dict(tracer.resumes),
                    "traced_wall_s": wall,
                    "untraced_first_pass_s": reference.wall_s,
                }
                if trace
                else None
            ),
            "result": result,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _layer_metrics(tracer: Tracer, counts0: dict, passes: list[Pass], reference: Pass) -> dict:
    """Per-layer metrics of a traced run.

    Shares are over every traced pass; counts are exact counts of the
    first pass (seeds ``S .. S+k-1``), so they repeat run to run.
    """
    wall = sum(p.wall_s for p in passes)
    first = passes[0]
    calls = counts0["calls"]
    resumes = counts0["resumes"]
    share = {layer: tracer.self_s[layer] / wall for layer in LAYERS}
    covered = sum(tracer.self_s.values())
    tx = calls["channel.transmit"]
    rx = calls["channel.receive_at"]
    delivered = sum(n for k, n in first.counters.items() if k.startswith("frames_delivered."))
    m: dict[str, tuple[float, str]] = {
        "sweep.share": (share["sweep"], "fraction"),
        "sweep.cells": (first.cells, "count"),
        "workload.share": (share["workload"], "fraction"),
        "workload.cache_hit_rate": (
            _ratio(first.cache_hits, first.cache_hits + first.cache_misses),
            "fraction",
        ),
        "network.share": (share["network"], "fraction"),
        "metrics.share": (share["metrics"], "fraction"),
        "kernel.share": (share["kernel"], "fraction"),
        "kernel.events": (counts0["events"], "count"),
        "kernel.events_per_kslot": (
            _ratio(counts0["events"], first.simulated_slots / 1000.0),
            "count",
        ),
        "channel.tx.calls": (tx, "count"),
        "channel.tx.share": (share["channel.tx"], "fraction"),
        "channel.rx.calls": (rx, "count"),
        "channel.rx.share": (share["channel.rx"], "fraction"),
        "channel.rx_per_tx": (_ratio(rx, tx), "count"),
        "radio.deliver.calls": (calls["radio.deliver"], "count"),
        "radio.share": (share["radio"], "fraction"),
        "phy.capture.calls": (calls["phy.capture"], "count"),
        "phy.share": (share["phy"], "fraction"),
        "mac.rx.calls": (calls["mac.on_frame"], "count"),
        "mac.rx.share": (share["mac.rx"], "fraction"),
        "mac.nav.calls": (calls["mac.nav_set"], "count"),
        "mac.nav.share": (share["mac.nav"], "fraction"),
        "mac.nav_per_rx": (_ratio(calls["mac.nav_set"], calls["mac.on_frame"]), "count"),
        "contention.phases": (calls["contention.phase"], "count"),
        "contention.resumes": (resumes["contention"], "count"),
        "contention.share": (share["contention"], "fraction"),
        "contention.resumes_per_phase": (
            _ratio(resumes["contention"], calls["contention.phase"]),
            "count",
        ),
        "proto.share": (share["proto"], "fraction"),
    }
    for proto in PAPER_PROTOCOLS:
        m[f"proto.{proto}.simulate_share"] = (
            tracer.simulate_s.get(proto, 0.0) / wall,
            "fraction",
        )
    m.update(
        {
            "geometry.calls": (
                sum(n for b, n in calls.items() if b.startswith("geometry.")),
                "count",
            ),
            "geometry.share": (share["geometry"], "fraction"),
            "obs.emit.calls": (calls["obs.emit"], "count"),
            "obs.share": (share["obs"], "fraction"),
            "store.open.share": (share["store.open"], "fraction"),
            "store.get.calls": (calls["store.get"], "count"),
            "store.get.share": (share["store.get"], "fraction"),
            "store.put.calls": (calls["store.put"], "count"),
            "store.put.share": (share["store.put"], "fraction"),
            "store.hit_rate": (
                _ratio(first.store_hits, first.store_hits + first.store_misses),
                "fraction",
            ),
            "sim.frames_sent": (
                sum(n for k, n in first.counters.items() if k.startswith("frames_sent.")),
                "count",
            ),
            "sim.collisions": (first.counters.get("collisions", 0), "count"),
            "sim.retries": (first.counters.get("retries", 0), "count"),
            "sim.clean_rx_ratio": (
                _ratio(delivered - first.counters.get("captures", 0), rx),
                "fraction",
            ),
            "other.share": ((wall - covered) / wall, "fraction"),
            "trace.coverage": (covered / wall, "fraction"),
            "trace.overhead": (first.wall_s / reference.wall_s, "ratio"),
        }
    )
    return m

"""Command-line interface: regenerate any table/figure of the paper.

Examples::

    repro-mac table1
    repro-mac figure6a --seeds 5
    repro-mac figure7 --seeds 3 --out results/
    repro-mac all --seeds 2 --profile
    repro-mac trace figure6a --seed 1 --protocol LAMM --out results/
    repro-mac sweep --axis nodes --values 40,70,100 --seeds 5 --jobs 0
    repro-mac sweep --axis rate --seeds 20 --store results/store.sqlite
    repro-mac faults --axis burst --values 0,4,16,64 --seeds 3
    repro-mac gate --baseline results/sweep.json --store results/store.sqlite
    repro-mac bench-kernel --churn-events 100000 --out results/
    repro-mac sweep --seeds 5 --telemetry results/sweep.telemetry.jsonl
    repro-mac watch results/sweep.telemetry.jsonl
    repro-mac serve --store results/store.sqlite --workers 2 --seeds 5
    repro-mac work --store results/store.sqlite --campaign serve
    repro-mac store stats results/store.sqlite
    python -m repro figure5

The simulated figures (6-10) are views of one campaign
(:func:`~repro.experiments.figures.run_figures`): ``repro-mac all`` and
``repro-mac report`` run their 11 distinct sweep points once, and
``repro-mac figure9b`` runs only the points Figure 9(b) plots.  Every
``--out`` invocation also writes a ``<name>.manifest.json`` provenance
record (settings, seeds, package version, wall-clock) next to the JSON
result; ``--profile`` prints per-phase wall-clock timings.  The ``trace``
subcommand runs one scenario with the observability bus recording and
dumps the JSONL trace plus a lane diagram (see ``docs/observability.md``).

The grid subcommands -- ``sweep`` (a workload axis), ``faults`` (the
degradation study's fault axis, ``docs/faults.md``), ``rate-sweep`` (PHY
rate profiles) and ``serve`` (below) -- share one flag spec, one run path
(:func:`~repro.experiments.sweep.run_sweep`) and one output tail: the
per-point table, then ``<name>.json``, ``<name>.manifest.json`` and
``BENCH_<name>.json``.  With ``--store PATH`` a grid runs against the
content-addressed results store (computed cells are skipped, interrupted
campaigns resume -- ``docs/store.md``).  ``gate`` reruns the campaign
described by a previous sweep's results JSON and fails (exit 1) if
metrics, counters or throughput drifted, writing ``GATE_<name>.json``.

Campaign observability (``docs/telemetry.md``): ``--telemetry PATH`` on
any grid subcommand streams live progress (cells done/pending,
per-worker heartbeats, rolling slots/sec, ETA, per-cell phase spans) as
append-only JSONL; ``repro-mac watch PATH`` tails and renders it (or
``--once`` for a post-hoc snapshot).  ``--mac-profile`` attaches the
kernel phase profiler, attributing simulate wall clock to MAC phases
(DIFS/backoff, DATA, ACK collection, ...); ``repro-mac trace <figure>
--profile`` prints the same attribution for a single run.

The distributed campaign service (``docs/serve.md``): ``repro-mac
serve`` runs the same grid as ``sweep`` -- through ``run_sweep`` with a
``ServeBackend`` -- but dispatches pending cells through the results
store's lease queue, named by ``--name``.  ``repro-mac work --campaign
NAME`` processes -- on this host (``--workers N`` spawns them) or any
host that can reach the store file -- lease, simulate and commit them,
each writing heartbeats under ``<store>.workers/``.  The merged results
are bit-identical to a serial run, killed workers' leases expire and are
reclaimed, and a killed coordinator reruns with zero recomputation.
``repro-mac store stats|prune|vacuum`` is the store maintenance view:
cell counts by protocol and code fingerprint, hit totals, database size,
queue backlog; prune evicts stale-fingerprint cells and vacuum compacts
the file.

Subcommands report user errors (unknown protocol, missing baseline or
telemetry file, malformed JSON) as a one-line message on stderr and a
nonzero exit code -- never a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.experiments import figures as F
from repro.experiments.config import SimulationSettings
from repro.mac.registry import paper_protocols
from repro.experiments.plotting import render_figure
from repro.experiments.report import (
    format_counters,
    format_figure,
    format_table1,
    save_json,
)
from repro.obs.profile import PhaseTimer, format_timings

__all__ = [
    "main",
    "build_parser",
    "build_trace_parser",
    "build_sweep_parser",
    "build_rate_sweep_parser",
    "build_faults_parser",
    "build_gate_parser",
    "build_bench_kernel_parser",
    "build_watch_parser",
    "build_serve_parser",
    "build_work_parser",
    "build_store_parser",
]

#: Analytic / single-scenario experiments; the simulated ones are
#: ``F.FIGURES``.
_ANALYTIC = {"table1": F.table1, "figure2": F.figure2, "figure5": F.figure5}

EXPERIMENTS = sorted(_ANALYTIC) + sorted(F.FIGURES)


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for ``repro-mac`` / ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro-mac",
        description=(
            "Reproduce tables/figures from 'Reliable MAC Layer Multicast in "
            "IEEE 802.11 Wireless Networks' (ICPP 2002)."
        ),
        epilog="See also: 'repro-mac trace <figure> --seed S' records a JSONL event trace.",
    )
    parser.add_argument(
        "experiment",
        choices=EXPERIMENTS + ["all", "report"],
        help="which table/figure to regenerate ('report' writes a full "
        "Markdown reproduction report)",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        default=3,
        metavar="N",
        help="number of seeded runs to average (paper: 100; default: 3)",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="also save the result as JSON (plus a .manifest.json "
        "provenance record) under DIR",
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="additionally render an ASCII line chart of each figure",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the simulated sweeps (results are "
        "bit-identical to serial runs)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="report per-phase wall-clock timings (compute/render/save)",
    )
    return parser


def _save_experiment_manifest(name: str, args_ns, timer: PhaseTimer, out: str):
    from pathlib import Path

    from repro.obs.manifest import RunManifest

    manifest = RunManifest(
        wall_clock_s=timer.total,
        timings=dict(timer.timings),
        extra={
            "experiment": name,
            "n_seeds": getattr(args_ns, "seeds", None),
            "jobs": getattr(args_ns, "jobs", None),
        },
    )
    return manifest.save(Path(out) / f"{name}.manifest.json")


def _run_one(name: str, args_ns, result=None, compute_s: float = 0.0) -> None:
    """Print (and with ``--out`` save) one experiment.  A simulated
    figure arrives as *result*, read off a campaign that took
    *compute_s*; an analytic one is computed here."""
    out, chart = args_ns.out, args_ns.chart
    timer = PhaseTimer()
    if result is None:
        with timer.phase("compute"):
            result = _ANALYTIC[name]()
    else:
        timer.add("compute", compute_s)
    with timer.phase("render"):
        if name == "table1":
            print(format_table1(result))
        else:
            print(format_figure(result))
            if chart and name != "figure2":
                print()
                print(render_figure(result))
    print(f"[{name} done in {timer.total:.1f}s]")
    if out:
        with timer.phase("save"):
            path = save_json(result, out)
            manifest_path = _save_experiment_manifest(name, args_ns, timer, out)
        print(f"[saved {path}]")
        print(f"[manifest {manifest_path}]")
    if args_ns.profile:
        print(timer.report(title=f"{name} profile"))
    print()


# --------------------------------------------------------------------------
# The grid subcommands (`sweep`, `rate-sweep`, `faults`, `serve`): one spec
# --------------------------------------------------------------------------

#: Sweep axes (``--axis``): the figures' axes that set a settings field.
_SWEEP_AXES = {name: axis for name, axis in F.AXES.items() if axis.setting}

#: Per-run override flags (where a subcommand has them) -> settings field.
_OVERRIDES = {"nodes": "n_nodes", "rate": "message_rate", "horizon": "horizon"}

#: Counters worth a per-point summary line (when nonzero).
_FAULT_COUNTER_KEYS = (
    "faults.burst_losses",
    "faults.crashes",
    "faults.recoveries",
    "faults.rx_dropped",
    "faults.tx_suppressed",
    "faults.receiver_give_ups",
    "lamm.coverage_violations",
)


def _csv(text: str, parse=str) -> list:
    """A comma-separated flag value, empty items dropped."""
    return [parse(v) for v in text.split(",") if v]


def _base_settings(args) -> SimulationSettings:
    """Table-2 defaults plus whichever ``--nodes/--rate/--horizon`` overrides
    the subcommand has and the user set."""
    return SimulationSettings(
        **{
            field: getattr(args, flag)
            for flag, field in _OVERRIDES.items()
            if getattr(args, flag, None) is not None
        }
    )


def _axis_grid(args) -> tuple[list, list[SimulationSettings]]:
    """``--axis``/``--values`` of ``sweep``/``serve``: (values, points)."""
    axis = _SWEEP_AXES[args.axis]
    values = _csv(args.values, axis.parse) if args.values else list(axis.values)
    base = _base_settings(args)
    return values, [axis.point(base, v) for v in values]


def _grid_scenario(args):
    """The ``--protocols``/``--seeds`` half of a grid (the points carry the
    settings)."""
    from repro.experiments.scenario import Scenario

    return Scenario(protocols=tuple(_csv(args.protocols)), seeds=tuple(range(args.seeds)))


def _grid_kwargs(args) -> dict:
    """The :func:`~repro.experiments.sweep.run_sweep` keywords the shared
    grid flags set."""
    kwargs = {
        "store": args.store,
        "telemetry": args.telemetry,
        "profile": args.mac_profile,
        "campaign": args.name,
    }
    if "jobs" in args:
        kwargs["processes"] = args.jobs or None
    return kwargs


def _add_grid_arguments(
    parser: argparse.ArgumentParser,
    *,
    name: str,
    protocols: tuple[str, ...] | None = None,
    jobs: bool = True,
    store: bool = True,
) -> None:
    """The flags every grid subcommand shares."""
    protocols = ",".join(protocols or paper_protocols())
    parser.add_argument(
        "--protocols", default=protocols, metavar="P1,P2,...",
        help=f"protocols to run (default: {protocols})",
    )
    parser.add_argument(
        "--seeds", type=int, default=3, metavar="N",
        help="seeded runs per (point, protocol) cell (paper: 100; default 3)",
    )
    if jobs:
        parser.add_argument(
            "--jobs", type=int, default=0, metavar="N",
            help="worker processes (0 = one per CPU core, 1 = in-process; default 0)",
        )
    parser.add_argument(
        "--horizon", type=int, default=None, metavar="SLOTS",
        help="override simulation horizon at every point (smoke/CI runs)",
    )
    parser.add_argument(
        "--name", default=name, metavar="NAME",
        help=f"basename for the result/manifest/BENCH files, and the campaign "
        f"name of the telemetry stream and of serve's queue (default: {name})",
    )
    parser.add_argument(
        "--out", default="results", metavar="DIR",
        help="output directory (default results/)",
    )
    if store:
        parser.add_argument(
            "--store", default=None, metavar="PATH",
            help="content-addressed results store (SQLite): skip cells already "
            "computed under this settings digest + code fingerprint, commit "
            "fresh cells as they finish so an interrupted campaign resumes",
        )
    parser.add_argument(
        "--telemetry", default=None, metavar="PATH",
        help="stream live campaign telemetry (append-only JSONL: progress, "
        "worker heartbeats, per-cell phase spans) to PATH; follow it from "
        "another terminal with 'repro-mac watch PATH'",
    )
    parser.add_argument(
        "--mac-profile", action="store_true",
        help="attach the kernel phase profiler to every fresh run: simulate "
        "wall clock attributed to MAC phases (DIFS/backoff, DATA, ACK "
        "collection, ...), aggregated per protocol into the manifest; "
        "results stay bit-identical",
    )


def _print_execution(result) -> None:
    """The shared one-line execution summary of a finished grid."""
    if result.slots_per_sec is not None:
        rate = f"{result.slots_per_sec:,.0f} slots/s"
    elif result.store_served:
        rate = "store-served, no fresh throughput"
    else:
        rate = "0 slots/s"
    print(
        f"[{result.n_jobs} jobs, {result.processes} workers, chunksize {result.chunksize}; "
        f"world cache {result.cache_hits}/{result.cache_hits + result.cache_misses} hits; "
        f"{rate}]"
    )
    if result.store_path is not None:
        print(
            f"[store {result.store_path}: {result.store_hits} cells served, "
            f"{result.store_misses} computed]"
        )


def _finish_grid(
    args,
    result,
    axis: str,
    values: list,
    *,
    extra: dict | None = None,
    payload: dict | None = None,
    bench: dict | None = None,
) -> int:
    """The shared tail of every grid subcommand.

    Prints the per-point table, phase timings, the execution line and the
    ``--mac-profile``/``--telemetry`` report; then writes
    ``<name>.json`` (plus *payload* keys), ``<name>.manifest.json`` (plus
    *extra*) and ``BENCH_<name>.json`` holding the *bench* record
    (default: the sweep engine's record).
    """
    from pathlib import Path

    from repro.experiments.sweep import bench_record, save_bench, sweep_manifest
    from repro.obs.counters import merge_counter_dicts
    from repro.obs.profiler import format_phase_profile
    from repro.obs.records import write_json

    for idx, value in enumerate(values):
        degrees = result.point_degrees(idx)
        print(f"== {axis} = {value} (mean degree {sum(degrees) / len(degrees):.2f}) ==")
        means = [result.mean(idx, proto) for proto in result.protocols]
        for proto, mm in zip(result.protocols, means):
            print(
                f"  {proto:<10} delivery {mm.delivery_rate:6.3f}"
                f"  phases {mm.avg_contention_phases:7.2f}"
                f"  completion {mm.avg_completion_time:8.1f}"
                f"  ({mm.n_runs} runs, {mm.n_requests} requests)"
            )
        counters = merge_counter_dicts(mm.counters for mm in means)
        hits = {k: counters[k] for k in _FAULT_COUNTER_KEYS if counters.get(k)}
        if hits:
            print("  faults: " + "  ".join(f"{k.split('.', 1)[1]}={n}" for k, n in hits.items()))
    print()
    print(format_timings(result.timings, title=f"{args.name} phases"))
    _print_execution(result)
    for proto, phases in (result.mac_profile or {}).items():
        if phases:
            print(format_phase_profile(phases, title=f"{proto} MAC phase profile"))
    if result.telemetry_path is not None:
        print(f"[telemetry {result.telemetry_path}]")

    out_dir = Path(args.out)
    result_path = write_json(
        out_dir / f"{args.name}.json", {**result.as_dict(), **(payload or {})}
    )
    manifest = sweep_manifest(result, name=args.name)
    manifest.extra.update(extra or {})
    manifest_path = manifest.save(out_dir / f"{args.name}.manifest.json")
    bench_path = save_bench(bench or bench_record(result, args.name), out_dir)
    print(format_counters(manifest.counters, title="grid counter totals"))
    print(f"[results {result_path}]")
    print(f"[manifest {manifest_path}]")
    print(f"[bench {bench_path}]")
    return 0


def _add_axis_arguments(parser: argparse.ArgumentParser) -> None:
    """``--axis``/``--values``, shared by ``sweep`` and ``serve``."""
    parser.add_argument(
        "--axis", choices=sorted(_SWEEP_AXES), default="nodes",
        help="which Table-2 parameter the points sweep (default: nodes)",
    )
    parser.add_argument(
        "--values", default=None, metavar="V1,V2,...",
        help="comma-separated sweep values (defaults: the paper's sweep "
        "for the chosen axis)",
    )


def build_sweep_parser() -> argparse.ArgumentParser:
    """Argument parser for the ``repro-mac sweep`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro-mac sweep",
        description=(
            "Run a protocols x points x seeds grid through the sweep engine: "
            "one long-lived process pool, shared topology/schedule builds per "
            "(point, seed) cell, bit-identical metrics to serial runs."
        ),
    )
    _add_axis_arguments(parser)
    _add_grid_arguments(parser, name="sweep")
    return parser


def _sweep_main(argv: list[str]) -> int:
    from repro.experiments.sweep import run_sweep

    args = build_sweep_parser().parse_args(argv)
    values, points = _axis_grid(args)
    result = run_sweep(_grid_scenario(args), points, **_grid_kwargs(args))
    return _finish_grid(args, result, args.axis, values)


# --------------------------------------------------------------------------
# `repro-mac rate-sweep` -- throughput vs reliability across MCS spreads
# --------------------------------------------------------------------------


def build_rate_sweep_parser() -> argparse.ArgumentParser:
    """Argument parser for the ``repro-mac rate-sweep`` subcommand."""
    from repro.experiments.ratesweep import RATE_PROFILES, RATE_SWEEP_PROTOCOLS

    parser = argparse.ArgumentParser(
        prog="repro-mac rate-sweep",
        description=(
            "Rate sweep: run the same Table-2 world under widening PHY rate "
            "tables (single-rate up to an aggressive 3-tier MCS spread) and "
            "compare fixed-rate vs. rate-adaptive multicast -- delivered "
            "throughput against reliability.  Writes BENCH_<name>.json."
        ),
    )
    parser.add_argument(
        "--profiles",
        default=",".join(RATE_PROFILES),
        metavar="P1,P2,...",
        help=f"rate profiles to sweep (default: {','.join(RATE_PROFILES)})",
    )
    parser.add_argument("--nodes", type=int, default=None, metavar="N", help="override node count")
    _add_grid_arguments(parser, name="rate", protocols=RATE_SWEEP_PROTOCOLS)
    return parser


def _rate_sweep_main(argv: list[str]) -> int:
    from repro.experiments.ratesweep import rate_bench_record, rate_points
    from repro.experiments.sweep import run_sweep

    args = build_rate_sweep_parser().parse_args(argv)
    names = _csv(args.profiles)
    points = rate_points(_base_settings(args), names)
    result = run_sweep(_grid_scenario(args), points, **_grid_kwargs(args))
    return _finish_grid(
        args,
        result,
        "profile",
        names,
        extra={"kind": "rate-sweep", "rate_profiles": names},
        payload={"rate_profiles": names},
        bench=rate_bench_record(result, names, args.name),
    )


# --------------------------------------------------------------------------
# `repro-mac faults` -- degradation study over one fault axis
# --------------------------------------------------------------------------


def build_faults_parser() -> argparse.ArgumentParser:
    """Argument parser for the ``repro-mac faults`` subcommand."""
    from repro.experiments.degradation import FAULT_AXES

    parser = argparse.ArgumentParser(
        prog="repro-mac faults",
        description=(
            "Degradation study: sweep one fault axis (Gilbert-Elliott burst "
            "length, node-churn rate, or location-error sigma) through the "
            "sweep engine and report delivery/contention decay per protocol."
        ),
    )
    parser.add_argument(
        "--axis",
        choices=sorted(FAULT_AXES),
        default="burst",
        help="which impairment the points sweep (default: burst)",
    )
    parser.add_argument(
        "--values",
        default=None,
        metavar="V1,V2,...",
        help="comma-separated axis values (default: the study's grid for "
        "the chosen axis; 0 = benign baseline point)",
    )
    parser.add_argument(
        "--burst-loss", type=float, default=0.2, metavar="P",
        help="stationary BAD-state share held fixed while the burst axis "
        "varies burstiness (default 0.2)",
    )
    parser.add_argument(
        "--base-burst", type=float, default=0.0, metavar="SLOTS",
        help="add a fixed Gilbert-Elliott burst (mean length SLOTS) under "
        "every point of a churn/sigma sweep (0 = off; default 0)",
    )
    parser.add_argument(
        "--downtime", type=float, default=200.0, metavar="SLOTS",
        help="mean downtime of a crashed node (default 200)",
    )
    parser.add_argument(
        "--give-up", type=int, default=0, metavar="N",
        help="per-receiver retry cap at every point (0 = never; default 0)",
    )
    parser.add_argument("--nodes", type=int, default=None, metavar="N", help="override node count")
    parser.add_argument(
        "--rate", type=float, default=None, metavar="R", help="override message generation rate"
    )
    _add_grid_arguments(parser, name="faults")
    return parser


def _faults_main(argv: list[str]) -> int:
    from repro.experiments.degradation import FAULT_AXES, degradation_points, fault_plan_for
    from repro.experiments.sweep import run_sweep
    from repro.faults import FaultPlan

    args = build_faults_parser().parse_args(argv)
    values = _csv(args.values, float) if args.values else list(FAULT_AXES[args.axis])
    base_plan = FaultPlan(receiver_give_up=args.give_up)
    if args.base_burst > 0:
        base_plan = fault_plan_for(
            "burst", args.base_burst, stationary_loss=args.burst_loss, base=base_plan
        )
    base = _base_settings(args).with_(faults=base_plan)
    points = degradation_points(
        base,
        args.axis,
        values,
        stationary_loss=args.burst_loss,
        mean_downtime=args.downtime,
    )
    result = run_sweep(_grid_scenario(args), points, **_grid_kwargs(args))
    return _finish_grid(
        args,
        result,
        args.axis,
        values,
        extra={"kind": "faults", "fault_axis": args.axis, "fault_values": values},
        payload={"fault_axis": {"axis": args.axis, "values": values}},
    )


# --------------------------------------------------------------------------
# `repro-mac gate` -- regression gate against a stored baseline campaign
# --------------------------------------------------------------------------


def build_gate_parser() -> argparse.ArgumentParser:
    """Argument parser for the ``repro-mac gate`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro-mac gate",
        description=(
            "Regression gate: rerun the campaign recorded in a previous "
            "sweep's results JSON (its points/protocols/seeds define the "
            "grid) and compare fresh metrics, counter totals and slots/sec "
            "throughput against the baseline with configurable tolerances. "
            "Writes GATE_<name>.json and exits 1 on failure."
        ),
    )
    parser.add_argument(
        "--baseline", required=True, metavar="REF",
        help="path to the baseline results JSON (written by 'repro-mac "
        "sweep --out'; the gate reruns exactly that grid)",
    )
    parser.add_argument(
        "--store", default=None, metavar="PATH",
        help="results store: cells already computed are served from SQLite, "
        "making gate-every-push affordable (bench check is skipped when "
        "the whole campaign came from the store)",
    )
    parser.add_argument(
        "--jobs", type=int, default=0, metavar="N",
        help="worker processes (0 = one per CPU core, 1 = in-process; default 0)",
    )
    parser.add_argument(
        "--metric-tol", type=float, default=0.0, metavar="REL",
        help="relative tolerance on scalar metrics (default 0.0 = demand "
        "bit-identical results)",
    )
    parser.add_argument(
        "--bench-tol", type=float, default=0.25, metavar="FRAC",
        help="fresh slots/sec must be at least FRAC of the baseline's "
        "(default 0.25 -- catches order-of-magnitude regressions, "
        "tolerates noisy CI boxes)",
    )
    parser.add_argument(
        "--no-counters", action="store_true",
        help="skip the exact per-cell counter comparison",
    )
    parser.add_argument(
        "--name", default="gate", metavar="NAME",
        help="basename for the GATE_<name>.json report (default: gate)",
    )
    parser.add_argument(
        "--out", default="results", metavar="DIR",
        help="output directory (default results/)",
    )
    return parser


def _gate_main(argv: list[str]) -> int:
    from pathlib import Path

    from repro.store.gate import GateTolerances, format_gate_report, run_gate

    args = build_gate_parser().parse_args(argv)
    baseline_path = Path(args.baseline)
    baseline = json.loads(baseline_path.read_text())
    tolerances = GateTolerances(
        metric_rel_tol=args.metric_tol,
        bench_min_frac=args.bench_tol,
        check_counters=not args.no_counters,
    )
    report, result = run_gate(
        baseline,
        name=args.name,
        baseline_ref=str(baseline_path),
        processes=args.jobs or None,
        store=args.store,
        tolerances=tolerances,
    )
    _print_execution(result)
    print(format_gate_report(report))
    report_path = report.save(Path(args.out) / f"GATE_{args.name}.json")
    print(f"[gate report {report_path}]")
    return 0 if report.passed else 1


# --------------------------------------------------------------------------
# `repro-mac bench-kernel` -- substrate micro-benchmarks (BENCH_kernel.json)
# --------------------------------------------------------------------------


def build_bench_kernel_parser() -> argparse.ArgumentParser:
    """Argument parser for the ``repro-mac bench-kernel`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro-mac bench-kernel",
        description=(
            "Micro-benchmark the simulation substrate, one fast path per "
            "case (kernel timeout churn, pooled sleep churn, idle / sparse "
            "/ dense network runs) and write a provenance-stamped "
            "BENCH_<name>.json record (see docs/simulator.md)."
        ),
    )
    parser.add_argument(
        "--churn-events", type=int, default=200_000, metavar="N",
        help="events dispatched by the kernel churn cases (default 200000)",
    )
    parser.add_argument(
        "--protocol", default="BMMM", metavar="NAME",
        help="protocol for the network cases that name none (default BMMM)",
    )
    parser.add_argument(
        "--name", default="kernel", metavar="NAME",
        help="basename for the BENCH_<name>.json record (default: kernel)",
    )
    parser.add_argument(
        "--repeat", type=int, default=1, metavar="N",
        help=(
            "run each case N times and record the fastest sample "
            "(best-of-N; wall-clock noise is one-sided, default 1)"
        ),
    )
    parser.add_argument(
        "--out", default="results", metavar="DIR",
        help="output directory (default results/)",
    )
    return parser


def _bench_kernel_main(argv: list[str]) -> int:
    from repro.experiments.benchkernel import format_kernel_bench, kernel_bench_record
    from repro.experiments.sweep import save_bench

    args = build_bench_kernel_parser().parse_args(argv)
    record = kernel_bench_record(
        args.name,
        churn_events=args.churn_events,
        protocol=args.protocol,
        repeat=args.repeat,
    )
    print(format_kernel_bench(record))
    path = save_bench(record, args.out)
    print(f"[bench {path}]")
    return 0


# --------------------------------------------------------------------------
# `repro-mac trace` -- record one scenario's JSONL trace + lane diagram
# --------------------------------------------------------------------------


def build_trace_parser() -> argparse.ArgumentParser:
    """Argument parser for the ``repro-mac trace`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro-mac trace",
        description=(
            "Run one scenario -- the Table-2 operating point every simulated "
            "figure shares, changed only by --nodes/--rate/--horizon -- with "
            "the observability bus recording; dump the JSONL trace, a lane "
            "diagram, and a run manifest."
        ),
    )
    parser.add_argument(
        "figure",
        choices=sorted(F.FIGURES),
        help="the figure the trace is filed under: it names the output files "
        "and the manifest's \"figure\" entry; it does not change the "
        "scenario (use --nodes/--rate/--horizon for that)",
    )
    parser.add_argument("--seed", type=int, default=0, metavar="S", help="run seed (default 0)")
    parser.add_argument(
        "--protocol",
        default="BMMM",
        metavar="NAME",
        help="protocol to trace (default BMMM; any registry name works)",
    )
    parser.add_argument(
        "--out",
        default="results",
        metavar="DIR",
        help="directory for the .jsonl trace and .manifest.json (default results/)",
    )
    parser.add_argument("--nodes", type=int, default=None, metavar="N", help="override node count")
    parser.add_argument(
        "--horizon", type=int, default=None, metavar="SLOTS", help="override simulation horizon"
    )
    parser.add_argument(
        "--rate", type=float, default=None, metavar="R", help="override message generation rate"
    )
    parser.add_argument(
        "--lane-width",
        type=int,
        default=120,
        metavar="SLOTS",
        help="max slots rendered in the lane diagram (default 120)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="print build/inject/simulate phase timings plus the kernel "
        "phase profiler's MAC-phase attribution of the simulate time",
    )
    return parser


def _trace_main(argv: list[str]) -> int:
    from pathlib import Path

    from repro.experiments.config import protocol_class
    from repro.experiments.runner import run_raw
    from repro.obs.trace import (
        JsonlTraceWriter,
        frame_type_counts,
        lane_diagram,
        load_trace,
        transmissions_from_trace,
    )

    args = build_trace_parser().parse_args(argv)
    settings = _base_settings(args)
    mac_cls, kwargs = protocol_class(args.protocol)

    out_dir = Path(args.out)
    stem = f"trace_{args.figure}_{args.protocol}_seed{args.seed}"
    trace_path = out_dir / f"{stem}.jsonl"
    with JsonlTraceWriter(trace_path) as writer:
        raw = run_raw(
            mac_cls, settings, args.seed, kwargs,
            subscribers=[writer], profile=args.profile,
        )

    events = load_trace(trace_path)
    print(lane_diagram(transmissions_from_trace(events), max_width=args.lane_width))
    print()
    tx_counts = frame_type_counts(events)
    summary = "  ".join(f"{ft}={n}" for ft, n in sorted(tx_counts.items()))
    print(f"[{len(events)} events; frames on air: {summary or '(none)'}]")
    print(format_counters(dict(raw.counters.total), title="run counters"))

    manifest = raw.manifest(protocol=args.protocol)
    manifest.extra.update({"figure": args.figure, "trace": str(trace_path)})
    manifest_path = manifest.save(out_dir / f"{stem}.manifest.json")
    print(f"[trace {trace_path}]")
    print(f"[manifest {manifest_path}]")
    if args.profile:
        from repro.obs.profiler import format_phase_profile

        print(format_timings(raw.timings, title="run profile"))
        if raw.mac_profile:
            print(format_phase_profile(raw.mac_profile, title="MAC phase profile"))
    return 0


# --------------------------------------------------------------------------
# `repro-mac watch` -- tail/render a campaign telemetry stream
# --------------------------------------------------------------------------


def build_watch_parser() -> argparse.ArgumentParser:
    """Argument parser for the ``repro-mac watch`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro-mac watch",
        description=(
            "Render a campaign telemetry stream (written by 'repro-mac sweep "
            "--telemetry PATH') as a single-screen progress view: cells "
            "done/pending/store-served, per-worker heartbeats, rolling "
            "slots/sec, ETA, span phase totals.  Follows a live stream "
            "until its 'end' record; works post-hoc on finished or "
            "interrupted streams."
        ),
    )
    parser.add_argument(
        "stream", metavar="FILE",
        help="the telemetry JSONL file to watch",
    )
    parser.add_argument(
        "--once", action="store_true",
        help="render the current state once and exit (post-hoc snapshot)",
    )
    parser.add_argument(
        "--interval", type=float, default=1.0, metavar="S",
        help="refresh period in follow mode (default 1.0s)",
    )
    return parser


def _watch_main(argv: list[str]) -> int:
    from pathlib import Path

    from repro.obs.telemetry import load_telemetry, render_telemetry

    args = build_watch_parser().parse_args(argv)
    path = Path(args.stream)
    if not path.is_file():
        raise FileNotFoundError(f"no telemetry stream at {path}")
    stream = load_telemetry(path)
    print(render_telemetry(stream))
    if args.once or stream.completed:
        return 0
    try:
        while not stream.completed:
            time.sleep(max(args.interval, 0.05))
            stream = load_telemetry(path)
            # Redraw in place: clear screen, home cursor, render again.
            print("\x1b[2J\x1b[H" + render_telemetry(stream))
    except KeyboardInterrupt:
        print()
        return 130
    return 0


# --------------------------------------------------------------------------
# `repro-mac serve` / `repro-mac work` -- the distributed campaign service
# --------------------------------------------------------------------------


def build_serve_parser() -> argparse.ArgumentParser:
    """Argument parser for the ``repro-mac serve`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro-mac serve",
        description=(
            "Coordinate a distributed campaign: plan the same grid as "
            "'repro-mac sweep', enqueue pending cells into the results "
            "store's lease queue, and merge results committed by 'repro-mac "
            "work' processes (local via --workers, or on any host sharing "
            "the store) in planned-job order -- bit-identical to a serial "
            "run.  Killed workers' leases expire and are reclaimed; "
            "rerunning a killed coordinator recomputes nothing."
        ),
    )
    parser.add_argument(
        "--store", required=True, metavar="PATH",
        help="the results store (SQLite): coordination substrate and "
        "result sink; workers must point at the same file",
    )
    _add_axis_arguments(parser)
    parser.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="spawn N local 'repro-mac work' processes for the campaign "
        "(default 0: wait for externally attached workers)",
    )
    parser.add_argument(
        "--lease-ttl", type=float, default=30.0, metavar="S",
        help="lease expiry horizon handed to spawned workers and used for "
        "reclamation (default 30s; must exceed one cell's simulate time)",
    )
    parser.add_argument(
        "--poll", type=float, default=0.5, metavar="S",
        help="coordinator poll period: collect/reclaim/fold cadence "
        "(default 0.5s)",
    )
    parser.add_argument(
        "--wait-timeout", type=float, default=None, metavar="S",
        help="fail if no cell is committed for S seconds (default: wait "
        "forever -- daemon mode, workers come and go)",
    )
    _add_grid_arguments(parser, name="serve", jobs=False, store=False)
    return parser


def _serve_main(argv: list[str]) -> int:
    from repro.experiments.sweep import run_sweep
    from repro.serve.service import ServeBackend

    args = build_serve_parser().parse_args(argv)
    values, points = _axis_grid(args)
    backend = ServeBackend(
        lease_ttl=args.lease_ttl,
        poll_s=args.poll,
        spawn_workers=args.workers,
        wait_timeout=args.wait_timeout,
    )
    result = run_sweep(
        _grid_scenario(args), points, backend=backend, **_grid_kwargs(args)
    )
    print(
        f"[campaign {args.name}: {backend.workers_seen} workers, "
        f"{backend.reclaimed} leases reclaimed]"
    )
    return _finish_grid(
        args,
        result,
        args.axis,
        values,
        extra={
            "kind": "serve",
            "campaign": args.name,
            "workers_seen": backend.workers_seen,
            "leases_reclaimed": backend.reclaimed,
        },
    )


def build_work_parser() -> argparse.ArgumentParser:
    """Argument parser for the ``repro-mac work`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro-mac work",
        description=(
            "Run one campaign worker: lease batches of pending cells from "
            "the store, simulate each through the same run_job path the "
            "process pool uses, and commit every result atomically with "
            "its lease transition; heartbeats go to <store>.workers/.  "
            "Exits when the campaign completes or has been collected; a "
            "killed worker's leases simply expire and its cells are "
            "reclaimed."
        ),
    )
    parser.add_argument(
        "--store", required=True, metavar="PATH",
        help="the coordinator's results store (same file/path)",
    )
    parser.add_argument(
        "--campaign", required=True, metavar="NAME",
        help="campaign queue to serve (the coordinator's --name)",
    )
    parser.add_argument(
        "--id", default=None, metavar="WID",
        help="worker identity in leases and telemetry (default: "
        "<hostname>-<pid>)",
    )
    parser.add_argument(
        "--lease-ttl", type=float, default=30.0, metavar="S",
        help="lease expiry horizon; renewed between cells (default 30s)",
    )
    parser.add_argument(
        "--poll", type=float, default=0.2, metavar="S",
        help="sleep between empty lease attempts (default 0.2s)",
    )
    parser.add_argument(
        "--max-cells", type=int, default=None, metavar="N",
        help="stop after N cells (default: run until the campaign is done)",
    )
    parser.add_argument(
        "--idle-timeout", type=float, default=None, metavar="S",
        help="exit after S seconds with nothing to lease (default: wait "
        "forever for work)",
    )
    return parser


def _work_main(argv: list[str]) -> int:
    from pathlib import Path

    from repro.serve.worker import work_campaign

    args = build_work_parser().parse_args(argv)
    if not Path(args.store).is_file():
        raise FileNotFoundError(
            f"no results store at {args.store}; start the coordinator "
            "('repro-mac serve --store PATH') first"
        )
    report = work_campaign(
        args.store,
        args.campaign,
        worker_id=args.id,
        lease_ttl=args.lease_ttl,
        poll_s=args.poll,
        max_cells=args.max_cells,
        idle_timeout=args.idle_timeout,
    )
    print(
        f"[worker {report.worker_id} campaign {report.campaign}: "
        f"{report.cells_done} cells in {report.wall_clock_s:.1f}s "
        f"({report.leases_taken} leases, {report.cells_stolen} stolen, "
        f"simulate {report.simulate_s:.1f}s)"
    )
    return 0


# --------------------------------------------------------------------------
# `repro-mac store` -- results-store maintenance (stats / prune / vacuum)
# --------------------------------------------------------------------------


def build_store_parser() -> argparse.ArgumentParser:
    """Argument parser for the ``repro-mac store`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro-mac store",
        description=(
            "Results-store maintenance.  'stats' reports cell counts by "
            "protocol and code fingerprint, served-hit totals, payload and "
            "file bytes, and any campaign queue backlog; 'prune' evicts "
            "cells (and queue rows) from other code fingerprints; 'vacuum' "
            "compacts the database file."
        ),
    )
    parser.add_argument(
        "action", choices=["stats", "prune", "vacuum"],
        help="what to do to the store",
    )
    parser.add_argument("store", metavar="PATH", help="the store's SQLite file")
    parser.add_argument(
        "--json", action="store_true",
        help="emit 'stats' as machine-readable JSON",
    )
    parser.add_argument(
        "--keep-fingerprint", default=None, metavar="FP",
        help="fingerprint 'prune' keeps (default: the current code's)",
    )
    parser.add_argument(
        "--vacuum", action="store_true", dest="also_vacuum",
        help="compact the file after 'prune'",
    )
    return parser


def _fmt_bytes(n: int | None) -> str:
    if n is None:
        return "?"
    for unit in ("B", "KiB", "MiB", "GiB"):
        if n < 1024 or unit == "GiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{n} B"
        n /= 1024
    return f"{n} B"  # pragma: no cover - loop always returns


def _format_store_stats(stats: dict) -> str:
    lines = [
        f"store {stats['path']} (schema v{stats['schema_version']}, "
        f"{_fmt_bytes(stats['db_bytes'])} on disk)",
        f"  cells: {stats['n_results']} across {stats['n_fingerprints']} "
        f"fingerprint(s), {_fmt_bytes(stats['payload_bytes'])} payload, "
        f"{stats['total_hits']} hits served",
    ]
    if stats["by_protocol"]:
        lines.append(
            "  by protocol: "
            + "  ".join(f"{p}={n}" for p, n in stats["by_protocol"].items())
        )
    if stats["by_fingerprint"]:
        lines.append(
            "  by fingerprint: "
            + "  ".join(f"{fp[:12]}={n}" for fp, n in stats["by_fingerprint"].items())
        )
    if stats["queue_rows"]:
        backlog = "  ".join(f"{c}={n}" for c, n in stats["campaigns"].items())
        lines.append(f"  queue: {stats['queue_rows']} row(s) -- {backlog}")
    else:
        lines.append("  queue: empty")
    return "\n".join(lines)


def _store_main(argv: list[str]) -> int:
    from pathlib import Path

    from repro.store.db import ResultStore

    args = build_store_parser().parse_args(argv)
    if not Path(args.store).is_file():
        raise FileNotFoundError(f"no results store at {args.store}")
    store = ResultStore(args.store)
    try:
        if args.action == "stats":
            stats = store.stats()
            if args.json:
                print(json.dumps(stats, indent=2, default=str))
            else:
                print(_format_store_stats(stats))
        elif args.action == "prune":
            before = store.stats()["db_bytes"]
            evicted = store.prune(args.keep_fingerprint)
            print(f"[pruned {evicted} stale-fingerprint cell(s)]")
            if args.also_vacuum:
                store.vacuum()
                after = store.stats()["db_bytes"]
                print(f"[vacuum: {_fmt_bytes(before)} -> {_fmt_bytes(after)}]")
        else:  # vacuum
            before = store.stats()["db_bytes"]
            store.vacuum()
            after = store.stats()["db_bytes"]
            print(f"[vacuum: {_fmt_bytes(before)} -> {_fmt_bytes(after)}]")
    finally:
        store.close()
    return 0


#: Subcommand dispatch table (argv[0] -> implementation).
_SUBCOMMANDS = {
    "trace": _trace_main,
    "sweep": _sweep_main,
    "rate-sweep": _rate_sweep_main,
    "faults": _faults_main,
    "gate": _gate_main,
    "bench-kernel": _bench_kernel_main,
    "watch": _watch_main,
    "serve": _serve_main,
    "work": _work_main,
    "store": _store_main,
}


def _run_subcommand(func, argv: list[str]) -> int:
    """Run a subcommand, turning user errors into one-line messages.

    Unknown protocol or rate-profile names (``KeyError`` from the
    registry, :class:`~repro.experiments.scenario.Scenario` validation or
    ``rate-sweep``), missing or malformed baseline / telemetry / trace
    files, schema mismatches and stalled / misaddressed campaigns
    (``StoreError``) all surface as ``repro-mac: error: ...`` on stderr
    with exit code 2 -- a traceback here means a bug, not a typo.
    """
    from repro.store.db import StoreError

    try:
        return func(argv)
    except KeyError as exc:
        message = exc.args[0] if exc.args else exc
        print(f"repro-mac: error: {message}", file=sys.stderr)
        return 2
    except (OSError, ValueError, StoreError) as exc:  # includes JSONDecodeError
        print(f"repro-mac: error: {exc}", file=sys.stderr)
        return 2


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in _SUBCOMMANDS:
        return _run_subcommand(_SUBCOMMANDS[argv[0]], argv[1:])
    args = build_parser().parse_args(argv)
    if args.experiment == "report":
        from repro.experiments.fullreport import generate_report

        path = generate_report(args.out or "results", seeds=range(args.seeds))
        print(f"[report written to {path}]")
        return 0
    names = EXPERIMENTS if args.experiment == "all" else [args.experiment]
    t0 = time.time()
    simulated = [name for name in names if name in F.FIGURES]
    figures, campaign = {}, PhaseTimer()
    if simulated:
        with campaign.phase("compute"):
            figures = F.run_figures(simulated, seeds=range(args.seeds), processes=args.jobs)
    for name in names:
        _run_one(name, args, figures.get(name), campaign.total)
    if len(names) > 1:
        print(f"[all {len(names)} experiments done in {time.time() - t0:.1f}s]")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

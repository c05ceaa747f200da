"""The sweep engine: protocols x points x seeds through one process pool.

The paper's evaluation (Section 7) is a grid -- four protocols, several
sweep points, 100 seeds per point -- and :func:`run_sweep` is the one
path every campaign runs through (figures, degradation study, rate
sweep, regression gate, the distributed service and the CLI):

* the whole grid is flattened into one job list and dispatched through a
  **single long-lived** :class:`~concurrent.futures.ProcessPoolExecutor`
  with an explicit chunksize;
* jobs are ordered so all protocols of one ``(point, seed)`` cell are
  consecutive, and chunk boundaries align to cells, so each worker's
  :class:`~repro.workload.cache.WorldCache` shares one topology/schedule
  build across the four protocols of a cell;
* results are bit-identical to the serial path (same
  :class:`~repro.metrics.aggregate.RunMetrics`, same merged counters) --
  caching and pooling change wall-clock only, asserted by
  ``tests/experiments/test_sweep.py``.

Every sweep can emit a :class:`~repro.obs.manifest.RunManifest` (full
provenance) and a ``BENCH_<name>.json`` perf record (slots/sec, per-phase
wall clock, worker count, cache hit rate) -- see :func:`sweep_manifest`
and :func:`save_bench`.  The CLI surface is ``repro-mac sweep``.

Passing ``store=`` (a :class:`~repro.store.db.ResultStore` or a path)
layers the content-addressed results store underneath: every cell already
present under the current settings digest and code fingerprint is served
from SQLite instead of dispatched, every freshly computed cell is
committed the moment it arrives, and the merged :class:`SweepResult`
stays bit-identical to a cold run (store hits carry the exact
:class:`JobResult` the pool would have produced).  An interrupted
campaign therefore resumes with only its missing cells -- see
``docs/store.md``.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from statistics import mean
from typing import Sequence

from repro.experiments.config import SimulationSettings, protocol_class
from repro.experiments.runner import MeanMetrics, _require_scenario, run_raw
from repro.experiments.scenario import Scenario
from repro.metrics.aggregate import RunMetrics
from repro.obs.manifest import RunManifest, settings_to_dict
from repro.obs.profile import PhaseTimer
from repro.obs.telemetry import CampaignTelemetry, cell_key, span_summary
from repro.store.db import ResultStore
from repro.store.digests import code_fingerprint, git_commit, settings_digest
from repro.workload.cache import WorldCache

__all__ = [
    "auto_chunksize",
    "SweepJob",
    "JobResult",
    "SweepCell",
    "SweepResult",
    "DispatchBackend",
    "DispatchContext",
    "PoolBackend",
    "plan_jobs",
    "run_job",
    "run_sweep",
    "sweep",
    "sweep_manifest",
    "bench_record",
    "save_bench",
]


def auto_chunksize(n_jobs: int, workers: int) -> int:
    """A ``pool.map`` chunksize balancing IPC overhead against stragglers.

    The default ``chunksize=1`` pays one pickle/unpickle round-trip per
    job; one giant chunk per worker serializes badly when run times vary.
    Four chunks per worker keeps the IPC count at ``O(workers)`` while
    leaving enough slack for rebalancing.
    """
    if n_jobs <= 0 or workers <= 0:
        return 1
    return max(1, math.ceil(n_jobs / (workers * 4)))


@dataclass(frozen=True)
class SweepJob:
    """One cell member of the grid: (point, protocol, seed)."""

    point: int
    protocol: str
    seed: int
    settings: SimulationSettings
    threshold: float | None = None
    #: Attach the kernel phase profiler to this run (an inert event-bus
    #: subscriber -- results stay bit-identical; see repro.obs.profiler).
    profile: bool = False


@dataclass
class JobResult:
    """What a worker sends back for one job (picklable, seed-ordered)."""

    point: int
    protocol: str
    seed: int
    metrics: RunMetrics
    degree: float
    #: Per-phase wall-clock seconds of this run (build/inject/simulate).
    timings: dict[str, float]
    #: Whether the world (topology + schedule) came from the worker cache.
    cache_hit: bool = False
    #: Worker process id and job start (epoch seconds) -- the span record.
    worker: int = 0
    started_at: float = 0.0
    #: Kernel phase profiler attribution (``None`` unless profiled).
    mac_profile: dict[str, float] | None = None


@dataclass
class SweepCell:
    """All seeds of one (point, protocol): the unit the figures average."""

    metrics: list[RunMetrics] = field(default_factory=list)
    degrees: list[float] = field(default_factory=list)

    def mean(self) -> MeanMetrics:
        return MeanMetrics.from_runs(self.metrics, self.degrees)


def plan_jobs(
    protocols: Sequence[str],
    points: Sequence[SimulationSettings],
    seeds: Sequence[int],
    threshold: float | None = None,
    profile: bool = False,
) -> list[SweepJob]:
    """Flatten the grid, protocols innermost.

    The innermost protocol loop is what makes worker-side world caching
    effective: consecutive jobs share ``(point, seed)``, so a chunk that
    covers whole cells builds each world once and reuses it
    ``len(protocols) - 1`` times.
    """
    return [
        SweepJob(
            point=p,
            protocol=proto,
            seed=seed,
            settings=st,
            threshold=threshold,
            profile=profile,
        )
        for p, st in enumerate(points)
        for seed in seeds
        for proto in protocols
    ]


def run_job(job: SweepJob, cache: WorldCache | None = None) -> JobResult:
    """Execute one job, optionally through a shared-world cache.

    The cache supplies only the protocol-independent artifacts; the
    environment, channel and MAC instances are always fresh (see
    :func:`~repro.experiments.runner.run_raw`), so results do not depend
    on what ran before in this process.
    """
    started_at = time.time()
    mac_cls, kwargs = protocol_class(job.protocol)
    hit = False
    world = None
    if cache is not None:
        hits_before = cache.hits
        world = cache.world(job.settings, job.seed)
        hit = cache.hits > hits_before
    raw = run_raw(mac_cls, job.settings, job.seed, kwargs, world=world, profile=job.profile)
    return JobResult(
        point=job.point,
        protocol=job.protocol,
        seed=job.seed,
        metrics=raw.metrics(job.threshold),
        degree=raw.average_degree,
        timings=raw.timings,
        cache_hit=hit,
        worker=os.getpid(),
        started_at=started_at,
        mac_profile=raw.mac_profile,
    )


#: Per-worker world cache, created lazily on first job.  Module-level so it
#: survives across jobs for the lifetime of the pool's worker processes --
#: the whole point of dispatching the grid through one long-lived pool.
_WORKER_CACHE: WorldCache | None = None


def _sweep_worker(job: SweepJob) -> JobResult:
    global _WORKER_CACHE
    if _WORKER_CACHE is None:
        _WORKER_CACHE = WorldCache()
    return run_job(job, _WORKER_CACHE)


# --------------------------------------------------------------------------
# Dispatch backends: how pending jobs get executed
# --------------------------------------------------------------------------


@dataclass
class DispatchContext:
    """What :func:`run_sweep` hands a backend alongside the pending jobs.

    Planning (which jobs exist, in what order), the store scan (which are
    already computed) and the merge (planned-job order, bit-identical)
    are *shared* across every backend; only the execution of the pending
    jobs differs.  The context carries the shared campaign state a
    backend may need: the open store, the telemetry stream, the settings
    digests addressing each point, and the code fingerprint the cells
    are keyed under.
    """

    protocols: list[str]
    points: list[SimulationSettings]
    point_digests: list[str]
    fingerprint: str | None
    store: ResultStore | None
    telemetry: CampaignTelemetry | None
    campaign: str
    #: Distinct (point, seed) cells among the pending jobs -- the unit
    #: chunking aligns to.
    n_cells: int


class DispatchBackend:
    """Strategy object executing a sweep's pending jobs.

    Implementations call ``record(result)`` exactly once per pending job,
    in any order; :func:`run_sweep` owns everything around that --
    store scan, store commits, telemetry, and the planned-order merge --
    so every backend inherits the bit-identity contract for free.
    """

    #: True when results are committed to the store remotely (by workers)
    #: rather than by the coordinator's ``record`` callback.
    remote_commits = False

    def run(self, pending, record, ctx: DispatchContext) -> tuple[int, int]:
        """Execute every job in *pending*; returns ``(workers, chunksize)``
        for the execution record."""
        raise NotImplementedError


@dataclass
class PoolBackend(DispatchBackend):
    """The single-host backend: one long-lived process pool (the default).

    ``processes=None`` uses ``os.cpu_count()``; ``processes=1`` runs
    in-process through the same world cache (still bit-identical).
    """

    processes: int | None = None
    chunksize: int | None = None

    def run(self, pending, record, ctx: DispatchContext) -> tuple[int, int]:
        if self.processes == 1 or len(pending) == 1:
            cs = self.chunksize or len(ctx.protocols)
            cache = WorldCache()
            for job in pending:
                record(run_job(job, cache))
            return 1, cs
        workers = min(self.processes or os.cpu_count() or 1, len(pending))
        cs = self.chunksize or len(ctx.protocols) * auto_chunksize(ctx.n_cells, workers)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for res in pool.map(_sweep_worker, pending, chunksize=cs):
                record(res)
        return workers, cs


@dataclass
class SweepResult:
    """Everything a finished sweep produced, plus how it was executed."""

    protocols: list[str]
    points: list[SimulationSettings]
    seeds: list[int]
    #: (point index, protocol) -> per-seed results.
    cells: dict[tuple[int, str], SweepCell]
    #: Aggregated phase seconds: worker ``build``/``inject``/``simulate``
    #: sums plus the pool ``dispatch`` wall clock.
    timings: dict[str, float]
    #: End-to-end engine wall clock (job planning + dispatch + merge).
    wall_clock_s: float
    processes: int
    chunksize: int
    threshold: float | None = None
    cache_hits: int = 0
    cache_misses: int = 0
    #: Cells served from the results store / dispatched because missing.
    #: Both zero when the sweep ran without a store.
    store_hits: int = 0
    store_misses: int = 0
    store_path: str | None = None
    #: Per-point settings digests (the store addresses) -- recorded even
    #: without a store so manifests always carry the cell identities.
    point_digests: list[str] = field(default_factory=list)
    #: Cross-worker spans (cell key, phase, t0, dur_s, worker) merged in
    #: planned-job order -- one build/inject/simulate span per freshly
    #: computed cell plus a ``commit`` span per store write.
    spans: list[dict] = field(default_factory=list)
    #: Kernel phase profiler attribution summed per protocol over the
    #: freshly computed cells (``None`` unless run with ``profile=True``).
    mac_profile: dict[str, dict[str, float]] | None = None
    #: Where the campaign telemetry stream was written (if enabled).
    telemetry_path: str | None = None

    # -- accessors ---------------------------------------------------------

    def cell(self, point: int, protocol: str) -> SweepCell:
        return self.cells[(point, protocol)]

    def mean(self, point: int, protocol: str) -> MeanMetrics:
        """Seed-averaged metrics of one grid cell."""
        return self.cells[(point, protocol)].mean()

    def grid(self) -> list[dict[str, MeanMetrics]]:
        """Per-point ``{protocol: MeanMetrics}`` -- the figures' shape."""
        return [
            {proto: self.mean(p, proto) for proto in self.protocols}
            for p in range(len(self.points))
        ]

    def point_degrees(self, point: int) -> list[float]:
        """Every run's mean degree at *point* (protocol-major order)."""
        return [d for proto in self.protocols for d in self.cells[(point, proto)].degrees]

    @property
    def n_jobs(self) -> int:
        return len(self.protocols) * len(self.points) * len(self.seeds)

    @property
    def sim_slots(self) -> float:
        """Total simulated slots across the grid."""
        n_runs_per_point = len(self.protocols) * len(self.seeds)
        return float(sum(st.horizon * n_runs_per_point for st in self.points))

    @property
    def store_served(self) -> bool:
        """True when *every* cell came from the results store -- no
        simulation ran, so throughput numbers would be meaningless."""
        return self.n_jobs > 0 and self.store_hits >= self.n_jobs

    @property
    def slots_per_sec(self) -> float | None:
        """Simulated slots per wall-clock second -- the headline number.

        ``None`` for a fully store-served campaign: the wall clock then
        measures SQLite reads, not the simulator, and the resulting
        "throughput" used to be a nonsense number orders of magnitude off
        (matching the regression gate's auto-skip of its bench check).
        """
        if self.store_served:
            return None
        if self.wall_clock_s > 0:
            return self.sim_slots / self.wall_clock_s
        return None

    def as_dict(self) -> dict:
        """JSON-safe dump: per-point mean metrics plus execution record."""
        return {
            "protocols": list(self.protocols),
            "seeds": list(self.seeds),
            "threshold": self.threshold,
            "points": [
                {
                    "settings": settings_to_dict(st),
                    "mean_degree": mean(self.point_degrees(p)),
                    "metrics": {
                        proto: asdict(self.mean(p, proto)) for proto in self.protocols
                    },
                }
                for p, st in enumerate(self.points)
            ],
            "execution": {
                "n_jobs": self.n_jobs,
                "processes": self.processes,
                "chunksize": self.chunksize,
                "wall_clock_s": self.wall_clock_s,
                "timings": dict(self.timings),
                "sim_slots": self.sim_slots,
                "slots_per_sec": self.slots_per_sec,
                "store_served": self.store_served,
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "store": {
                    "path": self.store_path,
                    "hits": self.store_hits,
                    "misses": self.store_misses,
                },
                "telemetry": self.telemetry_path,
            },
        }


def run_sweep(
    scenario: Scenario,
    points: Sequence[SimulationSettings] | None = None,
    *,
    processes: int | None = None,
    chunksize: int | None = None,
    threshold: float | None = None,
    store=None,
    telemetry=None,
    profile: bool = False,
    campaign: str = "sweep",
    backend: DispatchBackend | None = None,
) -> SweepResult:
    """Run the full protocols x points x seeds grid.

    ``run_sweep(Scenario(...), points=[...])``: the scenario supplies
    protocols, seeds and scoring threshold; *points* lists the per-point
    settings (defaulting to the scenario's own settings as a single
    point).  Anything but a :class:`Scenario` raises ``TypeError``.

    ``processes=None`` uses ``os.cpu_count()``; ``processes=1`` runs
    in-process (with the same world cache, still bit-identical).  The
    chunksize defaults to whole ``(point, seed)`` cells --
    :func:`auto_chunksize` over cells, times ``len(protocols)`` -- so
    worker caches see every protocol of a cell; pass *chunksize* (in
    jobs) to override.

    *store* (a :class:`~repro.store.db.ResultStore` or a path, opened --
    and then closed -- on your behalf) consults the content-addressed
    results store before dispatching: cells already stored under the
    current settings digest and code fingerprint are restored instead of
    simulated, and every fresh cell is committed as soon as its worker
    returns, so a killed campaign resumes where it stopped.  Merged
    metrics and counters are bit-identical either way (tested).

    *telemetry* (a path, open text file, or prebuilt
    :class:`~repro.obs.telemetry.CampaignTelemetry`) streams campaign
    progress -- cells done/pending/store-served, per-worker heartbeats,
    rolling slots/sec, ETA, and per-cell phase spans -- as append-only
    JSONL for ``repro-mac watch``; *campaign* names the stream.
    *profile* attaches the kernel phase profiler to every freshly
    computed run (see :mod:`repro.obs.profiler`), aggregated per protocol
    on ``SweepResult.mac_profile``.  Both are coordinator/subscriber-side
    instruments: enabled or not, metrics and counters are bit-identical
    (pinned by ``tests/experiments/test_sweep_telemetry.py``).

    *backend* chooses how the pending jobs execute: the default is
    :class:`PoolBackend` (built from *processes*/*chunksize*); the
    distributed campaign service passes
    :class:`repro.serve.ServeBackend`, which enqueues the cells into the
    store's lease queue and collects what remote workers commit.
    Planning, the store scan, telemetry and the planned-order merge are
    identical either way -- that is why a distributed campaign is
    bit-identical to a serial one.
    """
    _require_scenario("run_sweep", scenario)
    protocols = list(scenario.protocols)
    points = list(points) if points is not None else [scenario.settings]
    seeds = list(scenario.seeds)
    if threshold is None:
        threshold = scenario.threshold
    if not points:
        raise ValueError("sweep needs at least one point")
    timer = PhaseTimer()
    jobs = plan_jobs(protocols, points, seeds, threshold, profile=profile)
    point_digests = [settings_digest(st, threshold) for st in points]

    opened = None
    if store is not None and not isinstance(store, ResultStore):
        store = opened = ResultStore(store)
    opened_telemetry = None
    if telemetry is not None and not isinstance(telemetry, CampaignTelemetry):
        telemetry = opened_telemetry = CampaignTelemetry(
            telemetry,
            campaign=campaign,
            n_jobs=len(jobs),
            point_slots=[float(st.horizon) for st in points],
            point_digests=point_digests,
            extra={
                "protocols": list(protocols),
                "n_points": len(points),
                "n_seeds": len(seeds),
                "profile": profile,
            },
        )
    try:
        stored: dict[tuple[int, str, int], JobResult] = {}
        pending = jobs
        fingerprint = None
        if store is not None:
            fingerprint = code_fingerprint()
            with timer.phase("store"):
                pending = []
                for job in jobs:
                    hit = store.get(
                        point_digests[job.point], job.protocol, job.seed, fingerprint
                    )
                    if hit is not None:
                        stored[(job.point, job.protocol, job.seed)] = hit
                    else:
                        pending.append(job)
        if telemetry is not None:
            telemetry.store_scan(len(stored), len(pending))

        fresh: dict[tuple[int, str, int], JobResult] = {}
        commit_spans: dict[tuple[int, str, int], float] = {}

        if backend is None:
            backend = PoolBackend(processes=processes, chunksize=chunksize)

        def record(res: JobResult) -> None:
            # Commit-per-cell: a kill between cells loses nothing.  A
            # remote-committing backend's workers already stored the
            # result (atomically, with the lease transition) -- the
            # coordinator must not re-commit it.
            commit_s = None
            if store is not None and not backend.remote_commits:
                t0 = time.perf_counter()
                store.put(
                    point_digests[res.point], res.protocol, res.seed, res, fingerprint
                )
                commit_s = time.perf_counter() - t0
                commit_spans[(res.point, res.protocol, res.seed)] = commit_s
            fresh[(res.point, res.protocol, res.seed)] = res
            if telemetry is not None:
                telemetry.job_done(res, commit_s=commit_s)

        if not pending:
            workers = 0
            cs = chunksize or len(protocols)
        else:
            ctx = DispatchContext(
                protocols=list(protocols),
                points=list(points),
                point_digests=point_digests,
                fingerprint=fingerprint,
                store=store,
                telemetry=telemetry,
                campaign=campaign,
                n_cells=len({(j.point, j.seed) for j in pending}),
            )
            with timer.phase("dispatch"):
                workers, cs = backend.run(pending, record, ctx)

        with timer.phase("merge"):
            cells: dict[tuple[int, str], SweepCell] = {
                (p, proto): SweepCell() for p in range(len(points)) for proto in protocols
            }
            phase_sums: dict[str, float] = {}
            hits = misses = 0
            spans: list[dict] = []
            profile_sums: dict[str, dict[str, float]] = {}
            # Walk the planned job order so per-cell metric lists stay
            # seed-ordered regardless of where each result came from --
            # and so the merged span log reads in campaign order, however
            # the pool interleaved the workers.
            for job in jobs:
                key = (job.point, job.protocol, job.seed)
                restored = stored.get(key)
                res = restored if restored is not None else fresh[key]
                cell = cells[(res.point, res.protocol)]
                cell.metrics.append(res.metrics)
                cell.degrees.append(res.degree)
                if restored is not None:
                    continue  # no wall clock was spent on this cell now
                ckey = cell_key(res.point, res.protocol, res.seed)
                offset = 0.0
                for phase, seconds in res.timings.items():
                    phase_sums[phase] = phase_sums.get(phase, 0.0) + seconds
                    spans.append(
                        {
                            "cell": ckey,
                            "phase": phase,
                            "t0": res.started_at + offset,
                            "dur_s": seconds,
                            "worker": res.worker,
                        }
                    )
                    offset += seconds
                commit_s = commit_spans.get(key)
                if commit_s is not None:
                    spans.append(
                        {
                            "cell": ckey,
                            "phase": "commit",
                            "t0": None,
                            "dur_s": commit_s,
                            "worker": os.getpid(),
                        }
                    )
                if res.mac_profile is not None:
                    sums = profile_sums.setdefault(res.protocol, {})
                    for phase, seconds in res.mac_profile.items():
                        sums[phase] = sums.get(phase, 0.0) + seconds
                if res.cache_hit:
                    hits += 1
                else:
                    misses += 1
        timings = {"dispatch": timer.timings.get("dispatch", 0.0), **phase_sums}
        if "store" in timer.timings:
            timings["store"] = timer.timings["store"]
        result = SweepResult(
            protocols=protocols,
            points=points,
            seeds=seeds,
            cells=cells,
            timings=timings,
            wall_clock_s=timer.total,
            processes=workers,
            chunksize=cs,
            threshold=threshold,
            cache_hits=hits,
            cache_misses=misses,
            store_hits=len(stored),
            store_misses=len(pending) if store is not None else 0,
            store_path=store.path if store is not None else None,
            point_digests=point_digests,
            spans=spans,
            mac_profile=profile_sums or None,
            telemetry_path=(
                str(telemetry.path) if telemetry is not None and telemetry.path else None
            ),
        )
        if telemetry is not None:
            telemetry.close(result)
            opened_telemetry = None
        return result
    finally:
        if opened is not None:
            opened.close()
        if opened_telemetry is not None:
            # An exception escaped mid-campaign: leave the stream as-is
            # (no `end` record -- the watcher reports it interrupted).
            opened_telemetry.__exit__(Exception, None, None)


def sweep(
    scenario: Scenario,
    points: Sequence[SimulationSettings] | None = None,
    *,
    processes: int | None = None,
    chunksize: int | None = None,
    store=None,
    telemetry=None,
    profile: bool = False,
    campaign: str = "sweep",
    backend: DispatchBackend | None = None,
) -> SweepResult:
    """The canonical grid entry point: :func:`run_sweep` over a Scenario.

    ``sweep(Scenario(...))`` runs the scenario's settings as a single
    point; pass *points* for a real grid (each point a
    :class:`SimulationSettings`, typically built with
    ``scenario.settings.with_(...)``), and *store* (path or
    :class:`~repro.store.db.ResultStore`) to memoise/resume the campaign.
    """
    return run_sweep(
        scenario,
        points,
        processes=processes,
        chunksize=chunksize,
        store=store,
        telemetry=telemetry,
        profile=profile,
        campaign=campaign,
        backend=backend,
    )


# --------------------------------------------------------------------------
# Provenance and perf records
# --------------------------------------------------------------------------


def sweep_manifest(result: SweepResult, name: str = "sweep") -> RunManifest:
    """Sweep-level provenance: grid shape, execution record, counters.

    Per-point settings live in ``extra["points"]``; counter totals are
    merged over the whole grid (bit-identical to a serial run -- tested).
    """
    counters: dict[str, int] = {}
    for cell in result.cells.values():
        for m in cell.metrics:
            for key, n in m.counters.items():
                counters[key] = counters.get(key, 0) + n
    manifest_extra: dict = {}
    if result.spans:
        # Bounded straggler/per-phase digest; the full span log (already
        # in planned-job order on result.spans) lives in the telemetry
        # stream, which the distributed service ships unchanged.
        manifest_extra["span_summary"] = span_summary(result.spans)
    if result.mac_profile is not None:
        manifest_extra["mac_profile"] = {
            proto: dict(phases) for proto, phases in result.mac_profile.items()
        }
    if result.telemetry_path is not None:
        manifest_extra["telemetry"] = result.telemetry_path
    return RunManifest(
        settings=settings_to_dict(result.points[0]),
        wall_clock_s=result.wall_clock_s,
        timings=dict(result.timings),
        sim_slots=result.sim_slots,
        slots_per_sec=result.slots_per_sec,
        counters=counters,
        extra={
            "experiment": name,
            "kind": "sweep",
            "protocols": list(result.protocols),
            "n_points": len(result.points),
            "points": [settings_to_dict(st) for st in result.points],
            "point_digests": list(result.point_digests),
            "seeds": list(result.seeds),
            "threshold": result.threshold,
            "processes": result.processes,
            "chunksize": result.chunksize,
            "cache_hits": result.cache_hits,
            "cache_misses": result.cache_misses,
            "code_fingerprint": code_fingerprint(),
            "store": {
                "path": result.store_path,
                "hits": result.store_hits,
                "misses": result.store_misses,
            },
            **manifest_extra,
        },
    )


def bench_record(result: SweepResult, name: str = "sweep") -> dict:
    """The ``BENCH_<name>.json`` payload: the sweep's perf trajectory.

    Records wall clock per phase, throughput in simulated slots/sec (both
    end-to-end and inside the simulate phase alone), worker count,
    chunksize and world-cache hit rate -- the numbers future performance
    PRs regress against.  Stamped with the git commit and the
    simulation-code fingerprint so the bench trajectory stays
    attributable across PRs, plus the results-store hit counts (a
    warm-store record's throughput is not comparable to a cold one's).

    A fully store-served campaign reports ``slots_per_sec: null`` with
    ``store_served: true``: no simulation ran, so a "throughput" of
    sim-slots over SQLite-read seconds would be a wild overstatement --
    the same reasoning behind the regression gate's bench auto-skip.
    """
    simulate_s = result.timings.get("simulate", 0.0)
    return {
        "name": name,
        "kind": "sweep-bench",
        "code": {
            "git_commit": git_commit(),
            "code_fingerprint": code_fingerprint(),
        },
        "grid": {
            "protocols": list(result.protocols),
            "n_points": len(result.points),
            "n_seeds": len(result.seeds),
            "n_jobs": result.n_jobs,
        },
        "processes": result.processes,
        "chunksize": result.chunksize,
        "wall_clock_s": result.wall_clock_s,
        "timings": dict(result.timings),
        "sim_slots": result.sim_slots,
        "slots_per_sec": result.slots_per_sec,
        "slots_per_sec_simulate_phase": (
            result.sim_slots / simulate_s if simulate_s > 0 else None
        ),
        "store_served": result.store_served,
        "cache": {
            "hits": result.cache_hits,
            "misses": result.cache_misses,
            "hit_rate": (
                result.cache_hits / result.n_jobs if result.n_jobs else 0.0
            ),
        },
        "store": {
            "path": result.store_path,
            "hits": result.store_hits,
            "misses": result.store_misses,
        },
    }


def save_bench(result: SweepResult, name: str, out_dir: str | Path) -> Path:
    """Write ``BENCH_<name>.json`` under *out_dir*; returns the path."""
    path = Path(out_dir) / f"BENCH_{name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(bench_record(result, name), indent=2, default=str))
    return path

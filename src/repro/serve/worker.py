"""The campaign worker: lease cells, simulate, commit -- kill-safe.

A worker is deliberately dumb: it knows a store path and a campaign
name, nothing about the grid.  The coordinator enqueued every planned
cell with its fully-specified :class:`~repro.experiments.sweep.SweepJob`
as JSON text (:func:`job_text`), so the worker just leases a batch,
rebuilds and checks each job (:func:`leased_job`), runs it through the
same :func:`~repro.experiments.sweep.run_job` +
:class:`~repro.workload.cache.WorldCache` path the process pool uses
(bit-identity comes from running *the same code on the same job*, not
from where the process lives), and commits each result **atomically with
its lease transition** (:meth:`~repro.store.db.ResultStore.complete_cells`).

Kill-anywhere discipline:

* killed while computing -- the lease stops being renewed, expires, and
  the cell is reclaimed (or stolen directly by a peer's
  ``lease_cells``); no result row exists, so the cell recomputes.
* killed inside the commit -- SQLite rolls the transaction back; same as
  above.
* killed between commit and the next lease -- the result row and the
  ``done`` state both exist; nothing is lost or repeated.

Each cell commits the moment it finishes, so the only progress a kill
can discard is the one cell being computed.

Every worker writes its heartbeat stream to
``<store>.workers/<campaign>.<worker_id>.jsonl`` (:func:`worker_stream_dir`;
none for a ``:memory:`` store), where the coordinator folds it into the
campaign stream.

Workers only lease cells enqueued under their own code fingerprint: a
worker running different code ignores (and reports) foreign cells rather
than committing results the coordinator's addresses would mismatch.
"""

from __future__ import annotations

import json
import os
import socket
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.obs.records import JsonlWriter
from repro.obs.telemetry import (
    TELEMETRY_META_ETYPE,
    TELEMETRY_SCHEMA_VERSION,
    cell_key,
)
from repro.obs.codec import build
from repro.obs.manifest import settings_to_dict
from repro.store.db import LeasedCell, ResultStore, StoreError
from repro.store.digests import code_fingerprint, settings_digest

__all__ = [
    "WorkerReport",
    "work_campaign",
    "worker_stream_dir",
    "job_text",
    "leased_job",
    "DEFAULT_BATCH",
    "DEFAULT_LEASE_TTL",
]

#: Cells requested per lease call; the store may grant fewer near the
#: queue's tail (backpressure-aware chunking -- see ``lease_cells``).
DEFAULT_BATCH = 4
#: Lease TTL in wall-clock seconds.  Must comfortably exceed one cell's
#: simulate time: leases are renewed *between* cells, not during one.
DEFAULT_LEASE_TTL = 30.0
#: Heartbeat records are throttled to at most one per this many seconds.
_HEARTBEAT_INTERVAL_S = 0.5


def worker_stream_dir(store_path: str | Path) -> Path:
    """Where workers drop their telemetry streams: ``<store>.workers/``.

    A convention, not configuration: workers and coordinator derive it
    from the one thing they already share (the store path), so folding
    needs no extra plumbing.
    """
    return Path(f"{store_path}.workers")


def job_text(job) -> str:
    """A :class:`~repro.experiments.sweep.SweepJob` as lease-queue text: the
    JSON of its point, profile flag and untagged settings (protocol and
    seed are the row's own columns).  No pickle crosses the store file."""
    return json.dumps(
        {"point": job.point, "profile": job.profile, "settings": settings_to_dict(job.settings)}
    )


def leased_job(cell: LeasedCell):
    """Rebuild a leased cell's job through the settings codec's inverse;
    :class:`~repro.store.db.StoreError` names the cell when the text does
    not decode or its settings' digest is not the row's address."""
    from repro.experiments.sweep import SweepJob

    where = f"leased cell {cell.key} of campaign {cell.campaign!r}"
    try:
        doc = json.loads(cell.job)
        job = build(SweepJob, {**doc, "protocol": cell.protocol, "seed": cell.seed}, "job")
    except (ValueError, TypeError) as exc:
        raise StoreError(f"{where}: job does not decode: {exc!r}") from exc
    if settings_digest(job.settings) != cell.scenario_digest:
        raise StoreError(f"{where}: job settings are not the row's address")
    return job


def default_worker_id() -> str:
    """``<hostname>-<pid>``: unique across the hosts sharing one store."""
    return f"{socket.gethostname()}-{os.getpid()}"


@dataclass
class WorkerReport:
    """What one :func:`work_campaign` invocation accomplished."""

    worker_id: str
    campaign: str
    cells_done: int = 0
    leases_taken: int = 0
    #: Cells this worker picked up on a 2nd+ attempt -- i.e. stolen from
    #: a worker whose lease expired (the reclamation path firing).
    cells_stolen: int = 0
    simulate_s: float = 0.0
    wall_clock_s: float = 0.0


class _WorkerStream:
    """The worker's own append-only telemetry file.

    One file per worker (``<campaign>.<worker_id>.jsonl``), so a killed
    worker corrupts at most the tail of *its own* stream -- the
    coordinator folds these into the campaign stream with the tolerant
    loader.  Records carry ``worker`` (the pid, matching the span records
    the coordinator derives from JobResults) plus ``id`` (the full
    worker id, unique across hosts).
    """

    def __init__(self, path: Path, campaign: str, worker_id: str):
        self._out = JsonlWriter(path, flush_each=True)
        self.worker_id = worker_id
        self._last_heartbeat = 0.0
        self._out.write(
            {
                "e": TELEMETRY_META_ETYPE,
                "tw": time.time(),
                "schema": TELEMETRY_SCHEMA_VERSION,
                "scope": "worker",
                "campaign": campaign,
                "worker_id": worker_id,
            }
        )

    def heartbeat(
        self, *, jobs_done: int, simulate_s: float, last: str, leased: int, force: bool = False
    ) -> None:
        now = time.time()
        if not force and now - self._last_heartbeat < _HEARTBEAT_INTERVAL_S:
            return
        self._last_heartbeat = now
        self._out.write(
            {
                "e": "worker",
                "tw": now,
                "worker": os.getpid(),
                "id": self.worker_id,
                "jobs_done": jobs_done,
                "simulate_s": simulate_s,
                "last": last,
                "leased": leased,
            }
        )

    def commit_span(self, cell: str, dur_s: float) -> None:
        self._out.write(
            {
                "e": "span",
                "tw": time.time(),
                "cell": cell,
                "phase": "commit",
                "t0": time.time() - dur_s,
                "dur_s": dur_s,
                "worker": os.getpid(),
            }
        )

    def end(self, report: WorkerReport) -> None:
        self._out.write(
            {
                "e": "end",
                "tw": time.time(),
                "scope": "worker",
                "worker": os.getpid(),
                "id": self.worker_id,
                "done": report.cells_done,
                "stolen": report.cells_stolen,
                "elapsed_s": report.wall_clock_s,
            }
        )
        self._out.close()


def work_campaign(
    store: ResultStore | str | Path,
    campaign: str,
    *,
    worker_id: str | None = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    poll_s: float = 0.2,
    max_cells: int | None = None,
    idle_timeout: float | None = None,
    on_cell: Callable[[LeasedCell, Any], None] | None = None,
    _clock: Callable[[], float] = time.time,
    _sleep: Callable[[float], None] = time.sleep,
) -> WorkerReport:
    """Run the worker loop until *campaign* completes (or limits hit).

    Leases up to :data:`DEFAULT_BATCH` cells at a time (the store shrinks
    grants near the tail), renews its leases between cells, and commits
    each result with :meth:`~repro.store.db.ResultStore.complete_cells`
    as soon as it is computed.

    Exit conditions: the campaign's queue is fully ``done``; the
    coordinator has collected and cleared the campaign
    (:meth:`~repro.store.db.ResultStore.campaign_collected`) -- whether
    or not this worker ever saw its queue; *max_cells* processed; or
    nothing to do for *idle_timeout* seconds (``None`` = wait forever
    for a campaign that has not been enqueued yet).

    *on_cell* is a test hook called after each cell is computed, before
    it is committed -- raising from it models a worker dying mid-lease.
    """
    opened = None
    if not isinstance(store, ResultStore):
        store = opened = ResultStore(store)
    wid = worker_id or default_worker_id()
    fingerprint = code_fingerprint()
    report = WorkerReport(worker_id=wid, campaign=campaign)
    stream = None
    if store.path != ":memory:":
        stream = _WorkerStream(
            worker_stream_dir(store.path) / f"{campaign}.{wid}.jsonl", campaign, wid
        )

    # Imported here, not at module top: workers are spawned as fresh
    # processes and the sweep module drags in the full experiment stack.
    from repro.experiments.sweep import run_job
    from repro.workload.cache import WorldCache

    cache = WorldCache()
    t_start = _clock()
    last_activity = t_start
    last_cell = "?"
    graceful = False
    try:
        while True:
            if max_cells is not None and report.cells_done >= max_cells:
                break
            cells = store.lease_cells(
                campaign, wid, DEFAULT_BATCH, lease_ttl, fingerprint, now=_clock()
            )
            if not cells:
                counts = store.queue_counts(campaign, now=_clock())
                if counts["total"] == 0:
                    if store.campaign_collected(campaign):
                        break  # campaign collected and cleared -- done
                elif counts["done"] == counts["total"]:
                    break  # every cell committed; coordinator will merge
                if (
                    idle_timeout is not None
                    and _clock() - last_activity > idle_timeout
                ):
                    break
                if stream is not None:
                    stream.heartbeat(
                        jobs_done=report.cells_done,
                        simulate_s=report.simulate_s,
                        last=last_cell,
                        leased=0,
                    )
                _sleep(poll_s)
                continue

            report.leases_taken += 1
            # The whole batch decodes before any of it runs or commits.
            jobs = [leased_job(cell) for cell in cells]
            for i, (cell, job) in enumerate(zip(cells, jobs)):
                # Keep every held lease alive while this cell simulates.
                store.renew_leases(campaign, wid, lease_ttl, now=_clock())
                res = run_job(job, cache)
                if on_cell is not None:
                    on_cell(cell, res)
                t0 = time.perf_counter()
                store.complete_cells(
                    campaign,
                    [(cell.scenario_digest, cell.protocol, cell.seed, res)],
                    fingerprint,
                    wid,
                )
                last_cell = cell_key(job.point, cell.protocol, cell.seed)
                if stream is not None:
                    stream.commit_span(last_cell, time.perf_counter() - t0)
                report.cells_done += 1
                report.simulate_s += res.timings.get("simulate", 0.0)
                last_activity = _clock()
                if stream is not None:
                    stream.heartbeat(
                        jobs_done=report.cells_done,
                        simulate_s=report.simulate_s,
                        last=last_cell,
                        leased=len(cells) - i - 1,
                    )
                if max_cells is not None and report.cells_done >= max_cells:
                    break
            # A cell granted on its 2nd+ attempt was stolen from a lease
            # that expired -- the kill-recovery path, worth reporting.
            report.cells_stolen += sum(1 for c in cells if c.attempts > 1)
        graceful = True
    finally:
        report.wall_clock_s = _clock() - t_start
        if graceful:
            # Graceful exit: hand back anything still leased and close
            # the stream with an end record.  A crashed worker does
            # neither -- its leases expire (reclamation) and its stream
            # simply stops, exactly like a real kill -9.
            store.release_leases(campaign, wid)
            if stream is not None:
                stream.heartbeat(
                    jobs_done=report.cells_done,
                    simulate_s=report.simulate_s,
                    last=last_cell,
                    leased=0,
                    force=True,
                )
                stream.end(report)
        if opened is not None:
            opened.close()
    return report

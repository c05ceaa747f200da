"""The campaign worker: lease cells, simulate, commit -- kill-safe.

A worker is deliberately dumb: it knows a store path and a campaign
name, nothing about the grid.  The coordinator enqueued every planned
cell with its fully-specified :class:`~repro.experiments.sweep.SweepJob`
pickled into the lease queue, so the worker just leases a batch, runs
each job through the same :func:`~repro.experiments.sweep.run_job` +
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

The only progress a kill can discard is the cells of the current batch
that were computed but not yet committed -- bound it with
``commit_every=1`` (the default: commit each cell as it finishes).

Workers only lease cells enqueued under their own code fingerprint: a
worker running different code ignores (and reports) foreign cells rather
than committing results the coordinator's addresses would mismatch.
"""

from __future__ import annotations

import os
import socket
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.obs.records import JsonlWriter
from repro.obs.telemetry import TELEMETRY_META_ETYPE, TELEMETRY_SCHEMA_VERSION
from repro.store.db import LeasedCell, ResultStore
from repro.store.digests import code_fingerprint

__all__ = ["WorkerReport", "work_campaign", "DEFAULT_BATCH", "DEFAULT_LEASE_TTL"]

#: Cells requested per lease call; the store may grant fewer near the
#: queue's tail (backpressure-aware chunking -- see ``lease_cells``).
DEFAULT_BATCH = 4
#: Lease TTL in wall-clock seconds.  Must comfortably exceed one cell's
#: simulate time: leases are renewed *between* cells, not during one.
DEFAULT_LEASE_TTL = 30.0
#: Heartbeat records are throttled to at most one per this many seconds.
_HEARTBEAT_INTERVAL_S = 0.5


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


def _cell_name(cell: LeasedCell) -> str:
    """The stream's cell label for a leased queue entry."""
    job = cell.job
    point = getattr(job, "point", "?")
    return f"p{point}:{cell.protocol}:s{cell.seed}"


def work_campaign(
    store: ResultStore | str | Path,
    campaign: str,
    *,
    worker_id: str | None = None,
    batch: int = 0,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    poll_s: float = 0.2,
    max_cells: int | None = None,
    idle_timeout: float | None = None,
    commit_every: int = 1,
    telemetry_dir: str | Path | None = None,
    on_cell: Callable[[LeasedCell, Any], None] | None = None,
    _clock: Callable[[], float] = time.time,
    _sleep: Callable[[float], None] = time.sleep,
) -> WorkerReport:
    """Run the worker loop until *campaign* completes (or limits hit).

    Leases up to *batch* cells at a time (default
    :data:`DEFAULT_BATCH`; the store shrinks grants near the tail),
    renews its leases between cells, and commits results with
    :meth:`~repro.store.db.ResultStore.complete_cells` every
    *commit_every* cells (default 1: per-cell durability; raise it to
    trade crash exposure for fewer fsyncs on huge grids).

    Exit conditions: the campaign's queue is fully ``done``; the queue
    disappears after this worker saw it (the coordinator collected and
    cleared it); *max_cells* processed; or nothing to do for
    *idle_timeout* seconds (``None`` = wait forever for work).

    *telemetry_dir* enables the per-worker heartbeat stream the
    coordinator folds into the campaign stream.  *on_cell* is a test
    hook called after each cell is computed, before it is committed --
    raising from it models a worker dying mid-lease.
    """
    opened = None
    if not isinstance(store, ResultStore):
        store = opened = ResultStore(store)
    wid = worker_id or default_worker_id()
    want = batch if batch > 0 else DEFAULT_BATCH
    fingerprint = code_fingerprint()
    report = WorkerReport(worker_id=wid, campaign=campaign)
    stream = None
    if telemetry_dir is not None:
        stream = _WorkerStream(
            Path(telemetry_dir) / f"{campaign}.{wid}.jsonl", campaign, wid
        )

    # Imported here, not at module top: workers are spawned as fresh
    # processes and the sweep module drags in the full experiment stack.
    from repro.experiments.sweep import run_job
    from repro.workload.cache import WorldCache

    cache = WorldCache()
    t_start = _clock()
    last_activity = t_start
    seen_queue = False
    last_cell = "?"
    graceful = False
    try:
        while True:
            if max_cells is not None and report.cells_done >= max_cells:
                break
            cells = store.lease_cells(
                campaign, wid, want, lease_ttl, fingerprint, now=_clock()
            )
            if not cells:
                counts = store.queue_counts(campaign, now=_clock())
                if counts["total"] == 0:
                    if seen_queue:
                        break  # campaign collected and cleared -- done
                elif counts["done"] == counts["total"]:
                    seen_queue = True
                    break  # every cell committed; coordinator will merge
                else:
                    seen_queue = True  # others hold leases; wait our turn
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

            seen_queue = True
            report.leases_taken += 1
            uncommitted: list[tuple[LeasedCell, Any]] = []

            def flush() -> None:
                if not uncommitted:
                    return
                t0 = time.perf_counter()
                store.complete_cells(
                    campaign,
                    [
                        (c.scenario_digest, c.protocol, c.seed, res)
                        for c, res in uncommitted
                    ],
                    fingerprint,
                    wid,
                )
                if stream is not None:
                    stream.commit_span(
                        _cell_name(uncommitted[-1][0]), time.perf_counter() - t0
                    )
                uncommitted.clear()

            for i, cell in enumerate(cells):
                # Keep every held lease alive while this cell simulates.
                store.renew_leases(campaign, wid, lease_ttl, now=_clock())
                res = run_job(cell.job, cache)
                if on_cell is not None:
                    on_cell(cell, res)
                uncommitted.append((cell, res))
                if len(uncommitted) >= max(1, commit_every):
                    flush()
                report.cells_done += 1
                report.simulate_s += res.timings.get("simulate", 0.0)
                last_activity = _clock()
                last_cell = _cell_name(cell)
                if stream is not None:
                    stream.heartbeat(
                        jobs_done=report.cells_done,
                        simulate_s=report.simulate_s,
                        last=last_cell,
                        leased=len(cells) - i - 1,
                    )
                if max_cells is not None and report.cells_done >= max_cells:
                    break
            flush()
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

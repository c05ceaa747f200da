"""Campaign telemetry: the live progress stream of a running sweep.

PR 1's observability is *per-run* (one environment, one trace); since the
sweep engine and the results store, the unit of work is a **campaign** --
a protocols x points x seeds grid, possibly resumed, possibly mostly
store-served.  This module is the campaign-scale instrument:

* :class:`CampaignTelemetry` -- the coordinator-side emitter.  The sweep
  engine appends one JSON object per line as the campaign progresses:
  cells done/pending/store-served, per-worker heartbeats, rolling
  slots/sec, an ETA derived from the planned-job order, and one **span**
  per (cell, phase).  Every line is flushed as written, so a crash
  mid-campaign leaves a parseable stream ending at the last completed
  cell -- exactly the property the store's kill-anywhere resume relies
  on, now visible from the outside.
* :func:`load_telemetry` -- the tolerant loader: an unterminated final
  line (process killed mid-write) is kept if it parses, dropped if not,
  and surfaced as ``stream.truncated``; everything before it
  round-trips.  Both ends go through :mod:`repro.obs.records`, the same
  writer and reader as JSONL traces.
* :func:`render_telemetry` -- the single-screen text view behind
  ``repro-mac watch`` (live tail or post-hoc).

Stream format (schema version 1)
--------------------------------
Newline-delimited JSON.  Every record carries ``e`` (record type) and
``tw`` (wall-clock epoch seconds).  Record types::

    telemetry.meta   schema, campaign name/id, grid shape, point digests
    progress         done/pending/store_served counts, rolling slots/sec,
                     world-cache hits, elapsed_s, eta_s
    worker           heartbeat: worker pid, jobs_done, simulate_s, last cell
                     (+ ``id``/``leased`` for distributed-service workers)
    span             cell key (point/protocol/seed), phase, t0, dur_s, worker
    end              final totals; a **campaign-scoped** end record means
                     the campaign completed (``scope`` defaults to
                     ``"campaign"``; worker streams end with
                     ``scope: "worker"``, which does NOT mark a campaign
                     stream complete when folded or concatenated)

Multi-writer discipline (the distributed campaign service): each worker
writes its *own* stream, and the coordinator folds worker records into
the single campaign stream via :meth:`CampaignTelemetry.fold`.  The
loader therefore tolerates interleaved writers: repeated ``telemetry.meta``
records keep the first header, worker-scoped ``end`` records never flip
``.completed``, and heartbeats from any number of workers coexist.

Spans carry exactly the per-phase wall-clock numbers the workers measured
(:class:`~repro.experiments.sweep.JobResult.timings`), so summing the
stream's ``simulate`` spans reproduces the campaign manifest's
``simulate`` phase timing (asserted by the CI telemetry-smoke job) -- and
the distributed sweep service can ship these records over the wire
unchanged.

No-op discipline: telemetry is written by the *coordinator* about
results it already holds; workers and simulations are untouched, so a
campaign run with telemetry enabled is bit-identical to one without
(pinned by ``tests/experiments/test_sweep_telemetry.py``).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any

from repro.obs.records import JsonlWriter, read_jsonl

__all__ = [
    "TELEMETRY_SCHEMA_VERSION",
    "TELEMETRY_META_ETYPE",
    "cell_key",
    "CampaignTelemetry",
    "TelemetryStream",
    "load_telemetry",
    "span_summary",
    "render_telemetry",
]

#: Bump when the record layout changes incompatibly.
TELEMETRY_SCHEMA_VERSION = 1
#: Record type of the stream-leading metadata record.
TELEMETRY_META_ETYPE = "telemetry.meta"

#: Emit a progress/heartbeat pair at most this often (seconds); spans are
#: always emitted.  Keeps million-cell streams linear in cells, not in
#: cells x record-types.
_PROGRESS_INTERVAL_S = 0.5


def cell_key(point: int, protocol: str, seed: int) -> str:
    """The stream's cell naming: ``p<point>:<protocol>:s<seed>``."""
    return f"p{point}:{protocol}:s{seed}"


class CampaignTelemetry:
    """Append-only JSONL emitter the sweep engine drives.

    Parameters
    ----------
    target:
        Path (parents created, opened for writing) or an open text file.
    campaign:
        Campaign name (the sweep's ``--name``).
    n_jobs:
        Total jobs in the planned grid.
    point_slots:
        Simulated slots (horizon) per point -- rolling throughput and the
        ETA weigh cells by it.
    point_digests / extra:
        Provenance echoed into the meta record.
    """

    def __init__(
        self,
        target: str | Path | IO[str],
        campaign: str,
        n_jobs: int,
        point_slots: list[float] | None = None,
        point_digests: list[str] | None = None,
        extra: dict[str, Any] | None = None,
    ):
        # Flush per record: the stream must survive a kill mid-campaign
        # with at most one partial (final) line.
        self._out = JsonlWriter(target, flush_each=True)
        self.path = self._out.path
        self.campaign = campaign
        self.n_jobs = n_jobs
        self._point_slots = list(point_slots or [])
        self._t_start = time.time()
        self._last_progress = 0.0
        self._done = 0
        self._store_served = 0
        self._cache_hits = 0
        self._slots_done = 0.0
        #: worker pid -> {"jobs": n, "simulate_s": s, "last": cell key}
        self._workers: dict[int, dict[str, Any]] = {}
        self._out.write(
            {
                "e": TELEMETRY_META_ETYPE,
                "tw": self._t_start,
                "schema": TELEMETRY_SCHEMA_VERSION,
                "campaign": campaign,
                "campaign_id": f"{campaign}-{int(self._t_start)}-{os.getpid()}",
                "n_jobs": n_jobs,
                "point_digests": list(point_digests or []),
                **(extra or {}),
            }
        )

    # -- plumbing ------------------------------------------------------------

    @property
    def n_records(self) -> int:
        return self._out.n_records

    def _slots_of(self, point: int) -> float:
        if 0 <= point < len(self._point_slots):
            return float(self._point_slots[point])
        return 0.0

    # -- the emitting surface (driven by run_sweep) --------------------------

    def store_scan(self, store_served: int, pending: int) -> None:
        """Record the store consultation's outcome before dispatch."""
        self._store_served = store_served
        self._done = store_served
        self._progress(force=True)

    def job_done(self, res, *, stored: bool = False, commit_s: float | None = None) -> None:
        """One cell finished: emit its spans, then throttled progress.

        *res* is a :class:`~repro.experiments.sweep.JobResult`; *stored*
        marks cells served from the results store (no spans -- no wall
        clock was spent on them now); *commit_s* is the coordinator-side
        store commit duration, emitted as a ``commit`` span.
        """
        key = cell_key(res.point, res.protocol, res.seed)
        now = time.time()
        if stored:
            self._done += 1
            self._progress(now=now)
            return
        worker = getattr(res, "worker", 0)
        t0 = getattr(res, "started_at", 0.0) or now
        offset = 0.0
        for phase, dur in res.timings.items():
            self._out.write(
                {
                    "e": "span",
                    "tw": now,
                    "cell": key,
                    "phase": phase,
                    "t0": t0 + offset,
                    "dur_s": dur,
                    "worker": worker,
                }
            )
            offset += dur
        if commit_s is not None:
            self._out.write(
                {
                    "e": "span",
                    "tw": now,
                    "cell": key,
                    "phase": "commit",
                    "t0": now - commit_s,
                    "dur_s": commit_s,
                    "worker": os.getpid(),
                }
            )
        self._done += 1
        self._slots_done += self._slots_of(res.point)
        if getattr(res, "cache_hit", False):
            self._cache_hits += 1
        w = self._workers.setdefault(worker, {"jobs": 0, "simulate_s": 0.0, "last": key})
        w["jobs"] += 1
        w["simulate_s"] += res.timings.get("simulate", 0.0)
        w["last"] = key
        self._progress(now=now)

    def event(self, etype: str, **fields: Any) -> None:
        """Emit an ad-hoc record (e.g. the serve coordinator's
        ``lease.reclaimed`` accounting); unknown types are ignored by the
        renderer but preserved by the loader."""
        self._out.write({"e": etype, "tw": time.time(), **fields})

    def fold(self, record: dict) -> None:
        """Re-emit one record from a *worker's* stream into this stream.

        The distributed campaign service gives every worker its own
        telemetry file (kill-safe: a dead worker leaves at most one
        partial line in its own stream, never in the campaign stream);
        the coordinator tails those files and folds the records here so
        ``repro-mac watch`` needs only the one campaign stream.  Meta
        headers and end records are *not* folded -- a worker's lifecycle
        is not the campaign's.  Worker heartbeats refresh this stream's
        per-worker bookkeeping so the next ``progress`` flush reflects
        them.
        """
        etype = record.get("e")
        if etype in (TELEMETRY_META_ETYPE, "end", "progress"):
            return
        if etype == "worker":
            pid = record.get("worker", 0)
            w = self._workers.setdefault(
                pid, {"jobs": 0, "simulate_s": 0.0, "last": "?"}
            )
            # The worker's own counters are authoritative for its row.
            w["jobs"] = record.get("jobs_done", w["jobs"])
            w["simulate_s"] = record.get("simulate_s", w["simulate_s"])
            w["last"] = record.get("last", w["last"])
            for extra_key in ("id", "leased"):
                if extra_key in record:
                    w[extra_key] = record[extra_key]
        self._out.write(dict(record))

    def _progress(self, now: float | None = None, force: bool = False) -> None:
        now = now if now is not None else time.time()
        if not force and now - self._last_progress < _PROGRESS_INTERVAL_S:
            return
        self._last_progress = now
        elapsed = now - self._t_start
        fresh_done = self._done - self._store_served
        pending = self.n_jobs - self._done
        rate = self._slots_done / elapsed if elapsed > 0 else None
        eta = (
            pending * (elapsed / fresh_done)
            if fresh_done > 0 and pending > 0
            else (0.0 if pending == 0 else None)
        )
        self._out.write(
            {
                "e": "progress",
                "tw": now,
                "done": self._done,
                "pending": pending,
                "total": self.n_jobs,
                "store_served": self._store_served,
                "cache_hits": self._cache_hits,
                "slots_done": self._slots_done,
                "slots_per_sec": rate,
                "elapsed_s": elapsed,
                "eta_s": eta,
            }
        )
        for pid, w in self._workers.items():
            record = {
                "e": "worker",
                "tw": now,
                "worker": pid,
                "jobs_done": w["jobs"],
                "simulate_s": w["simulate_s"],
                "last": w["last"],
            }
            for extra_key in ("id", "leased"):
                if extra_key in w:
                    record[extra_key] = w[extra_key]
            self._out.write(record)

    def close(self, result=None) -> None:
        """Write the ``end`` record (campaign completed) and close."""
        now = time.time()
        record: dict[str, Any] = {
            "e": "end",
            "tw": now,
            "scope": "campaign",
            "done": self._done,
            "total": self.n_jobs,
            "store_served": self._store_served,
            "elapsed_s": now - self._t_start,
        }
        if result is not None:
            record.update(
                {
                    "wall_clock_s": result.wall_clock_s,
                    "slots_per_sec": result.slots_per_sec,
                    "store_hits": result.store_hits,
                    "cache_hits": result.cache_hits,
                }
            )
        self._progress(force=True)
        self._out.write(record)
        self._out.close()

    def __enter__(self) -> "CampaignTelemetry":
        return self

    def __exit__(self, *exc_info) -> None:
        # On an exception the stream simply ends without an `end` record
        # -- that is the "crashed / still running" signal, not an error.
        if exc_info[0] is not None:
            self._out.close()


# --------------------------------------------------------------------------
# Loader
# --------------------------------------------------------------------------


@dataclass
class TelemetryStream:
    """A parsed telemetry file, tolerant of a killed writer."""

    #: The ``telemetry.meta`` header (None for an empty file).
    meta: dict | None
    #: Every complete record after the header, in file order.
    records: list[dict] = field(default_factory=list)
    #: True when the final line was partial (writer killed mid-write).
    truncated: bool = False

    def by_type(self, etype: str) -> list[dict]:
        return [r for r in self.records if r.get("e") == etype]

    @property
    def completed(self) -> bool:
        """True iff the *campaign* wrote its ``end`` record.

        Worker-scoped end records (``scope: "worker"``) never count: a
        folded or interleaved multi-writer stream whose workers exited
        is not a finished campaign until the coordinator says so.
        Records without a ``scope`` (single-writer streams from before
        the distributed service) are campaign-scoped.
        """
        return any(
            r.get("e") == "end" and r.get("scope", "campaign") != "worker"
            for r in self.records
        )

    @property
    def last_progress(self) -> dict | None:
        for record in reversed(self.records):
            if record.get("e") == "progress":
                return record
        return None

    def spans(self) -> list[dict]:
        return self.by_type("span")


def load_telemetry(source: str | Path | IO[str]) -> TelemetryStream:
    """Parse a telemetry stream; a killed writer's tail is tolerated.

    Crash tolerance follows :func:`repro.obs.records.read_jsonl`, the same
    contract as :func:`repro.obs.trace.load_trace`: a final line without
    its newline is kept if it parses and dropped if not, and either way
    the stream is marked ``truncated``.
    """
    records, truncated = read_jsonl(
        source, "telemetry", ("e",), TELEMETRY_META_ETYPE, TELEMETRY_SCHEMA_VERSION
    )
    # Multi-writer tolerance: the first header (the coordinator's) stays
    # authoritative; later metas -- e.g. worker streams concatenated or
    # folded into a campaign stream -- are kept as plain records so
    # nothing is silently dropped.
    first = next((i for i, r in enumerate(records) if r["e"] == TELEMETRY_META_ETYPE), None)
    meta = None if first is None else records.pop(first)
    return TelemetryStream(meta=meta, records=records, truncated=truncated)


# --------------------------------------------------------------------------
# Span analysis and rendering
# --------------------------------------------------------------------------


def span_summary(spans: list[dict], top_n: int = 5) -> dict:
    """Aggregate spans: per-phase seconds, per-worker totals, stragglers.

    This is the shape merged into the campaign manifest
    (``extra["span_summary"]``): a bounded record however large the grid,
    with the full span log living in the telemetry stream itself.
    """
    per_phase: dict[str, float] = {}
    per_worker: dict[str, dict[str, float]] = {}
    per_cell: dict[str, float] = {}
    for span in spans:
        phase = span.get("phase", "?")
        dur = float(span.get("dur_s") or 0.0)
        per_phase[phase] = per_phase.get(phase, 0.0) + dur
        worker = str(span.get("worker", 0))
        w = per_worker.setdefault(worker, {"spans": 0, "seconds": 0.0})
        w["spans"] += 1
        w["seconds"] += dur
        cell = span.get("cell", "?")
        per_cell[cell] = per_cell.get(cell, 0.0) + dur
    stragglers = sorted(per_cell.items(), key=lambda kv: -kv[1])[:top_n]
    return {
        "n_spans": len(spans),
        "per_phase_s": per_phase,
        "per_worker": per_worker,
        "stragglers": [{"cell": c, "seconds": s} for c, s in stragglers],
    }


def _bar(done: int, total: int, width: int = 30) -> str:
    frac = done / total if total else 0.0
    filled = int(round(frac * width))
    return "[" + "#" * filled + "-" * (width - filled) + f"] {frac:4.0%}"


def _fmt_s(seconds: float | None) -> str:
    if seconds is None:
        return "?"
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.1f}s"


def render_telemetry(stream: TelemetryStream, width: int = 30) -> str:
    """The single-screen text view of a campaign stream.

    Works mid-run (no ``end`` record yet -- status ``running``, possibly
    with a truncated tail) and post-hoc on a completed stream.
    """
    lines: list[str] = []
    meta = stream.meta or {}
    name = meta.get("campaign", "?")
    total = meta.get("n_jobs", 0)
    progress = stream.last_progress
    done = progress["done"] if progress else 0
    served = progress.get("store_served", 0) if progress else 0
    ends = stream.by_type("end")
    if ends:
        status = f"completed in {_fmt_s(ends[-1].get('elapsed_s'))}"
    elif stream.truncated:
        status = "interrupted (stream truncated mid-write)"
    else:
        status = "running"
    lines.append(f"campaign '{name}' -- {status}")
    lines.append(
        f"  {_bar(done, total, width)}  {done}/{total} cells"
        + (f" ({served} store-served)" if served else "")
    )
    if progress:
        rate = progress.get("slots_per_sec")
        lines.append(
            "  elapsed "
            + _fmt_s(progress.get("elapsed_s"))
            + "  ETA "
            + _fmt_s(progress.get("eta_s"))
            + (f"  {rate:,.0f} slots/s rolling" if rate else "")
            + f"  world-cache hits {progress.get('cache_hits', 0)}"
        )
    reclaimed = sum(r.get("n", 0) for r in stream.by_type("lease.reclaimed"))
    if reclaimed:
        lines.append(f"  leases reclaimed from dead workers: {reclaimed}")
    workers: dict = {}
    for record in stream.by_type("worker"):
        workers[record["worker"]] = record  # last heartbeat wins
    if workers:
        lines.append(f"  workers ({len(workers)}):")
        # Worker keys may mix pids (ints) and distributed-worker ids
        # (strings) in one multi-writer stream -- sort on the rendering.
        for pid in sorted(workers, key=str):
            w = workers[pid]
            label = w.get("id") or f"pid {pid}"
            leased = f"  {w['leased']} leased" if w.get("leased") else ""
            lines.append(
                f"    {str(label):<16} {w.get('jobs_done', 0):>5} jobs"
                f"  {w.get('simulate_s', 0.0):8.2f}s simulate"
                f"   last {w.get('last', '?')}{leased}"
            )
    spans = stream.spans()
    if spans:
        summary = span_summary(spans)
        phases = "  ".join(
            f"{k} {v:.2f}s" for k, v in sorted(summary["per_phase_s"].items())
        )
        lines.append(f"  span phases: {phases}")
        if summary["stragglers"]:
            worst = summary["stragglers"][0]
            lines.append(
                f"  slowest cell: {worst['cell']} ({worst['seconds']:.2f}s over "
                f"{summary['n_spans']} spans)"
            )
    if not stream.records and not meta:
        lines.append("  (empty stream)")
    return "\n".join(lines)

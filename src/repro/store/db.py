"""The SQLite results store: durable memoisation of sweep cells.

One row per computed cell, keyed by ``(scenario_digest, protocol, seed,
code_fingerprint)`` -- see :mod:`repro.store.digests` for how the
addresses are derived.  The payload is the worker's complete
:class:`~repro.experiments.sweep.JobResult` (zlib-compressed pickle), so
a store hit reproduces exactly what the pool would have sent back and
merged results stay bit-identical to a cold run (pinned by
``tests/experiments/test_sweep_store.py``).

Durability discipline: every :meth:`ResultStore.put` commits immediately,
and :meth:`ResultStore.complete_cells` commits a worker's results together
with their lease transitions in **one** transaction -- a crash mid-commit
rolls all of it back, so no partial cell is ever served (pinned by
``tests/store/test_leases.py``).  A campaign killed mid-grid therefore
keeps every finished cell, and the rerun dispatches only the missing ones
-- that is the whole resumability story, there is no separate checkpoint
format.

Since schema v2 the store is also the **coordination substrate** of the
distributed campaign service (:mod:`repro.serve`): the ``leases`` table
is a per-campaign work queue of planned cells that workers claim with
expiring, heartbeat-renewed leases.  All queue transitions are single
SQLite transactions (``BEGIN IMMEDIATE``), so any number of worker
processes -- on this host or another sharing the filesystem -- can race
on the same store without double-granting a live lease.  A worker that
dies simply stops renewing; its cells become claimable again the moment
the lease expires.  See ``docs/serve.md`` for the lease lifecycle.

Schema changes go through :data:`ResultStore.SCHEMA_VERSION` and
``_MIGRATIONS``; opening a store written by a *newer* build fails loudly
rather than guessing.
"""

from __future__ import annotations

import os
import pickle
import sqlite3
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

from repro.store.digests import code_fingerprint

__all__ = ["ResultStore", "StoreError", "LeasedCell"]


class StoreError(RuntimeError):
    """Raised for schema/version problems and rows that do not decode --
    never for plain cache misses."""


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


#: Applied in order; migration ``i`` upgrades a version-``i`` store to
#: ``i + 1``.  Index 0 creates the version-1 schema from scratch.
_MIGRATIONS = (
    """
    CREATE TABLE meta (
        key   TEXT PRIMARY KEY,
        value TEXT NOT NULL
    );
    CREATE TABLE results (
        scenario_digest  TEXT    NOT NULL,
        protocol         TEXT    NOT NULL,
        seed             INTEGER NOT NULL,
        code_fingerprint TEXT    NOT NULL,
        payload          BLOB    NOT NULL,
        created_at       TEXT    NOT NULL,
        last_hit_at      TEXT,
        hits             INTEGER NOT NULL DEFAULT 0,
        PRIMARY KEY (scenario_digest, protocol, seed, code_fingerprint)
    );
    CREATE INDEX idx_results_fingerprint ON results (code_fingerprint);
    """,
    # v2: the distributed campaign service's lease queue (repro.serve).
    """
    CREATE TABLE leases (
        campaign         TEXT    NOT NULL,
        scenario_digest  TEXT    NOT NULL,
        protocol         TEXT    NOT NULL,
        seed             INTEGER NOT NULL,
        code_fingerprint TEXT    NOT NULL,
        job_index        INTEGER NOT NULL,
        job              BLOB    NOT NULL,
        state            TEXT    NOT NULL DEFAULT 'pending',
        worker           TEXT,
        lease_expires_at REAL,
        attempts         INTEGER NOT NULL DEFAULT 0,
        enqueued_at      TEXT    NOT NULL,
        completed_at     TEXT,
        PRIMARY KEY (campaign, scenario_digest, protocol, seed, code_fingerprint)
    );
    CREATE INDEX idx_leases_campaign_state ON leases (campaign, state);
    """,
)


@dataclass(frozen=True)
class LeasedCell:
    """One claimed queue entry: the cell address plus its planned job."""

    campaign: str
    job_index: int
    scenario_digest: str
    protocol: str
    seed: int
    fingerprint: str
    #: The job text as enqueued, never unpickled: in the serve service the
    #: JSON of a :class:`~repro.experiments.sweep.SweepJob`
    #: (:func:`repro.serve.worker.job_text`).
    job: str
    #: Lease attempts including this grant; ``> 1`` means the cell was
    #: reclaimed or stolen from an expired lease.
    attempts: int = 1

    @property
    def key(self) -> tuple[str, str, int]:
        return (self.scenario_digest, self.protocol, self.seed)


#: The one results-row write, shared by :meth:`ResultStore.put` and
#: :meth:`ResultStore.complete_cells`.
_INSERT_RESULT = (
    "INSERT OR REPLACE INTO results"
    " (scenario_digest, protocol, seed, code_fingerprint, payload, created_at)"
    " VALUES (?, ?, ?, ?, ?, ?)"
)


#: Seeds per ``IN`` list in :meth:`ResultStore.fetch`: with its three
#: other parameters, under the 999-variable limit of SQLite builds
#: before 3.32 (which raised the default to 32766).
_SEED_CHUNK = 900


def _collected_key(campaign: str) -> str:
    """The ``meta`` key marking *campaign* collected (see ``clear_campaign``)."""
    return f"collected:{campaign}"


def _dumps(payload: Any) -> bytes:
    return zlib.compress(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))


def _loads(blob: bytes) -> Any:
    return pickle.loads(zlib.decompress(blob))


class ResultStore:
    """Content-addressed store of finished simulation cells.

    Open with a filesystem path (created on first use) or ``":memory:"``
    for tests.  Usable as a context manager; safe to reopen across
    processes -- SQLite serialises writers, and rows are immutable once
    written (same key => same content, by construction).

    The connection runs in autocommit mode with an explicit transaction
    around every multi-statement operation (the lease queue
    transitions, a scan's hit bookkeeping), so concurrent workers see
    either all of an operation or none of it.
    """

    SCHEMA_VERSION = len(_MIGRATIONS)

    def __init__(self, path: str | Path):
        self.path = str(path)
        if self.path != ":memory:":
            Path(self.path).parent.mkdir(parents=True, exist_ok=True)
        # Autocommit + explicit BEGIN IMMEDIATE where atomicity spans
        # statements; the generous timeout covers competing workers.
        self._conn = sqlite3.connect(self.path, timeout=30.0, isolation_level=None)
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute("PRAGMA busy_timeout=30000")
        self._migrate()

    # -- lifecycle ---------------------------------------------------------

    def _migrate(self) -> None:
        # Version check and DDL inside ONE immediate transaction: two
        # connections racing to create (or upgrade) the same store file
        # serialise here, and the loser re-reads the version the winner
        # committed instead of re-running its DDL.
        with self._transaction() as conn:
            cur = conn.execute(
                "SELECT name FROM sqlite_master WHERE type='table' AND name='meta'"
            )
            if cur.fetchone() is None:
                version = 0
            else:
                row = conn.execute(
                    "SELECT value FROM meta WHERE key='schema_version'"
                ).fetchone()
                version = int(row[0]) if row else 0
            if version > self.SCHEMA_VERSION:
                raise StoreError(
                    f"{self.path}: store schema v{version} is newer than this build "
                    f"supports (v{self.SCHEMA_VERSION}); upgrade the package or use a "
                    "fresh store"
                )
            for step in range(version, self.SCHEMA_VERSION):
                for statement in _MIGRATIONS[step].split(";"):
                    if statement.strip():
                        conn.execute(statement)
            if version != self.SCHEMA_VERSION:
                conn.execute(
                    "INSERT OR REPLACE INTO meta (key, value)"
                    " VALUES ('schema_version', ?)",
                    (str(self.SCHEMA_VERSION),),
                )

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @contextmanager
    def _transaction(self) -> Iterator[sqlite3.Connection]:
        """One IMMEDIATE transaction around the block: commit on exit,
        roll back (unless SQLite already did) and re-raise on any error."""
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            yield self._conn
        except BaseException:
            if self._conn.in_transaction:
                self._conn.execute("ROLLBACK")
            raise
        self._conn.execute("COMMIT")

    # -- the cell API ------------------------------------------------------

    def fetch(
        self,
        keys: Iterable[tuple[str, str, int]],
        fingerprint: str | None = None,
    ) -> dict[tuple[str, str, int], Any]:
        """The stored payloads for *keys* ``(digest, protocol, seed)``,
        as ``{key: payload}`` for the hits only -- a pure read.

        One SELECT per ``(digest, protocol)`` (its seeds chunked under
        SQLite's variable limit); rows are decoded as they stream, so the
        raw blobs of a large scan are never all held at once.  A row
        written under a different *fingerprint* is a miss, not an error.
        A row that does not decode raises :class:`StoreError` naming it.
        """
        fp = fingerprint if fingerprint is not None else code_fingerprint()
        seeds_by_group: dict[tuple[str, str], set[int]] = {}
        for digest, protocol, seed in keys:
            seeds_by_group.setdefault((digest, protocol), set()).add(int(seed))
        found: dict[tuple[str, str, int], Any] = {}
        for (digest, protocol), seeds in seeds_by_group.items():
            ordered = sorted(seeds)
            for i in range(0, len(ordered), _SEED_CHUNK):
                chunk = ordered[i : i + _SEED_CHUNK]
                rows = self._conn.execute(
                    "SELECT seed, payload FROM results WHERE scenario_digest=?"
                    " AND protocol=? AND code_fingerprint=?"
                    f" AND seed IN ({','.join('?' * len(chunk))})",
                    (digest, protocol, fp, *chunk),
                )
                for seed, blob in rows:
                    found[(digest, protocol, seed)] = self._decode(
                        blob, digest, protocol, seed
                    )
        return found

    def get_many(
        self,
        keys: Iterable[tuple[str, str, int]],
        fingerprint: str | None = None,
    ) -> dict[tuple[str, str, int], Any]:
        """:meth:`fetch`, then count one reuse of every hit.

        The bookkeeping (``hits + 1`` and one ``last_hit_at`` stamp) is a
        single transaction for the whole scan, so a warm campaign pays
        one commit rather than one per cell; no hits, no transaction.
        """
        fp = fingerprint if fingerprint is not None else code_fingerprint()
        found = self.fetch(keys, fp)
        if found:
            now = _utcnow()
            with self._transaction() as conn:
                conn.executemany(
                    "UPDATE results SET hits = hits + 1, last_hit_at = ?"
                    " WHERE scenario_digest=? AND protocol=? AND seed=?"
                    " AND code_fingerprint=?",
                    ((now, digest, protocol, seed, fp) for digest, protocol, seed in found),
                )
        return found

    def get(
        self,
        scenario_digest: str,
        protocol: str,
        seed: int,
        fingerprint: str | None = None,
    ) -> Any | None:
        """The stored payload for one cell, or ``None`` on miss (a
        one-key :meth:`get_many`, so a hit is counted)."""
        key = (scenario_digest, protocol, int(seed))
        return self.get_many([key], fingerprint).get(key)

    def _decode(self, blob: bytes, digest: str, protocol: str, seed: int) -> Any:
        try:
            return _loads(blob)
        except (zlib.error, pickle.UnpicklingError, EOFError) as exc:
            raise StoreError(
                f"{self.path}: stored cell (digest {digest}, protocol {protocol},"
                f" seed {seed}) does not decode: {exc!r}; delete the row or use"
                " a fresh store"
            ) from exc

    def put(
        self,
        scenario_digest: str,
        protocol: str,
        seed: int,
        payload: Any,
        fingerprint: str | None = None,
    ) -> None:
        """Insert one finished cell and commit immediately (resumability)."""
        fp = fingerprint if fingerprint is not None else code_fingerprint()
        self._conn.execute(
            _INSERT_RESULT,
            (scenario_digest, protocol, int(seed), fp, _dumps(payload), _utcnow()),
        )

    # -- the lease queue (repro.serve's coordination substrate) ------------

    def enqueue_jobs(
        self,
        campaign: str,
        entries: Iterable[tuple[int, str, str, int, str]],
        fingerprint: str | None = None,
    ) -> int:
        """Enqueue planned cells ``(job_index, digest, protocol, seed, job_text)``.

        ``INSERT OR IGNORE``: re-enqueueing after a coordinator restart
        leaves existing rows -- including ones a worker currently holds
        -- untouched, so in-flight work survives the restart.  Enqueueing
        also lifts a previous run's collected mark (:meth:`clear_campaign`).
        Returns the number of rows actually inserted.
        """
        fp = fingerprint if fingerprint is not None else code_fingerprint()
        n = 0
        with self._transaction() as conn:
            conn.execute("DELETE FROM meta WHERE key=?", (_collected_key(campaign),))
            for job_index, digest, protocol, seed, job in entries:
                cur = conn.execute(
                    "INSERT OR IGNORE INTO leases"
                    " (campaign, scenario_digest, protocol, seed, code_fingerprint,"
                    "  job_index, job, enqueued_at)"
                    " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                    (campaign, digest, protocol, int(seed), fp, int(job_index), job, _utcnow()),
                )
                n += cur.rowcount
        return n

    def lease_cells(
        self,
        campaign: str,
        worker: str,
        n: int,
        ttl_s: float,
        fingerprint: str | None = None,
        now: float | None = None,
    ) -> list[LeasedCell]:
        """Atomically claim up to *n* cells for *worker* (TTL seconds).

        Grants pending cells plus any whose lease has expired (the dead
        worker's tail is stolen automatically).  Backpressure-aware
        chunking: while the queue is deep a worker gets its full batch,
        but once fewer than ``2 * n`` cells remain the grant shrinks to
        half the remainder (floor 1), so the tail spreads across every
        live worker instead of sitting in one slow worker's chunk.

        Only rows enqueued under the caller's *fingerprint* are granted:
        a worker running different code must not compute cells addressed
        to another build.
        """
        fp = fingerprint if fingerprint is not None else code_fingerprint()
        t = time.time() if now is None else now
        with self._transaction() as conn:
            available = conn.execute(
                "SELECT COUNT(*) FROM leases WHERE campaign=? AND code_fingerprint=?"
                " AND (state='pending' OR (state='leased' AND lease_expires_at < ?))",
                (campaign, fp, t),
            ).fetchone()[0]
            if available == 0:
                return []
            grant = int(n) if available >= 2 * n else max(1, available // 2)
            rows = conn.execute(
                "SELECT job_index, scenario_digest, protocol, seed, job, attempts"
                " FROM leases WHERE campaign=? AND code_fingerprint=?"
                " AND (state='pending' OR (state='leased' AND lease_expires_at < ?))"
                " ORDER BY job_index LIMIT ?",
                (campaign, fp, t, grant),
            ).fetchall()
            leased = []
            for job_index, digest, protocol, seed, job, attempts in rows:
                conn.execute(
                    "UPDATE leases SET state='leased', worker=?, lease_expires_at=?,"
                    " attempts=attempts+1"
                    " WHERE campaign=? AND scenario_digest=? AND protocol=? AND seed=?"
                    " AND code_fingerprint=?",
                    (worker, t + ttl_s, campaign, digest, protocol, seed, fp),
                )
                leased.append(
                    LeasedCell(
                        campaign=campaign,
                        job_index=job_index,
                        scenario_digest=digest,
                        protocol=protocol,
                        seed=seed,
                        fingerprint=fp,
                        job=job,
                        attempts=int(attempts) + 1,
                    )
                )
        return leased

    def renew_leases(
        self, campaign: str, worker: str, ttl_s: float, now: float | None = None
    ) -> int:
        """Extend every live lease *worker* holds; the heartbeat."""
        t = time.time() if now is None else now
        cur = self._conn.execute(
            "UPDATE leases SET lease_expires_at=?"
            " WHERE campaign=? AND worker=? AND state='leased'",
            (t + ttl_s, campaign, worker),
        )
        return cur.rowcount

    def release_leases(self, campaign: str, worker: str) -> int:
        """Hand back every cell *worker* holds (graceful shutdown)."""
        cur = self._conn.execute(
            "UPDATE leases SET state='pending', worker=NULL, lease_expires_at=NULL"
            " WHERE campaign=? AND worker=? AND state='leased'",
            (campaign, worker),
        )
        return cur.rowcount

    def reclaim_expired(self, campaign: str, now: float | None = None) -> int:
        """Reset expired leases to pending; returns cells reclaimed.

        ``lease_cells`` already steals expired cells directly, so this is
        the coordinator's explicit accounting sweep -- the number it
        returns is what the campaign stream reports as reclamations.
        """
        t = time.time() if now is None else now
        cur = self._conn.execute(
            "UPDATE leases SET state='pending', worker=NULL, lease_expires_at=NULL"
            " WHERE campaign=? AND state='leased' AND lease_expires_at < ?",
            (campaign, t),
        )
        return cur.rowcount

    def complete_cells(
        self,
        campaign: str,
        items: Sequence[tuple[str, str, int, Any]],
        fingerprint: str | None = None,
        worker: str | None = None,
    ) -> int:
        """Commit finished cells AND mark their leases done -- one transaction.

        *items* is ``[(digest, protocol, seed, payload), ...]``.  The
        result insert and the queue transition are atomic: a worker
        killed anywhere either contributes the whole batch (results
        stored, leases done) or none of it (leases expire and the cells
        are recomputed).  There is no window where a result exists
        without its lease marked done or vice versa.
        """
        fp = fingerprint if fingerprint is not None else code_fingerprint()
        n = 0
        with self._transaction() as conn:
            for digest, protocol, seed, payload in items:
                conn.execute(
                    _INSERT_RESULT,
                    (digest, protocol, int(seed), fp, _dumps(payload), _utcnow()),
                )
                conn.execute(
                    "UPDATE leases SET state='done', worker=?, lease_expires_at=NULL,"
                    " completed_at=?"
                    " WHERE campaign=? AND scenario_digest=? AND protocol=? AND seed=?"
                    " AND code_fingerprint=?",
                    (worker, _utcnow(), campaign, digest, protocol, int(seed), fp),
                )
                n += 1
        return n

    def done_cells(
        self, campaign: str, fingerprint: str | None = None
    ) -> list[tuple[int, str, str, int]]:
        """Completed queue entries ``(job_index, digest, protocol, seed)``
        in planned-job order -- what the coordinator collects and merges."""
        fp = fingerprint if fingerprint is not None else code_fingerprint()
        return [
            (int(ji), d, p, int(s))
            for ji, d, p, s in self._conn.execute(
                "SELECT job_index, scenario_digest, protocol, seed FROM leases"
                " WHERE campaign=? AND code_fingerprint=? AND state='done'"
                " ORDER BY job_index",
                (campaign, fp),
            )
        ]

    def queue_counts(self, campaign: str, now: float | None = None) -> dict[str, int]:
        """Queue shape: pending/leased/expired/done/total for *campaign*."""
        t = time.time() if now is None else now
        counts = {"pending": 0, "leased": 0, "done": 0}
        for state, n in self._conn.execute(
            "SELECT state, COUNT(*) FROM leases WHERE campaign=? GROUP BY state",
            (campaign,),
        ):
            counts[state] = n
        expired = self._conn.execute(
            "SELECT COUNT(*) FROM leases WHERE campaign=? AND state='leased'"
            " AND lease_expires_at < ?",
            (campaign, t),
        ).fetchone()[0]
        counts["expired"] = expired
        counts["total"] = counts["pending"] + counts["leased"] + counts["done"]
        return counts

    def queue_workers(self, campaign: str) -> dict[str, dict[str, int]]:
        """Per-worker queue view: cells currently leased / completed."""
        workers: dict[str, dict[str, int]] = {}
        for worker, n in self._conn.execute(
            "SELECT worker, COUNT(*) FROM leases WHERE campaign=? AND state='leased'"
            " AND worker IS NOT NULL GROUP BY worker",
            (campaign,),
        ):
            workers.setdefault(worker, {"leased": 0, "done": 0})["leased"] = n
        for worker, n in self._conn.execute(
            "SELECT worker, COUNT(*) FROM leases WHERE campaign=? AND state='done'"
            " AND worker IS NOT NULL GROUP BY worker",
            (campaign,),
        ):
            workers.setdefault(worker, {"leased": 0, "done": 0})["done"] = n
        return workers

    def campaigns(self) -> list[tuple[str, int]]:
        """Every campaign with queue rows, and how many."""
        return [
            (c, int(n))
            for c, n in self._conn.execute(
                "SELECT campaign, COUNT(*) FROM leases GROUP BY campaign"
                " ORDER BY campaign"
            )
        ]

    def clear_campaign(self, campaign: str) -> int:
        """Drop *campaign*'s queue rows and mark it collected, in one
        transaction (results are never touched).

        The mark is what lets a worker that arrives after the collection
        exit instead of waiting for cells that will never be enqueued
        (:meth:`campaign_collected`); :meth:`enqueue_jobs` lifts it.
        """
        with self._transaction() as conn:
            cur = conn.execute("DELETE FROM leases WHERE campaign=?", (campaign,))
            conn.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                (_collected_key(campaign), _utcnow()),
            )
        return cur.rowcount

    def campaign_collected(self, campaign: str) -> bool:
        """Has a coordinator collected and cleared *campaign* since it was
        last enqueued?"""
        row = self._conn.execute(
            "SELECT 1 FROM meta WHERE key=?", (_collected_key(campaign),)
        ).fetchone()
        return row is not None

    # -- maintenance -------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Cell/fingerprint/byte totals plus per-protocol and
        per-fingerprint breakdowns -- ``repro-mac store stats``."""
        n_rows = self._conn.execute("SELECT COUNT(*) FROM results").fetchone()[0]
        n_fps = self._conn.execute(
            "SELECT COUNT(DISTINCT code_fingerprint) FROM results"
        ).fetchone()[0]
        payload_bytes = (
            self._conn.execute("SELECT COALESCE(SUM(LENGTH(payload)), 0) FROM results")
            .fetchone()[0]
        )
        total_hits = self._conn.execute(
            "SELECT COALESCE(SUM(hits), 0) FROM results"
        ).fetchone()[0]
        by_protocol = {
            proto: int(n)
            for proto, n in self._conn.execute(
                "SELECT protocol, COUNT(*) FROM results GROUP BY protocol"
                " ORDER BY protocol"
            )
        }
        by_fingerprint = {
            fp: int(n)
            for fp, n in self._conn.execute(
                "SELECT code_fingerprint, COUNT(*) FROM results"
                " GROUP BY code_fingerprint ORDER BY COUNT(*) DESC"
            )
        }
        db_bytes = None
        if self.path != ":memory:":
            try:
                db_bytes = os.path.getsize(self.path)
            except OSError:
                db_bytes = None
        queue_rows = self._conn.execute("SELECT COUNT(*) FROM leases").fetchone()[0]
        return {
            "path": self.path,
            "schema_version": self.SCHEMA_VERSION,
            "n_results": n_rows,
            "n_fingerprints": n_fps,
            "payload_bytes": payload_bytes,
            "db_bytes": db_bytes,
            "total_hits": total_hits,
            "by_protocol": by_protocol,
            "by_fingerprint": by_fingerprint,
            "queue_rows": queue_rows,
            "campaigns": dict(self.campaigns()),
        }

    def prune(self, keep_fingerprint: str | None = None) -> int:
        """Evict rows from other code fingerprints; returns rows deleted.

        Stale rows are *correct* for the code that wrote them but dead
        weight for the current build -- prune reclaims the space without
        touching live cells.  Queue rows addressed to stale fingerprints
        go with them (no current worker could ever lease them).
        """
        fp = keep_fingerprint if keep_fingerprint is not None else code_fingerprint()
        with self._transaction() as conn:
            cur = conn.execute(
                "DELETE FROM results WHERE code_fingerprint != ?", (fp,)
            )
            conn.execute("DELETE FROM leases WHERE code_fingerprint != ?", (fp,))
        return cur.rowcount

    def vacuum(self) -> None:
        """Compact the database file after eviction."""
        self._conn.execute("VACUUM")

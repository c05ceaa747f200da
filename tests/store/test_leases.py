"""The lease queue: the store as coordination substrate (ISSUE 9).

These tests pin the queue's atomicity and lifecycle invariants with
synthetic payloads and an injected clock (every lease operation takes
``now=``); the end-to-end serve/worker behaviour on *real* sweep cells
lives in ``tests/serve/``.
"""

import json

import pytest
from hypothesis import given, settings as hsettings, strategies as st

from repro.store.db import ResultStore

FP = "f" * 64
OTHER_FP = "0" * 64
C = "campaign"


def _entries(n, protocol="BMMM"):
    """n planned queue entries over one digest, each job a JSON text
    (the store keeps job text as it is)."""
    return [(i, "d" * 64, protocol, i, json.dumps({"point": 0, "seed": i})) for i in range(n)]


def _queue(store, n=6, campaign=C):
    store.enqueue_jobs(campaign, _entries(n), FP)


def _lease_all(store, worker, ttl_s=10.0, now=0.0, campaign=C):
    """Grab every grantable cell one at a time (defeats the tail shrink)."""
    cells = []
    while True:
        got = store.lease_cells(campaign, worker, 1, ttl_s, FP, now=now)
        if not got:
            return cells
        cells.extend(got)


class TestEnqueue:
    def test_enqueue_counts_rows(self, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            assert store.enqueue_jobs(C, _entries(4), FP) == 4
            assert store.queue_counts(C)["total"] == 4
            assert store.queue_counts(C)["pending"] == 4

    def test_reenqueue_is_idempotent_and_preserves_leases(self, tmp_path):
        """A restarted coordinator re-enqueues the whole plan; rows a
        worker currently holds must survive untouched."""
        with ResultStore(tmp_path / "s.sqlite") as store:
            _queue(store, 4)
            held = store.lease_cells(C, "w1", 2, ttl_s=60, fingerprint=FP, now=100.0)
            assert store.enqueue_jobs(C, _entries(4), FP) == 0
            counts = store.queue_counts(C, now=100.0)
            assert counts == {
                "pending": 2, "leased": 2, "expired": 0, "done": 0, "total": 4,
            }
            # The held leases are still w1's: nobody else can claim them.
            stolen = store.lease_cells(C, "w2", 4, ttl_s=60, fingerprint=FP, now=100.0)
            assert {c.key for c in stolen}.isdisjoint({c.key for c in held})

    def test_campaigns_are_namespaced(self, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            _queue(store, 2, campaign="a")
            _queue(store, 3, campaign="b")
            assert dict(store.campaigns()) == {"a": 2, "b": 3}
            assert store.lease_cells("a", "w", 9, 60, FP, now=0.0)
            assert store.queue_counts("b", now=0.0)["pending"] == 3


class TestLeaseGrants:
    def test_grants_in_job_index_order(self, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            _queue(store, 8)
            cells = store.lease_cells(C, "w1", 4, 60, FP, now=0.0)
            assert [c.job_index for c in cells] == [0, 1, 2, 3]
            assert all(c.attempts == 1 for c in cells)
            assert json.loads(cells[0].job) == {"point": 0, "seed": 0}

    def test_empty_grant_closes_its_transaction(self, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            assert store.lease_cells(C, "w1", 4, 60, FP, now=0.0) == []
            assert not store._conn.in_transaction
            _queue(store, 1)
            assert len(store.lease_cells(C, "w1", 4, 60, FP, now=0.0)) == 1
            assert not store._conn.in_transaction

    def test_fingerprint_guard(self, tmp_path):
        """A worker running different code gets nothing -- it must never
        commit results under addresses the coordinator won't match."""
        with ResultStore(tmp_path / "s.sqlite") as store:
            _queue(store, 8)
            assert store.lease_cells(C, "w1", 4, 60, OTHER_FP, now=0.0) == []
            assert len(store.lease_cells(C, "w1", 4, 60, FP, now=0.0)) == 4

    def test_backpressure_shrinks_tail_grants(self, tmp_path):
        """Near the tail (< 2n cells left) the grant halves, so the last
        cells spread across live workers instead of one slow chunk."""
        with ResultStore(tmp_path / "s.sqlite") as store:
            _queue(store, 11)
            assert len(store.lease_cells(C, "w1", 4, 60, FP, now=0.0)) == 4
            # 7 left >= 2*4 is false -> grant 7 // 2 = 3.
            assert len(store.lease_cells(C, "w2", 4, 60, FP, now=0.0)) == 3
            # 4 left -> 2, 2 left -> 1, 1 left -> 1, 0 left -> [].
            assert len(store.lease_cells(C, "w3", 4, 60, FP, now=0.0)) == 2
            assert len(store.lease_cells(C, "w4", 4, 60, FP, now=0.0)) == 1
            assert len(store.lease_cells(C, "w5", 4, 60, FP, now=0.0)) == 1
            assert store.lease_cells(C, "w6", 4, 60, FP, now=0.0) == []

    def test_deep_queue_grants_full_batch(self, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            _queue(store, 8)
            assert len(store.lease_cells(C, "w1", 4, 60, FP, now=0.0)) == 4


class TestLeaseLifecycle:
    def test_live_leases_are_exclusive(self, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            _queue(store, 2)
            assert len(store.lease_cells(C, "w1", 1, 10, FP, now=0.0)) == 1
            assert len(store.lease_cells(C, "w1", 1, 10, FP, now=0.0)) == 1
            assert store.lease_cells(C, "w2", 2, 10, FP, now=5.0) == []

    def test_expired_lease_is_stolen_with_attempt_count(self, tmp_path):
        """Work stealing: lease_cells grants expired cells directly; the
        attempt counter records the recovery."""
        with ResultStore(tmp_path / "s.sqlite") as store:
            _queue(store, 2)
            assert len(_lease_all(store, "w1", ttl_s=10, now=0.0)) == 2
            stolen = _lease_all(store, "w2", ttl_s=10, now=11.0)
            assert len(stolen) == 2
            assert all(c.attempts == 2 for c in stolen)

    def test_renew_extends_expiry(self, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            _queue(store, 2)
            _lease_all(store, "w1", ttl_s=10, now=0.0)
            assert store.renew_leases(C, "w1", ttl_s=10, now=9.0) == 2
            assert store.lease_cells(C, "w2", 2, 10, FP, now=15.0) == []
            assert store.queue_counts(C, now=15.0)["expired"] == 0

    def test_release_returns_cells_to_pending(self, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            _queue(store, 2)
            _lease_all(store, "w1", ttl_s=10, now=0.0)
            assert store.release_leases(C, "w1") == 2
            counts = store.queue_counts(C, now=1.0)
            assert counts["pending"] == 2 and counts["leased"] == 0

    def test_reclaim_expired_counts_and_resets(self, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            _queue(store, 3)
            _lease_all(store, "w1", ttl_s=10, now=0.0)
            assert store.reclaim_expired(C, now=5.0) == 0
            assert store.queue_counts(C, now=11.0)["expired"] == 3
            assert store.reclaim_expired(C, now=11.0) == 3
            assert store.queue_counts(C, now=11.0)["pending"] == 3


class TestCompletion:
    def test_complete_stores_result_and_marks_done(self, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            _queue(store, 2)
            cells = store.lease_cells(C, "w1", 1, 60, FP, now=0.0)
            cell = cells[0]
            store.complete_cells(
                C, [(cell.scenario_digest, cell.protocol, cell.seed, {"ok": 1})],
                FP, "w1",
            )
            assert store.get(cell.scenario_digest, cell.protocol, cell.seed, FP) == {
                "ok": 1
            }
            assert store.done_cells(C, FP) == [
                (cell.job_index, cell.scenario_digest, cell.protocol, cell.seed)
            ]
            assert store.queue_counts(C, now=0.0)["done"] == 1

    def test_done_cells_in_planned_order(self, tmp_path):
        """The merge walks job_index order no matter the commit order."""
        with ResultStore(tmp_path / "s.sqlite") as store:
            _queue(store, 4)
            cells = _lease_all(store, "w1", ttl_s=60, now=0.0)
            for cell in reversed(cells):
                store.complete_cells(
                    C,
                    [(cell.scenario_digest, cell.protocol, cell.seed, cell.seed)],
                    FP, "w1",
                )
            assert [ji for ji, *_ in store.done_cells(C, FP)] == [0, 1, 2, 3]

    def test_crash_mid_commit_leaves_no_partial_batch(self, tmp_path):
        """The atomicity pin: a failure anywhere inside complete_cells
        rolls back BOTH the result inserts and the lease transitions --
        no window where a result exists without its lease done."""
        with ResultStore(tmp_path / "s.sqlite") as store:
            _queue(store, 3)
            cells = _lease_all(store, "w1", ttl_s=60, now=0.0)
            bad = [
                (c.scenario_digest, c.protocol, c.seed, {"ok": c.seed})
                for c in cells
            ]
            bad[2] = (bad[2][0], bad[2][1], bad[2][2], lambda: None)  # unpicklable
            with pytest.raises(Exception):
                store.complete_cells(C, bad, FP, "w1")
            assert store.done_cells(C, FP) == []
            for c in cells:
                assert store.get(c.scenario_digest, c.protocol, c.seed, FP) is None
            # The cells are still leased -- they expire and recompute.
            assert store.queue_counts(C, now=0.0)["leased"] == 3

    def test_batch_commits_atomically(self, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            _queue(store, 5)
            cells = _lease_all(store, "w1", ttl_s=60, now=0.0)
            n = store.complete_cells(
                C,
                [(c.scenario_digest, c.protocol, c.seed, {"seed": c.seed}) for c in cells],
                FP, "w1",
            )
            assert n == 5
            for c in cells:
                assert store.get(c.scenario_digest, c.protocol, c.seed, FP) == {
                    "seed": c.seed
                }
            assert [ji for ji, *_ in store.done_cells(C, FP)] == [0, 1, 2, 3, 4]

    def test_crash_mid_batch_serves_no_partial_cell(self, tmp_path):
        """A batch that dies in the middle leaves the file exactly as
        before: a reader that reopens it never sees the cells written
        before the crash point, and no lease is marked done."""
        path = tmp_path / "s.sqlite"
        with ResultStore(path) as store:
            _queue(store, 5)
            cells = _lease_all(store, "w1", ttl_s=60, now=0.0)
            items = [(c.scenario_digest, c.protocol, c.seed, {"seed": c.seed}) for c in cells]
            items[3] = (*items[3][:3], lambda: None)  # dies here
            with pytest.raises(Exception):
                store.complete_cells(C, items, FP, "w1")
        with ResultStore(path) as store:
            assert store.stats()["n_results"] == 0
            assert store.done_cells(C, FP) == []
            for c in cells:
                assert store.get(c.scenario_digest, c.protocol, c.seed, FP) is None

    def test_failed_batch_leaves_store_usable(self, tmp_path):
        """After a rolled-back batch the same leases can still be
        completed, and a plain put still commits."""
        with ResultStore(tmp_path / "s.sqlite") as store:
            _queue(store, 1)
            (cell,) = _lease_all(store, "w1", ttl_s=60, now=0.0)
            with pytest.raises(Exception):
                store.complete_cells(C, [(*cell.key, lambda: None)], FP, "w1")
            store.complete_cells(C, [(*cell.key, {"ok": True})], FP, "w1")
            assert store.get(*cell.key, FP) == {"ok": True}
            assert store.queue_counts(C, now=0.0)["done"] == 1
            store.put("e" * 64, "BMMM", 0, {"ok": True}, fingerprint=FP)
            assert store.get("e" * 64, "BMMM", 0, FP) == {"ok": True}

    def test_put_and_complete_write_the_same_row(self, tmp_path):
        """put and complete_cells share one insert: each replaces the
        other's row for the same key instead of adding a second one."""
        with ResultStore(tmp_path / "s.sqlite") as store:
            _queue(store, 1)
            (cell,) = _lease_all(store, "w1", ttl_s=60, now=0.0)
            store.put(*cell.key, "from put", fingerprint=FP)
            store.complete_cells(C, [(*cell.key, "from complete")], FP, "w1")
            assert store.get(*cell.key, FP) == "from complete"
            store.put(*cell.key, "from put again", fingerprint=FP)
            assert store.get(*cell.key, FP) == "from put again"
            assert store.stats()["n_results"] == 1

    def test_queue_workers_view(self, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            _queue(store, 4)
            cells = store.lease_cells(C, "w1", 2, 60, FP, now=0.0)
            store.complete_cells(
                C,
                [(cells[0].scenario_digest, cells[0].protocol, cells[0].seed, 1)],
                FP, "w1",
            )
            workers = store.queue_workers(C)
            assert workers["w1"]["leased"] == 1 and workers["w1"]["done"] == 1

    def test_clear_campaign_drops_queue_not_results(self, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            _queue(store, 2)
            cells = store.lease_cells(C, "w1", 2, 60, FP, now=0.0)
            store.complete_cells(
                C,
                [(c.scenario_digest, c.protocol, c.seed, c.seed) for c in cells],
                FP, "w1",
            )
            assert store.clear_campaign(C) == 2
            assert store.queue_counts(C, now=0.0)["total"] == 0
            for c in cells:
                assert store.get(c.scenario_digest, c.protocol, c.seed, FP) == c.seed

    def test_clear_marks_collected_until_reenqueued(self, tmp_path):
        """The collected mark is what lets a late worker exit: set by
        clear_campaign, lifted when the campaign is enqueued again, and
        scoped to its campaign."""
        with ResultStore(tmp_path / "s.sqlite") as store:
            assert not store.campaign_collected(C)
            _queue(store, 2)
            store.clear_campaign(C)
            assert store.campaign_collected(C)
            assert not store.campaign_collected("other")
            _queue(store, 2)
            assert not store.campaign_collected(C)


class TestMaintenanceWithQueue:
    def test_stats_reports_queue_and_campaigns(self, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            _queue(store, 3, campaign="a")
            _queue(store, 2, campaign="b")
            stats = store.stats()
            assert stats["queue_rows"] == 5
            assert stats["campaigns"] == {"a": 3, "b": 2}

    def test_stats_breaks_down_by_protocol_and_fingerprint(self, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            store.put("d" * 64, "BMMM", 0, 1, fingerprint=FP)
            store.put("d" * 64, "BMMM", 1, 1, fingerprint=FP)
            store.put("d" * 64, "LAMM", 0, 1, fingerprint=FP)
            store.put("d" * 64, "BMMM", 0, 1, fingerprint=OTHER_FP)
            stats = store.stats()
            assert stats["by_protocol"] == {"BMMM": 3, "LAMM": 1}
            assert stats["by_fingerprint"] == {FP: 3, OTHER_FP: 1}
            assert stats["db_bytes"] > 0

    def test_prune_evicts_stale_queue_rows_too(self, tmp_path):
        """No current worker could ever lease a stale-fingerprint row."""
        with ResultStore(tmp_path / "s.sqlite") as store:
            store.enqueue_jobs(C, _entries(3), FP)
            store.enqueue_jobs("old", _entries(2), OTHER_FP)
            store.put("d" * 64, "BMMM", 0, 1, fingerprint=OTHER_FP)
            assert store.prune(keep_fingerprint=FP) == 1
            assert store.stats()["queue_rows"] == 3
            assert store.queue_counts(C, now=0.0)["total"] == 3


# -- the interleaving property --------------------------------------------


@st.composite
def _ops(draw):
    """A schedule of lease/commit/reclaim/release/advance operations."""
    return draw(
        st.lists(
            st.sampled_from(
                ["lease:a", "lease:b", "commit:a", "commit:b",
                 "reclaim", "release:a", "advance"]
            ),
            min_size=0,
            max_size=30,
        )
    )


@hsettings(max_examples=60, deadline=None)
@given(ops=_ops(), n_cells=st.integers(min_value=1, max_value=8))
def test_any_interleaving_yields_the_serial_merge(ops, n_cells):
    """The ISSUE 9 property: whatever order leases are taken, renewed,
    expired, reclaimed, released or committed in -- including a cell
    computed twice because its first lease expired mid-flight -- the
    drained queue yields every planned cell exactly once, in planned-job
    order, with the deterministic payload a serial run would produce.
    """
    compute = lambda cell: {"cell": cell.key, "job": json.loads(cell.job)["seed"]}  # noqa: E731
    with ResultStore(":memory:") as store:
        store.enqueue_jobs(C, _entries(n_cells), FP)
        clock = 0.0
        held = {"a": [], "b": []}
        for op in ops:
            if op.startswith("lease:"):
                w = op[-1]
                held[w].extend(
                    store.lease_cells(C, w, 2, ttl_s=5.0, fingerprint=FP, now=clock)
                )
            elif op.startswith("commit:"):
                w = op[-1]
                if held[w]:
                    cell = held[w].pop(0)
                    store.complete_cells(
                        C,
                        [(cell.scenario_digest, cell.protocol, cell.seed,
                          compute(cell))],
                        FP, w,
                    )
            elif op == "reclaim":
                store.reclaim_expired(C, now=clock)
            elif op == "release:a":
                store.release_leases(C, "a")
                held["a"].clear()
            elif op == "advance":
                clock += 3.0  # two advances expire any untouched lease
        # Drain: a fresh worker finishes whatever is left (leases held by
        # a/b expire as the clock advances past their TTL).
        for _ in range(4 * n_cells + 4):
            clock += 6.0
            cells = store.lease_cells(C, "w", 2, ttl_s=5.0, fingerprint=FP, now=clock)
            if not cells:
                if store.queue_counts(C, now=clock)["done"] == n_cells:
                    break
                continue
            store.complete_cells(
                C,
                [(c.scenario_digest, c.protocol, c.seed, compute(c)) for c in cells],
                FP, "w",
            )
        done = store.done_cells(C, FP)
        assert [ji for ji, *_ in done] == list(range(n_cells))
        merged = [store.get(d, p, s, FP) for _ji, d, p, s in done]
        assert merged == [
            {"cell": ("d" * 64, "BMMM", s), "job": s} for s in range(n_cells)
        ]

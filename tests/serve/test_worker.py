"""work_campaign: the lease/simulate/commit loop and its kill discipline."""

import json

import pytest

from repro.obs.telemetry import load_telemetry
from repro.serve.worker import (
    WorkerReport,
    default_worker_id,
    job_text,
    leased_job,
    work_campaign,
    worker_stream_dir,
)
from repro.store.db import ResultStore, StoreError

from tests.serve.conftest import N_CELLS, SMALL, enqueue_plan


class _Clock:
    """Injected time: sleeping advances it, so idle loops terminate."""

    def __init__(self):
        self.t = 0.0

    def now(self):
        return self.t

    def sleep(self, s):
        self.t += s


@pytest.fixture
def queued(tmp_path, planned_jobs, point_digests, fingerprint):
    """A store with the full 8-cell plan enqueued under campaign 'c'."""
    store = ResultStore(tmp_path / "s.sqlite")
    enqueue_plan(store, "c", planned_jobs, point_digests, fingerprint)
    yield store
    store.close()


class TestWorkerLoop:
    def test_drains_the_campaign(self, queued, fingerprint):
        report = work_campaign(queued, "c", worker_id="w1", poll_s=0.01)
        assert report.cells_done == N_CELLS
        assert report.leases_taken >= 2  # 8 cells never fit one batch of 4
        assert report.cells_stolen == 0
        assert report.simulate_s > 0.0
        done = queued.done_cells("c", fingerprint)
        assert [ji for ji, *_ in done] == list(range(N_CELLS))
        for _ji, digest, protocol, seed in done:
            assert queued.get(digest, protocol, seed, fingerprint) is not None

    def test_worker_id_defaults_to_hostname_pid(self, queued):
        report = work_campaign(queued, "c", max_cells=1, poll_s=0.01)
        assert report.worker_id == default_worker_id()
        assert "-" in report.worker_id

    def test_max_cells_stops_early_and_releases(self, queued):
        report = work_campaign(queued, "c", max_cells=2, poll_s=0.01)
        assert report.cells_done == 2
        counts = queued.queue_counts("c")
        # Graceful exit: the rest of the batch went back to pending, not
        # into lease limbo.
        assert counts["leased"] == 0
        assert counts["done"] == 2
        assert counts["pending"] == N_CELLS - 2

    def test_idle_timeout_bounds_an_empty_wait(self, tmp_path):
        clock = _Clock()
        with ResultStore(tmp_path / "s.sqlite") as store:
            report = work_campaign(
                store, "ghost", idle_timeout=5.0, poll_s=1.0,
                _clock=clock.now, _sleep=clock.sleep,
            )
        assert report.cells_done == 0
        assert clock.t >= 5.0

    def test_late_worker_exits_once_the_campaign_is_collected(self, queued):
        """A worker that first polls after the coordinator collected and
        cleared its campaign must exit, not wait for cells that will
        never be enqueued (with no idle timeout it would wait forever)."""
        queued.clear_campaign("c")  # the coordinator's collect step
        clock = _Clock()
        sleeps = []

        def bounded_sleep(s):
            sleeps.append(s)
            if len(sleeps) > 20:
                raise RuntimeError("late worker is still waiting for work")
            clock.sleep(s)

        report = work_campaign(
            queued, "c", worker_id="late", poll_s=1.0,
            _clock=clock.now, _sleep=bounded_sleep,
        )
        assert report.cells_done == 0
        assert sleeps == []

    def test_foreign_fingerprint_cells_are_never_leased(
        self, tmp_path, planned_jobs, point_digests
    ):
        """Cells enqueued by a different build wait for *that* build's
        workers; this worker idles out instead of mis-committing."""
        clock = _Clock()
        with ResultStore(tmp_path / "s.sqlite") as store:
            enqueue_plan(store, "c", planned_jobs, point_digests, "0" * 64)
            report = work_campaign(
                store, "c", idle_timeout=5.0, poll_s=1.0,
                _clock=clock.now, _sleep=clock.sleep,
            )
            assert report.cells_done == 0
            assert store.queue_counts("c")["pending"] == N_CELLS


class TestKillDiscipline:
    def test_crash_leaves_leases_to_expire(self, queued, fingerprint):
        """A dying worker must NOT hand its leases back -- the expiry
        clock is what guarantees a kill -9 behaves the same way."""

        def die(cell, res):
            raise RuntimeError("kill -9")

        with pytest.raises(RuntimeError):
            work_campaign(queued, "c", worker_id="victim", on_cell=die, poll_s=0.01)
        counts = queued.queue_counts("c")
        assert counts["leased"] > 0
        assert counts["done"] == 0
        # After the TTL the cells are reclaimable...
        far_future = 1e12
        assert queued.reclaim_expired("c", now=far_future) == counts["leased"]
        # ...and the computed-but-uncommitted cell recomputes: no result
        # row exists for anything the victim touched.
        assert queued.done_cells("c", fingerprint) == []

    def test_each_cell_commits_as_it_finishes(self, queued, fingerprint):
        """Every cell commits as soon as it is computed, so a crash later
        in the batch keeps the earlier cells."""
        seen = []

        def die_on_third(cell, res):
            seen.append(cell)
            if len(seen) == 3:
                raise RuntimeError("kill -9")

        with pytest.raises(RuntimeError):
            work_campaign(queued, "c", worker_id="victim", on_cell=die_on_third)
        assert len(queued.done_cells("c", fingerprint)) == 2


class TestLeasedJobs:
    def test_leased_jobs_are_the_planned_jobs(self, queued, planned_jobs, fingerprint):
        cells = queued.lease_cells("c", "w1", N_CELLS, 60, fingerprint)
        assert cells
        assert [leased_job(c) for c in cells] == planned_jobs[: len(cells)]

    @pytest.mark.parametrize(
        "text, match",
        [
            ("not json {", "does not decode"),
            (json.dumps({"point": 1, "profile": False}), "does not decode"),
            (json.dumps({"point": 1, "profile": False, "settings": {"warp": 9}}), "does not decode"),
            (None, "not the row's address"),
        ],
        ids=["garbage", "no-settings", "unknown-field", "other-settings"],
    )
    def test_tampered_job_raises_and_commits_nothing(
        self, queued, planned_jobs, fingerprint, text, match
    ):
        """A row whose job text does not decode, or decodes to settings of
        another address, stops the worker before any cell of its batch runs."""
        if text is None:  # a well-formed job of another point
            other = planned_jobs[1]
            text = job_text(type(other)(1, other.protocol, other.seed, SMALL.with_(n_nodes=9)))
        queued._conn.execute(
            "UPDATE leases SET job=? WHERE campaign='c' AND job_index=1", (text,)
        )
        cell = rf"'{planned_jobs[1].protocol}', {planned_jobs[1].seed}\) of campaign 'c'"
        with pytest.raises(StoreError, match=rf"{cell}: job.*{match}"):
            work_campaign(queued, "c", worker_id="w1", poll_s=0.01)
        assert queued.done_cells("c", fingerprint) == []
        assert queued.stats()["n_results"] == 0


class TestWorkerTelemetry:
    def test_stream_has_worker_scope_and_heartbeats(self, queued):
        report = work_campaign(queued, "c", worker_id="host-1", poll_s=0.01)
        path = worker_stream_dir(queued.path) / "c.host-1.jsonl"
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records[0]["e"] == "telemetry.meta"
        assert records[0]["scope"] == "worker"
        assert records[-1]["e"] == "end"
        assert records[-1]["scope"] == "worker"
        assert records[-1]["done"] == report.cells_done
        beats = [r for r in records if r["e"] == "worker"]
        assert beats and beats[-1]["jobs_done"] == N_CELLS
        assert all(r["id"] == "host-1" for r in beats)
        # A worker's end record must NOT mark the stream completed: only
        # the coordinator's campaign-scoped end does (the multi-writer
        # fix -- see tests/obs/test_telemetry_multiwriter.py).
        assert load_telemetry(path).completed is False

    def test_report_dataclass_shape(self):
        report = WorkerReport(worker_id="w", campaign="c")
        assert report.cells_done == 0 and report.cells_stolen == 0

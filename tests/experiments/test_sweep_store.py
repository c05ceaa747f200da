"""Acceptance pins for the results store under the sweep engine.

The contract (ISSUE 4): a warm-store rerun of a figure-style sweep
dispatches **zero** cells yet produces bit-identical metrics, counters
and manifest to the cold run; a campaign killed mid-grid resumes with
only its missing cells.  ``msg_id`` is a process-global diagnostic
counter, so per-seed comparisons go through :func:`canon` (see
``tests/experiments/test_sweep.py``); ``MeanMetrics`` equality is exact.
"""

import pytest
from hypothesis import HealthCheck, given, settings as hsettings, strategies as st

from repro.experiments.config import SIMULATED_PROTOCOLS, SimulationSettings
from repro.experiments.scenario import Scenario
from repro.experiments.sweep import (
    bench_record,
    run_sweep,
    sweep_manifest,
)
from repro.store.db import ResultStore
from repro.store.digests import code_fingerprint, settings_digest
from tests.experiments.test_sweep import canon

SMALL = SimulationSettings(n_nodes=15, horizon=500, message_rate=0.003)
POINTS = [SMALL, SMALL.with_(n_nodes=20)]
SCENARIO = Scenario(settings=SMALL, protocols=SIMULATED_PROTOCOLS, seeds=(0, 1))
N_JOBS = len(SIMULATED_PROTOCOLS) * len(POINTS) * len(SCENARIO.seeds)


def assert_bit_identical(a, b):
    """Metrics, counters and per-seed runs of two sweeps match exactly."""
    for p in range(len(a.points)):
        for proto in a.protocols:
            assert a.mean(p, proto) == b.mean(p, proto), (p, proto)
            assert a.mean(p, proto).counters == b.mean(p, proto).counters
            cell_a, cell_b = a.cell(p, proto), b.cell(p, proto)
            assert [canon(m) for m in cell_a.metrics] == [
                canon(m) for m in cell_b.metrics
            ], (p, proto)
            assert cell_a.degrees == cell_b.degrees


@pytest.fixture(scope="module")
def cold(tmp_path_factory):
    """One cold campaign: storeless reference + the store it populated."""
    storeless = run_sweep(SCENARIO, POINTS, processes=1)
    path = tmp_path_factory.mktemp("store") / "campaign.sqlite"
    populating = run_sweep(SCENARIO, POINTS, processes=1, store=path)
    return storeless, populating, path


class TestWarmRerun:
    def test_populating_run_equals_storeless(self, cold):
        storeless, populating, _ = cold
        assert populating.store_hits == 0
        assert populating.store_misses == N_JOBS
        assert_bit_identical(populating, storeless)

    def test_warm_rerun_dispatches_nothing_yet_matches_cold(self, cold):
        """The headline acceptance: zero workers, all cells served."""
        storeless, _, path = cold
        warm = run_sweep(SCENARIO, POINTS, processes=1, store=path)
        assert warm.store_hits == N_JOBS
        assert warm.store_misses == 0
        assert warm.processes == 0  # nothing was dispatched at all
        assert "dispatch" not in warm.timings or warm.timings["dispatch"] == 0.0
        assert_bit_identical(warm, storeless)

    def test_warm_manifest_counters_equal_cold(self, cold):
        _, populating, path = cold
        warm = run_sweep(SCENARIO, POINTS, processes=1, store=path)
        cold_manifest = sweep_manifest(populating, name="acc")
        warm_manifest = sweep_manifest(warm, name="acc")
        assert warm_manifest.counters == cold_manifest.counters
        assert (
            warm_manifest.extra["point_digests"]
            == cold_manifest.extra["point_digests"]
        )

    def test_pooled_population_serves_warm_serial(self, cold, tmp_path):
        """Store rows written by pool workers are the same bytes a serial
        run would write: populate pooled, rerun warm serial."""
        storeless, _, _ = cold
        path = tmp_path / "pooled.sqlite"
        pooled = run_sweep(SCENARIO, POINTS, processes=2, store=path)
        assert pooled.store_misses == N_JOBS
        warm = run_sweep(SCENARIO, POINTS, processes=1, store=path)
        assert warm.store_hits == N_JOBS and warm.processes == 0
        assert_bit_identical(warm, storeless)


def _write_transactions(statements):
    """Write transactions in a statement trace: each BEGIN opens one, and
    a write outside any transaction is one of its own (autocommit)."""
    n, in_tx = 0, False
    for sql in statements:
        verb = sql.split(None, 1)[0].upper()
        if verb == "BEGIN":
            n, in_tx = n + 1, True
        elif verb in ("COMMIT", "ROLLBACK"):
            in_tx = False
        elif verb in ("INSERT", "UPDATE", "DELETE") and not in_tx:
            n += 1
    return n


class TestBatchedScan:
    @pytest.mark.parametrize("seeds", [(0,), (0, 1)])
    def test_warm_scan_is_one_read_per_group_and_one_commit(self, cold, seeds):
        """However many cells a warm scan serves, it reads once per
        (point, protocol) and records every hit in one transaction."""
        _, _, path = cold
        statements = []
        with ResultStore(path) as store:
            store._conn.set_trace_callback(statements.append)
            warm = run_sweep(
                Scenario(settings=SMALL, protocols=SIMULATED_PROTOCOLS, seeds=seeds),
                POINTS,
                processes=1,
                store=store,
            )
        assert warm.store_hits == len(SIMULATED_PROTOCOLS) * len(POINTS) * len(seeds)
        assert _write_transactions(statements) == 1
        selects = [sql for sql in statements if sql.upper().startswith("SELECT")]
        assert len(selects) == len(POINTS) * len(SIMULATED_PROTOCOLS)


class TestResume:
    def test_partial_campaign_completes_only_missing_point(self, cold, tmp_path):
        storeless, _, _ = cold
        path = tmp_path / "partial.sqlite"
        first = run_sweep(SCENARIO, [POINTS[0]], processes=1, store=path)
        assert first.store_misses == N_JOBS // 2
        full = run_sweep(SCENARIO, POINTS, processes=1, store=path)
        assert full.store_hits == N_JOBS // 2  # all of point 0
        assert full.store_misses == N_JOBS // 2  # all of point 1
        assert_bit_identical(full, storeless)

    def test_kill_mid_grid_then_resume(self, cold, tmp_path, monkeypatch):
        """A campaign killed after K cells keeps exactly K rows; the rerun
        dispatches only the other N-K and still matches the cold run."""
        from repro.experiments import sweep as sweep_mod

        storeless, _, _ = cold
        path = tmp_path / "killed.sqlite"
        kill_after = 5
        real_run_job = sweep_mod.run_job
        calls = {"n": 0}

        def dying_run_job(job, cache=None):
            if calls["n"] >= kill_after:
                raise KeyboardInterrupt("simulated ctrl-C mid-campaign")
            calls["n"] += 1
            return real_run_job(job, cache)

        monkeypatch.setattr(sweep_mod, "run_job", dying_run_job)
        with pytest.raises(KeyboardInterrupt):
            run_sweep(SCENARIO, POINTS, processes=1, store=path)
        monkeypatch.setattr(sweep_mod, "run_job", real_run_job)

        with ResultStore(path) as store:
            assert store.stats()["n_results"] == kill_after

        resumed = run_sweep(SCENARIO, POINTS, processes=1, store=path)
        assert resumed.store_hits == kill_after
        assert resumed.store_misses == N_JOBS - kill_after
        assert_bit_identical(resumed, storeless)

    def test_different_threshold_misses(self, cold):
        """The scoring threshold is part of the cell address: a rerun with
        another ``settings.threshold`` must recompute, not serve
        mis-scored cells."""
        _, _, path = cold
        rescored = run_sweep(
            SCENARIO, [st.with_(threshold=0.5) for st in POINTS], processes=1, store=path
        )
        assert rescored.store_hits == 0
        assert rescored.store_misses == N_JOBS

    def test_stale_fingerprint_misses(self, cold, tmp_path):
        """Rows written by 'other code' are never served."""
        storeless, _, _ = cold
        path = tmp_path / "stale.sqlite"
        digests = [settings_digest(st) for st in POINTS]
        with ResultStore(path) as store:
            for p, digest in enumerate(digests):
                for proto in SIMULATED_PROTOCOLS:
                    for seed in SCENARIO.seeds:
                        store.put(digest, proto, seed, object(), fingerprint="0" * 64)
        fresh = run_sweep(SCENARIO, POINTS, processes=1, store=path)
        assert fresh.store_hits == 0 and fresh.store_misses == N_JOBS
        assert_bit_identical(fresh, storeless)


class TestProvenance:
    def test_point_digests_always_recorded(self, cold):
        storeless, populating, path = cold
        expected = [settings_digest(st) for st in POINTS]
        assert storeless.point_digests == expected  # even without a store
        assert populating.point_digests == expected
        assert storeless.store_path is None
        assert populating.store_path == str(path)

    def test_bench_record_stamped_with_code_and_store(self, cold):
        _, populating, path = cold
        record = bench_record(populating, name="acc")
        assert record["code"]["code_fingerprint"] == code_fingerprint()
        commit = record["code"]["git_commit"]
        assert commit is None or len(commit) == 40
        assert record["store"] == {
            "path": str(path),
            "hits": 0,
            "misses": N_JOBS,
        }

    def test_as_dict_reports_store_execution(self, cold):
        _, populating, path = cold
        execution = populating.as_dict()["execution"]
        assert execution["store"] == {
            "path": str(path),
            "hits": 0,
            "misses": N_JOBS,
        }
        assert "store" in populating.timings


class TestStoreEquivalenceProperty:
    """Extends the sweep equivalence property: for arbitrary small grids,
    cold-through-store and warm-from-store are bit-identical to storeless."""

    @hsettings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        n_nodes=st.integers(min_value=8, max_value=16),
        rate=st.sampled_from([0.002, 0.005, 0.01]),
        protocol=st.sampled_from(SIMULATED_PROTOCOLS),
        seed=st.integers(min_value=0, max_value=30),
    )
    def test_store_roundtrip_is_bit_identical(self, n_nodes, rate, protocol, seed):
        point = SimulationSettings(n_nodes=n_nodes, horizon=300, message_rate=rate)
        scenario = Scenario(settings=point, protocols=(protocol,), seeds=(seed,))
        storeless = run_sweep(scenario, [point], processes=1)
        with ResultStore(":memory:") as store:
            populating = run_sweep(scenario, [point], processes=1, store=store)
            warm = run_sweep(scenario, [point], processes=1, store=store)
        assert populating.store_misses == 1 and warm.store_hits == 1
        assert_bit_identical(populating, storeless)
        assert_bit_identical(warm, storeless)

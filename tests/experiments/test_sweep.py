"""Tests for the sweep engine and the shared-world cache.

The contract under test: caching and pooled dispatch change wall-clock
only -- serial, pooled and cached execution produce bit-identical
metrics and merged counters for every protocol at every sweep point.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings as hsettings, strategies as st

from repro.experiments.config import SIMULATED_PROTOCOLS, SimulationSettings, protocol_class
from repro.experiments.runner import run, run_raw
from repro.experiments.scenario import Scenario
from repro.experiments.sweep import (
    SweepJob,
    auto_chunksize,
    bench_record,
    plan_jobs,
    run_job,
    run_sweep,
    save_bench,
    sweep_manifest,
)
from repro.obs.counters import merge_counter_dicts
from repro.workload.cache import WorldCache, schedule_key, topology_key
from tests.experiments.reference_runner import reference_run

SMALL = SimulationSettings(n_nodes=20, horizon=800, message_rate=0.003)
POINTS = [SMALL, SMALL.with_(n_nodes=28)]
SEEDS = [0, 1]
SCENARIO = Scenario(settings=SMALL, protocols=SIMULATED_PROTOCOLS, seeds=SEEDS)


def canon(m):
    """A RunMetrics projection invariant to ``msg_id`` -- a process-global
    diagnostic counter that differs between any two runs in one process,
    cached or not.  Everything else must match bit-for-bit."""
    from dataclasses import replace

    return (
        m.threshold,
        m.n_requests,
        m.n_successful,
        m.n_completed,
        m.n_timed_out,
        m.n_abandoned,
        [replace(s, msg_id=0) for s in m.all_scores],
        [replace(s, msg_id=0) for s in m.group_scores],
        m.frames_sent,
        m.counters,
    )


@pytest.fixture(scope="module")
def serial_sweep():
    """One cached-serial grid over all four protocols, shared per module."""
    return run_sweep(SCENARIO, POINTS, processes=1)


class TestBitIdentity:
    def test_cached_serial_equals_legacy_serial(self, serial_sweep):
        """All four protocols at two sweep points: the engine's cached
        path must reproduce the per-run serial path (the reference loop:
        cold ``run_raw`` per seed, no world cache, no pool) exactly --
        metrics AND merged counter totals."""
        for idx, point in enumerate(POINTS):
            serial = reference_run(SIMULATED_PROTOCOLS, point, SEEDS)
            for proto in SIMULATED_PROTOCOLS:
                mm = serial_sweep.mean(idx, proto)
                assert mm == serial[proto], (idx, proto)
                assert mm.counters == serial[proto].counters, (idx, proto)

    def test_run_is_a_one_point_sweep(self, serial_sweep):
        """``repro.run`` returns the engine's grid row, in protocol order."""
        out = run(SCENARIO.with_(settings=POINTS[1]))
        assert list(out) == list(SIMULATED_PROTOCOLS)
        assert out == serial_sweep.grid()[1]

    def test_pooled_equals_cached_serial(self, serial_sweep):
        pooled = run_sweep(SCENARIO, POINTS, processes=2)
        for idx in range(len(POINTS)):
            for proto in SIMULATED_PROTOCOLS:
                assert pooled.mean(idx, proto) == serial_sweep.mean(idx, proto)
                assert (
                    pooled.mean(idx, proto).counters
                    == serial_sweep.mean(idx, proto).counters
                )

    def test_per_seed_metrics_are_seed_ordered(self, serial_sweep):
        cell = serial_sweep.cell(0, "BMMM")
        mac_cls, kwargs = protocol_class("BMMM")
        solo = [run_raw(mac_cls, POINTS[0], s, kwargs).metrics() for s in SEEDS]
        assert [m.delivery_rate for m in cell.metrics] == [
            m.delivery_rate for m in solo
        ]


class TestWorldCache:
    def test_hit_miss_accounting(self, serial_sweep):
        """Each (point, seed) cell builds one world and reuses it for the
        remaining protocols."""
        n_cells = len(POINTS) * len(SEEDS)
        assert serial_sweep.cache_misses == n_cells
        assert serial_sweep.cache_hits == n_cells * (len(SIMULATED_PROTOCOLS) - 1)

    def test_cached_world_matches_cold_build(self):
        cache = WorldCache()
        world = cache.world(SMALL, seed=3)
        cold = run_raw(protocol_class("BMW")[0], SMALL, 3, {})
        cached = run_raw(protocol_class("BMW")[0], SMALL, 3, {}, world=world)
        assert canon(cached.metrics()) == canon(cold.metrics())
        assert cached.average_degree == cold.average_degree
        assert cached.counters == cold.counters

    def test_rate_sweep_shares_topology(self):
        """Points differing only in message_rate share one topology
        build (distinct schedule keys, same topology key)."""
        a, b = SMALL, SMALL.with_(message_rate=0.001)
        assert topology_key(a, 0) == topology_key(b, 0)
        assert schedule_key(a, 0) != schedule_key(b, 0)
        cache = WorldCache()
        wa = cache.world(a, 0)
        wb = cache.world(b, 0)
        assert wa.propagation is wb.propagation
        assert wa.generator is not wb.generator

    def test_eviction_keeps_cache_bounded_and_correct(self):
        cache = WorldCache(maxsize=2)
        worlds = [cache.world(SMALL, seed=s) for s in range(5)]
        # Re-requesting an evicted world rebuilds it identically.
        again = cache.world(SMALL, seed=0)
        assert again.generator.schedule == worlds[0].generator.schedule
        assert len(cache._worlds) <= 2

    def test_eviction_is_least_recently_used(self):
        """A resumed sparse grid revisits cells non-consecutively; touching
        an entry must protect it from eviction (LRU, not FIFO)."""
        cache = WorldCache(maxsize=2)
        cache.world(SMALL, seed=0)
        cache.world(SMALL, seed=1)
        cache.world(SMALL, seed=0)  # refresh seed 0 -- FIFO would still drop it
        cache.world(SMALL, seed=2)  # evicts seed 1, the actual LRU entry
        misses_before = cache.misses
        cache.world(SMALL, seed=0)
        assert cache.misses == misses_before  # seed 0 survived
        cache.world(SMALL, seed=1)
        assert cache.misses == misses_before + 1  # seed 1 was evicted

    def test_validation(self):
        with pytest.raises(ValueError):
            WorldCache(maxsize=0)


class TestNoStateLeak:
    """Cached topology reuse must never leak state between protocol runs:
    every job gets a fresh Environment/Channel, so a run's results are
    independent of what ran before it in the same process."""

    @hsettings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        n_nodes=st.integers(min_value=8, max_value=20),
        seed=st.integers(min_value=0, max_value=50),
        first=st.sampled_from(SIMULATED_PROTOCOLS),
        second=st.sampled_from(SIMULATED_PROTOCOLS),
    )
    def test_run_after_arbitrary_predecessor_is_bit_identical(
        self, n_nodes, seed, first, second
    ):
        point = SimulationSettings(n_nodes=n_nodes, horizon=400, message_rate=0.004)
        cache = WorldCache()
        # Warm the cache with an arbitrary predecessor protocol...
        run_job(SweepJob(0, first, seed, point), cache)
        # ...then the protocol under test reuses the cached world.
        reused = run_job(SweepJob(0, second, seed, point), cache)
        assert reused.cache_hit
        # A cold run in a fresh world must agree exactly.
        mac_cls, kwargs = protocol_class(second)
        cold = run_raw(mac_cls, point, seed, kwargs)
        assert canon(reused.metrics) == canon(cold.metrics())
        assert reused.degree == cold.average_degree

    def test_same_job_twice_through_one_cache(self):
        cache = WorldCache()
        job = SweepJob(0, "LAMM", 7, SMALL)
        a = run_job(job, cache)
        b = run_job(job, cache)
        assert not a.cache_hit and b.cache_hit
        assert canon(a.metrics) == canon(b.metrics)


class TestJobPlanning:
    def test_protocols_innermost(self):
        jobs = plan_jobs(["A", "B"], [SMALL, SMALL], [0, 1])
        assert [(j.point, j.seed, j.protocol) for j in jobs[:4]] == [
            (0, 0, "A"),
            (0, 0, "B"),
            (0, 1, "A"),
            (0, 1, "B"),
        ]
        assert len(jobs) == 8

    def test_default_chunksize_covers_whole_cells(self, serial_sweep):
        pooled = run_sweep(SCENARIO, POINTS, processes=2)
        assert pooled.chunksize % len(SIMULATED_PROTOCOLS) == 0

    def test_auto_chunksize(self):
        assert auto_chunksize(0, 4) == 1
        assert auto_chunksize(10, 0) == 1
        assert auto_chunksize(400, 10) == 10
        assert auto_chunksize(3, 8) == 1

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(SCENARIO, [])
        with pytest.raises(ValueError):
            run_sweep(SCENARIO.with_(protocols=()), POINTS)
        with pytest.raises(ValueError):
            run_sweep(SCENARIO.with_(seeds=()), POINTS)


class TestManifestAndBench:
    def test_manifest_round_trips(self, serial_sweep, tmp_path):
        from repro.obs.manifest import load_manifest

        manifest = sweep_manifest(serial_sweep, name="unit")
        path = manifest.save(tmp_path / "unit.manifest.json")
        loaded = load_manifest(path)
        assert loaded.extra["experiment"] == "unit"
        assert loaded.extra["protocols"] == list(SIMULATED_PROTOCOLS)
        assert loaded.extra["n_points"] == len(POINTS)
        assert loaded.wall_clock_s is not None and loaded.wall_clock_s > 0
        assert loaded.sim_slots == serial_sweep.sim_slots

    def test_manifest_counters_merge_all_cells(self, serial_sweep):
        manifest = sweep_manifest(serial_sweep)
        expected = merge_counter_dicts(
            m.counters
            for cell in serial_sweep.cells.values()
            for m in cell.metrics
        )
        assert manifest.counters == expected
        assert manifest.counters  # non-trivial grid

    def test_bench_record_fields(self, serial_sweep):
        record = bench_record(serial_sweep, name="unit")
        assert record["kind"] == "sweep-bench"
        assert record["grid"]["n_jobs"] == serial_sweep.n_jobs
        assert record["sim_slots"] == serial_sweep.sim_slots
        assert record["slots_per_sec"] > 0
        assert record["cache"]["hits"] == serial_sweep.cache_hits
        assert 0.0 <= record["cache"]["hit_rate"] <= 1.0

    def test_save_bench_writes_json(self, serial_sweep, tmp_path):
        path = save_bench(bench_record(serial_sweep, name="unit"), tmp_path)
        assert path.name == "BENCH_unit.json"
        payload = json.loads(path.read_text())
        assert payload["name"] == "unit"
        assert payload["timings"]["simulate"] > 0

    def test_as_dict_is_json_safe(self, serial_sweep):
        payload = json.loads(json.dumps(serial_sweep.as_dict(), default=str))
        assert len(payload["points"]) == len(POINTS)
        point = payload["points"][0]
        assert set(point["metrics"]) == set(SIMULATED_PROTOCOLS)
        assert point["metrics"]["BMMM"]["n_runs"] == len(SEEDS)

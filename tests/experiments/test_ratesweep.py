"""Tests for the rate-sweep engine and its BENCH surface."""

import json

import pytest

from repro.experiments.config import SimulationSettings
from repro.experiments.ratesweep import (
    RATE_PROFILES,
    RATE_SWEEP_PROTOCOLS,
    rate_bench_record,
    rate_points,
)
from repro.experiments.scenario import Scenario
from repro.experiments.sweep import run_sweep, save_bench

TINY = SimulationSettings(n_nodes=14, horizon=400, message_rate=0.004)


@pytest.fixture(scope="module")
def sweep():
    names = ["single", "mild"]
    scenario = Scenario(protocols=RATE_SWEEP_PROTOCOLS, seeds=(0, 1))
    return run_sweep(scenario, rate_points(TINY, names), processes=1), names


class TestRatePoints:
    def test_one_point_per_profile(self):
        points = rate_points(TINY, ["aggressive", "single"])
        assert [p.phy for p in points] == [RATE_PROFILES["aggressive"], RATE_PROFILES["single"]]
        assert all(p.with_(phy=TINY.phy) == TINY for p in points)

    def test_unknown_profile_is_a_key_error(self):
        with pytest.raises(KeyError, match="unknown rate profile"):
            rate_points(TINY, ["single", "warp"])


class TestRunRateSweep:
    def test_points_follow_profile_order(self, sweep):
        result, names = sweep
        assert names == ["single", "mild"]
        assert result.points[0].phy == RATE_PROFILES["single"]
        assert result.points[1].phy == RATE_PROFILES["mild"]
        # Only the profile varies between points.
        assert result.points[0].with_(phy=result.points[1].phy) == result.points[1]

    def test_default_protocols_are_the_head_to_head(self, sweep):
        from repro.cli import build_rate_sweep_parser

        result, _ = sweep
        assert tuple(result.protocols) == RATE_SWEEP_PROTOCOLS == ("LAMM", "RAM")
        assert build_rate_sweep_parser().parse_args([]).protocols == "LAMM,RAM"

    def test_single_rate_point_collapses_ram_onto_lamm(self, sweep):
        """The sweep's own control cell: at the single-rate point the two
        protocols' outcomes coincide exactly."""
        result, _ = sweep
        lamm, ram = result.mean(0, "LAMM"), result.mean(0, "RAM")
        assert ram.delivery_rate == lamm.delivery_rate
        assert ram.avg_completion_time == lamm.avg_completion_time
        assert ram.avg_contention_phases == lamm.avg_contention_phases

    def test_mild_point_diverges(self, sweep):
        result, _ = sweep
        lamm, ram = result.mean(1, "LAMM"), result.mean(1, "RAM")
        assert (
            ram.delivery_rate,
            ram.avg_completion_time,
        ) != (lamm.delivery_rate, lamm.avg_completion_time)
        assert ram.counters.get("ram.rounds_mcs1", 0) > 0


class TestBenchRecord:
    def test_record_shape_and_stamps(self, sweep):
        result, names = sweep
        rec = rate_bench_record(result, names)
        assert rec["kind"] == "rate-sweep"
        assert rec["profiles"] == names
        assert len(rec["cells"]) == len(names) * len(result.protocols)
        cell = rec["cells"][0]
        assert cell["profile"] == "single"
        assert cell["data_slots"] == [5]
        assert 0.0 <= cell["delivery_rate"] <= 1.0
        assert cell["delivered_per_kslot"] > 0
        assert rec["code"]["git_commit"] is None or len(rec["code"]["git_commit"]) == 40
        assert len(rec["code"]["code_fingerprint"]) == 64

    def test_cells_carry_only_rate_counters(self, sweep):
        result, names = sweep
        rec = rate_bench_record(result, names)
        for cell in rec["cells"]:
            for key in cell["counters"]:
                assert key.startswith(("ram.rounds_mcs", "rate_losses")), key

    def test_save_round_trips(self, sweep, tmp_path):
        result, names = sweep
        path = save_bench(rate_bench_record(result, names, "ratetest"), tmp_path)
        assert path.name == "BENCH_ratetest.json"
        loaded = json.loads(path.read_text())
        assert loaded == rate_bench_record(result, names, "ratetest")

"""Self-tests of the campaign benchmark harness (``pytest benchmarks/e2e``).

Most tests run shrunk copies of the workloads (short horizons, few seeds)
for a single pass; the ``expected.json`` test runs the real first passes.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import campaign  # noqa: E402
import run as bench_run  # noqa: E402
from hostspeed import HostClock  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BARE = ("paper_density", "saturated", "backoff_heavy", "store_warm")


def _shrink(mp: pytest.MonkeyPatch) -> dict:
    """Tiny workloads, one import probe, and no expected-digest check."""
    small = {
        name: dataclasses.replace(
            wl,
            points=tuple(p.with_(horizon=min(p.horizon, 300)) for p in wl.points),
            seeds_per_pass=min(wl.seeds_per_pass, 2),
        )
        for name, wl in campaign.WORKLOADS.items()
    }
    mp.setattr(campaign, "WORKLOADS", small)
    mp.setattr(campaign, "IMPORT_PROBES", 1)
    mp.setattr(campaign, "expected_digests", lambda: {})
    return small


@pytest.fixture
def shrunk(monkeypatch):
    return _shrink(monkeypatch)


@pytest.fixture(scope="module")
def runs():
    """Untraced and traced one-pass runs of every shrunk workload."""
    mp = pytest.MonkeyPatch()
    try:
        _shrink(mp)
        return {
            (name, trace): campaign.run_workload(name, seed=0, seconds=0, trace=trace)
            for name in campaign.WORKLOADS
            for trace in (False, True)
        }
    finally:
        mp.undo()


def test_spec_matches_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(campaign.WORKLOADS)
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_emitted_with_its_unit(runs, trace):
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    for name in campaign.WORKLOADS:
        result = runs[(name, trace)]["result"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, runs[(name, trace)]["passes"]
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == wanted, name
        if not trace:
            assert all(v["value"] > 0 for v in result["metrics"].values()), name
            assert (runs[(name, trace)]["slots_per_s"] is None) == (name == "store_warm")


def test_layer_self_times_sum_to_traced_wall(runs):
    for name in campaign.WORKLOADS:
        report = runs[(name, True)]
        layers = report["layers"]
        total = sum(layers["self_s"].values())
        assert total == pytest.approx(layers["traced_wall_s"], rel=0.02), name
        assert report["result"]["metrics"]["trace.coverage"]["value"] >= 0.98


def test_traced_digest_equals_untraced(runs):
    for name in campaign.WORKLOADS:
        assert runs[(name, True)]["result_digest"] == runs[(name, False)]["result_digest"]


def test_obs_emits_only_on_observed(runs):
    for name in BARE:
        assert runs[(name, True)]["result"]["metrics"]["obs.emit.calls"]["value"] == 0, name
    assert runs[("observed", True)]["result"]["metrics"]["obs.emit.calls"]["value"] > 0


def test_tracer_uninstalls_cleanly(runs):
    from repro.sim.channel import Channel
    from repro.sim.kernel import Environment

    assert not hasattr(Channel.transmit, "__wrapped__")
    assert not hasattr(Environment.run, "__wrapped__")
    assert not hasattr(campaign.sweep_mod.run_sweep, "__wrapped__")


def test_seed_changes_digest(shrunk, tmp_path):
    for wl in shrunk.values():
        d0, d1 = (
            campaign.run_pass(wl, campaign.pass_seeds(wl, s, 0), tmp_path).digest
            for s in (0, 1)
        )
        assert d0 != d1, wl.name


def test_seed_zero_reproduces_expected(tmp_path):
    expected = campaign.expected_digests()
    assert set(expected) == set(campaign.WORKLOADS)
    for name, wl in campaign.WORKLOADS.items():
        if wl.mode == "warm_store":
            # Every warm pass must equal the fixture's cold digest (checked
            # in every run), so the cold fill stands for the first pass.
            digest = campaign._fixture(wl, 0, tmp_path)[1]
        else:
            digest = campaign.run_pass(wl, campaign.pass_seeds(wl, 0, 0), tmp_path).digest
        assert digest == expected[name], name


def test_host_clock_leaves_results_alone(shrunk, tmp_path):
    """Calibration runs inside the simulation's thread; it must not change
    what is simulated, and its time must come out of the pass's work."""
    wl = shrunk["saturated"]
    seeds = campaign.pass_seeds(wl, 0, 0)
    plain = campaign.run_pass(wl, seeds, tmp_path)
    state = random.getstate()
    with HostClock(period=0.005) as clock:
        clocked = campaign.run_pass(wl, seeds, tmp_path, clock=clock)
    assert random.getstate() == state
    assert clocked.digest == plain.digest
    assert 0 < clocked.cal_s < clocked.wall_s
    assert clock.slowness() > 0


def test_checks_flag_broken_cells(shrunk):
    wl = shrunk["saturated"]
    result = campaign.sweep_mod.run_sweep(
        campaign.Scenario(settings=wl.points[0], protocols=campaign.PAPER_PROTOCOLS, seeds=(0,)),
        points=list(wl.points),
        processes=1,
    )
    assert campaign.cell_problems(list(campaign.cell_records(result))) == []
    metrics = result.cells[(0, "BMMM")].metrics[0]
    metrics.n_successful = metrics.n_requests + 1
    metrics.counters["batch_rounds"] = metrics.counters["contention_phases"] + 1
    problems = campaign.cell_problems(list(campaign.cell_records(result)))
    assert len(problems) == 2 and {idx for idx, _ in problems} == {2}


def _set(values: dict[str, list[float]]) -> dict:
    metrics = {}
    for name, vals in values.items():
        q1, med, q3 = bench_run._quartiles(vals)
        metrics[name] = {"unit": "x", "median": med, "q1": q1, "q3": q3, "values": vals}
    return {"workloads": {"w": {"metrics": metrics, "fail_rate": 0.0}}}


@pytest.mark.parametrize(
    "b_values, exit_code, verdict",
    [
        ([100.0, 101.0, 99.0, 100.5, 99.5], 0, "ok"),
        ([70.0, 71.0, 69.0, 70.5, 69.5], 1, "REGRESSION"),
        ([130.0, 131.0, 129.0, 130.5, 129.5], 0, "better"),
        ([50.0, 150.0, 100.0, 60.0, 140.0], 0, "unresolved"),
    ],
)
def test_compare(tmp_path, capsys, b_values, exit_code, verdict):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(_set({"cells_per_s": [100.0, 101.0, 99.0, 100.5, 99.5]})))
    b.write_text(json.dumps(_set({"cells_per_s": b_values})))
    assert bench_run.compare(str(a), str(b)) == exit_code
    row = [line for line in capsys.readouterr().out.splitlines() if "cells_per_s" in line]
    assert row and row[0].endswith(verdict)


def test_refuses_to_run_without_sources(tmp_path):
    """A checkout holding only BENCHMARK.json and the benchmark exits
    non-zero without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "saturated", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout

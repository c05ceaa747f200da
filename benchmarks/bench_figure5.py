"""Figure 5: expected contention phases vs group size (analytic recurrence,
p = 0.9), cross-checked against a direct Monte-Carlo simulation of the
batch process -- the paper notes these curves 'coincide with the lines of
the average number of contention phases in Figure 9(a) very well'.

Also home of the *figure-5-sized grid* engine benchmark: 4 protocols x 5
sweep points x ``REPRO_BENCH_RUNS`` seeds through the sweep engine vs the
serial per-point ``run(Scenario)`` loop, asserting bit-identical metrics
and recording the speedup in ``results/BENCH_sweep.json``."""

import json
import os
import random
import time

from repro.analysis.recurrence import expected_batch_rounds
from repro.experiments.figures import figure5

from conftest import RESULTS_DIR, bench_settings, n_runs, report


def test_figure5(benchmark):
    result = benchmark(figure5, 20, 0.9)
    report(result, "BMW linear in n; BMMM/LAMM sublinear, < 3 phases even at n=20")

    assert result.series["BMW"][-1] > 20
    assert result.series["BMMM"][-1] < 3
    assert result.series["BMMM"] == result.series["LAMM"]

    # Monte-Carlo cross-check of the recurrence at a few points.
    rng = random.Random(0)
    for n in (5, 15):
        trials = 4000
        total = 0
        for _ in range(trials):
            remaining, rounds = n, 0
            while remaining:
                rounds += 1
                remaining = sum(rng.random() >= 0.9 for _ in range(remaining))
            total += rounds
        mc = total / trials
        assert abs(expected_batch_rounds(n, 0.9) - mc) / mc < 0.05


def test_figure5_sized_grid_through_sweep_engine():
    """4 protocols x 5 points x N seeds: engine vs serial ``run`` per point.

    The engine must return bit-identical ``MeanMetrics`` and counter
    totals while sharing topology builds and fanning cells out over
    ``REPRO_BENCH_JOBS`` workers.  Wall clocks and the speedup land in
    ``results/BENCH_sweep.json`` -- the sweep perf trajectory.
    Environment knobs (``REPRO_BENCH_RUNS``, ``REPRO_BENCH_HORIZON``,
    ``REPRO_BENCH_JOBS``) scale it up to the acceptance grid
    (20 seeds, Table 2 horizon).
    """
    from repro.experiments.config import SIMULATED_PROTOCOLS
    from repro.experiments.runner import run
    from repro.experiments.scenario import Scenario
    from repro.experiments.sweep import run_sweep, save_bench

    protocols = list(SIMULATED_PROTOCOLS)
    points = [bench_settings(n_nodes=n) for n in (40, 60, 80, 100, 120)]
    seeds = list(range(n_runs()))
    jobs = int(os.environ.get("REPRO_BENCH_JOBS", "0")) or (os.cpu_count() or 1)

    scenario = Scenario(settings=points[0], protocols=tuple(protocols), seeds=tuple(seeds))
    t0 = time.perf_counter()
    serial = [run(scenario.with_(settings=st)) for st in points]
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    result = run_sweep(scenario, points, processes=jobs)
    engine_s = time.perf_counter() - t0

    for idx in range(len(points)):
        for proto in protocols:
            assert result.mean(idx, proto) == serial[idx][proto]

    speedup = serial_s / engine_s if engine_s > 0 else float("inf")
    bench_path = save_bench(result, "sweep", RESULTS_DIR)
    payload = json.loads(bench_path.read_text())
    payload["serial_run_s"] = serial_s
    payload["engine_s"] = engine_s
    payload["speedup_vs_serial"] = speedup
    bench_path.write_text(json.dumps(payload, indent=2))
    print(
        f"\nfigure-5-sized grid ({len(points)} points x {len(seeds)} seeds x "
        f"{len(protocols)} protocols, {jobs} workers): "
        f"serial {serial_s:.2f}s, engine {engine_s:.2f}s, {speedup:.2f}x; "
        f"cache {result.cache_hits}/{result.n_jobs} hits; saved {bench_path}"
    )

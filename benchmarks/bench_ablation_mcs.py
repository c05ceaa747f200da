"""Ablation: LAMM with greedy vs exact minimum cover set.

Theorem 2 supplies an exact MCS algorithm; our default LAMM uses a greedy
cover set (DESIGN.md substitution #3).  This ablation confirms the greedy
choice costs little: both variants deliver equally (any cover set preserves
Theorem 1), and the control-frame counts are close.
"""

from statistics import mean

from repro.core.lamm import LammMac, LammPolicy
from repro.experiments.runner import run_raw
from repro.sim.frames import FrameType

from conftest import bench_settings, n_runs


def _run(policy: LammPolicy):
    settings = bench_settings()
    rates, rts = [], []
    for seed in range(n_runs()):
        raw = run_raw(LammMac, settings, seed, {"policy": policy})
        rates.append(raw.metrics().delivery_rate)
        rts.append(raw.counters.get(FrameType.RTS.sent_key))
    return mean(rates), mean(rts)


def test_mcs_ablation(benchmark):
    greedy = benchmark.pedantic(_run, args=(LammPolicy(mcs="greedy"),), rounds=1, iterations=1)
    exact = _run(LammPolicy(mcs="exact"))
    print()
    print("== ablation: LAMM cover-set algorithm ==")
    print(f"{'policy':<10}{'delivery':>10}{'RTS frames':>12}")
    print(f"{'greedy':<10}{greedy[0]:>10.3f}{greedy[1]:>12.0f}")
    print(f"{'exact':<10}{exact[0]:>10.3f}{exact[1]:>12.0f}")
    print("expected: near-identical delivery; exact sends <= control frames")

    assert abs(greedy[0] - exact[0]) < 0.05
    # Exact MCS never polls more stations than greedy on aggregate
    # (tolerate a little run-level noise from retries).
    assert exact[1] <= greedy[1] * 1.05

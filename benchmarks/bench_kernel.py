"""Substrate micro-benchmarks (engineering benchmark, not a paper figure).

pytest-benchmark wrapper around :mod:`repro.experiments.benchkernel`: the
same cases `repro-mac bench-kernel` records in ``BENCH_kernel.json``, so a
perf regression caught locally by pytest and one caught in CI by the
bench record point at the same fast path (kernel dispatch, idle-slot
skipping, vectorized reception).
"""

import pytest

from repro.experiments.benchkernel import (
    NETWORK_CASES,
    bench_network_case,
    bench_observer_overhead,
    bench_timeout_churn,
)

CHURN_EVENTS = 100_000


def test_timeout_churn(benchmark):
    """Raw kernel dispatch: one timeout per event."""
    result = benchmark.pedantic(
        lambda: bench_timeout_churn(CHURN_EVENTS), rounds=3, iterations=1
    )
    assert result["events"] == CHURN_EVENTS


@pytest.mark.parametrize("case", sorted(NETWORK_CASES))
def test_network_case(benchmark, case):
    """Idle / sparse / dense scenarios -- one fast path dominates each."""
    result = benchmark.pedantic(lambda: bench_network_case(case), rounds=3, iterations=1)
    assert result["sim_slots"] == NETWORK_CASES[case]["horizon"]
    if NETWORK_CASES[case]["message_rate"] > 0:
        assert result["n_requests"] > 0


def test_observer_overhead(benchmark):
    """Event-bus + profiler cost: bare vs observed vs profiled wall clock."""
    result = benchmark.pedantic(bench_observer_overhead, rounds=3, iterations=1)
    assert result["n_requests"] > 0
    # The counting subscriber saw real traffic, so the guard's open path
    # (build + dispatch a SimEvent per emit) was actually exercised.
    assert result["n_events"] > 0
    assert result["bare_slots_per_sec"] is not None

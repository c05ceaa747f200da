"""Micro-benchmarks for the traffic-schedule build (the per-node, per-slot
Bernoulli arrival draw of Section 7 / Table 2).

The build walks ``n_nodes x horizon`` cells a block at a time, so its time
grows with the grid while its memory stays one block plus the arrivals.
"""

import pytest

from repro.phy.propagation import neighbor_sets
from repro.workload.generator import TrafficGenerator
from repro.workload.topology import uniform_square


@pytest.mark.parametrize(
    "n, horizon, rate",
    [
        # One backoff_heavy cell: 10^7 cells, ~2000 arrivals.
        pytest.param(50, 200_000, 0.0002, id="backoff_heavy"),
        # The densest Table-2 cell of the paper_density sweep.
        pytest.param(140, 10_000, 0.0005, id="table2_n140"),
    ],
)
def test_schedule_build_speed(benchmark, n, horizon, rate):
    ns = neighbor_sets(uniform_square(n, seed=0), 0.2)
    gen = benchmark(TrafficGenerator, n, ns, horizon, rate, seed=0)
    assert len(gen.schedule) == pytest.approx(n * horizon * rate, rel=0.2)

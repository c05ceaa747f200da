"""Micro-benchmarks for LAMM's geometric machinery (Theorem 2's cost
claim: MCS must be cheap enough to run per batch round)."""

import numpy as np
import pytest

from repro.geometry.cover import CoverGeometry, update_uncovered
from repro.geometry.mcs import greedy_cover_set, minimum_cover_set
from repro.phy.propagation import neighbor_sets
from repro.workload.topology import uniform_square


def _cluster(n, seed=0, spread=0.15):
    rng = np.random.default_rng(seed)
    return 0.5 + spread * (rng.random((n, 2)) - 0.5)


@pytest.mark.parametrize("n", [5, 10, 20])
def test_greedy_cover_set_speed(benchmark, n):
    pos = _cluster(n)
    ids = list(range(n))
    result = benchmark(greedy_cover_set, ids, pos, 0.2)
    assert result  # non-empty cover set


@pytest.mark.parametrize("n", [5, 10])
def test_exact_mcs_speed(benchmark, n):
    pos = _cluster(n)
    ids = list(range(n))
    result = benchmark(minimum_cover_set, ids, pos, 0.2)
    assert result


def test_update_speed(benchmark):
    n = 20
    pos = _cluster(n)
    remaining = set(range(n))
    acked = set(range(0, n, 2))
    out = benchmark(update_uncovered, remaining, acked, pos, 0.2)
    assert out <= remaining


def test_greedy_warm_repeated_group(benchmark):
    """A working set LAMM already solved on this topology: a memo hit."""
    pos = _cluster(10)
    ids = list(range(10))
    geometry = CoverGeometry(pos, 0.2)
    expected = greedy_cover_set(ids, pos, 0.2, geometry=geometry)
    result = benchmark(greedy_cover_set, ids, pos, 0.2, geometry=geometry)
    assert result == expected


def test_greedy_cold_table2_group(benchmark):
    """Node 0's neighbours in an n=140 Table-2 topology (unit square,
    R=0.2), each call on a fresh geometry: every cover angle computed."""
    pos = uniform_square(140, seed=0)
    ids = sorted(neighbor_sets(pos, 0.2)[0])
    result = benchmark(greedy_cover_set, ids, pos, 0.2)
    assert result and result <= set(ids)

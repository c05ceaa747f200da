"""The block arrival draw equals the dense-matrix draw it replaced.

``tests/workload/reference_schedule.py`` keeps the dense
``(n_nodes, horizon)`` draw as the oracle.  The property below builds
both over small worlds (isolated nodes, all-multicast mixes, rates of 0,
1 and tiny values) with horizons placed on and around block boundaries
-- at the production block size and at tiny ones, where every row ends
mid-block -- and demands the same schedule, message for message.  The
memory test pins the point of the block draw: a ``backoff_heavy``-sized
build no longer holds the ``n_nodes x horizon`` matrix.
"""

import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.phy.propagation import neighbor_sets
from repro.workload import generator as generator_mod
from repro.workload.generator import ARRIVAL_BLOCK, TrafficGenerator, TrafficMix
from repro.workload.topology import uniform_square
from tests.workload.reference_schedule import reference_schedule

MIXES = [
    TrafficMix(),
    TrafficMix(unicast=0.0, multicast=1.0, broadcast=0.0),
    TrafficMix(unicast=1.0, multicast=0.0, broadcast=0.0),
    TrafficMix(unicast=0.0, multicast=0.0, broadcast=1.0),
]

# Hypothesis leans towards the first entry of a sampled_from: the lists
# below start with the cases that exercise the most code.
RATES = [0.02, 0.5, 1.0, 1e-4, 1e-7, 5e-324, 0.0]
BLOCKS = [7, ARRIVAL_BLOCK, 3, 64, 2, 1]

#: Expected arrivals above this are redrawn at the tiny rate that expects
#: ``LONG_HITS`` of them, so a long horizon stays a quick example.
MAX_EXPECTED_HITS = 3000
LONG_HITS = 50


@st.composite
def worlds(draw):
    n = draw(st.integers(0, 12))
    # Neighbour sets are arbitrary subsets of the other nodes; an empty
    # one is an isolated node.
    neigh = [
        frozenset(draw(st.sets(st.sampled_from([j for j in range(n) if j != i]))))
        if n > 1
        else frozenset()
        for i in range(n)
    ]
    block = draw(st.sampled_from(BLOCKS))
    horizon = draw(
        st.sampled_from([0, 1, block - 1, block, block + 1]) | st.integers(0, 3 * block + 5)
    )
    rate = draw(st.sampled_from(RATES))
    if rate * n * horizon > MAX_EXPECTED_HITS:
        rate = LONG_HITS / (n * horizon)
    mix = draw(st.sampled_from(MIXES))
    seed = draw(st.integers(0, 2**32 - 1))
    return n, neigh, horizon, rate, mix, seed, block


@settings(max_examples=150, deadline=None)
@given(worlds())
def test_block_draw_matches_dense_reference(world):
    n, neigh, horizon, rate, mix, seed, block = world
    with mock.patch.object(generator_mod, "ARRIVAL_BLOCK", block):
        gen = TrafficGenerator(n, neigh, horizon, rate, mix=mix, seed=seed)
    assert gen.schedule == reference_schedule(n, neigh, horizon, rate, mix=mix, seed=seed)


@pytest.mark.parametrize("horizon", [ARRIVAL_BLOCK - 1, ARRIVAL_BLOCK, ARRIVAL_BLOCK + 1])
def test_rows_around_the_block_size(horizon):
    """Three rows of about one block each: row ends fall just before, on
    and just after the block boundaries."""
    ns = [frozenset({1, 2}), frozenset({0}), frozenset()]
    gen = TrafficGenerator(3, ns, horizon, 1e-3, seed=horizon)
    assert len(gen.schedule) > 50
    assert gen.schedule == reference_schedule(3, ns, horizon, 1e-3, seed=horizon)


def test_table2_cell_matches_dense_reference():
    """A full Table-2 cell (n=100, rate 0.0005, horizon 10 000) spans
    many production-size blocks, with rows ending mid-block."""
    ns = neighbor_sets(uniform_square(100, seed=3), 0.2)
    gen = TrafficGenerator(100, ns, 10_000, 0.0005, seed=3)
    assert len(gen.schedule) > 300
    assert gen.schedule == reference_schedule(100, ns, 10_000, 0.0005, seed=3)


def test_backoff_heavy_build_stays_small():
    """n=50 x 200 000 slots is 10^7 cells: the dense draw held an 80 MB
    matrix plus a 10 MB mask (a 90 MB traced peak).  The block draw holds
    one block and the ~2000 arrivals."""
    ns = neighbor_sets(uniform_square(50, seed=0), 0.2)
    tracemalloc.start()
    try:
        gen = TrafficGenerator(50, ns, 200_000, 0.0002, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert gen.schedule
    assert peak < 8_000_000, f"schedule build peaked at {peak / 1e6:.1f} MB"

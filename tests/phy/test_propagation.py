"""Unit tests for the unit-disk propagation model."""

import numpy as np
import pytest

from repro.phy.propagation import UnitDiskPropagation, distance_matrix, neighbor_sets


class TestDistanceMatrix:
    def test_simple_distances(self):
        dm = distance_matrix(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert dm[0, 1] == pytest.approx(5.0)
        assert dm[1, 0] == pytest.approx(5.0)
        assert dm[0, 0] == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        pos = rng.random((20, 2))
        dm = distance_matrix(pos)
        assert np.allclose(dm, dm.T)
        assert np.allclose(np.diag(dm), 0.0)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            distance_matrix(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            distance_matrix(np.zeros(5))


class TestNeighborSets:
    def test_chain_adjacency(self):
        # Spacing 0.15, radius 0.2: only adjacent nodes are neighbors.
        pos = np.array([[0.0, 0.0], [0.15, 0.0], [0.30, 0.0]])
        ns = neighbor_sets(pos, 0.2)
        assert ns[0] == {1}
        assert ns[1] == {0, 2}
        assert ns[2] == {1}

    def test_boundary_distance_is_neighbor(self):
        pos = np.array([[0.0, 0.0], [0.2, 0.0]])
        ns = neighbor_sets(pos, 0.2)
        assert ns[0] == {1}

    def test_no_self_neighbor(self):
        pos = np.array([[0.5, 0.5], [0.5, 0.5]])
        ns = neighbor_sets(pos, 0.2)
        assert 0 not in ns[0]
        assert ns[0] == {1}  # co-located nodes hear each other

    def test_radius_must_be_positive(self):
        with pytest.raises(ValueError):
            neighbor_sets(np.zeros((2, 2)), 0.0)

    def test_symmetric_relation(self):
        rng = np.random.default_rng(3)
        pos = rng.random((30, 2))
        ns = neighbor_sets(pos, 0.25)
        for i in range(30):
            for j in ns[i]:
                assert i in ns[j]


class TestUnitDiskPropagation:
    @pytest.mark.parametrize("radius", [float("nan"), 0.0, -0.2, float("inf")])
    def test_rejects_nan_or_non_positive_radius(self, radius):
        with pytest.raises(ValueError, match="radius"):
            UnitDiskPropagation(np.zeros((3, 2)), radius)

    @pytest.mark.parametrize("factor", [float("nan"), float("inf"), 0.5])
    def test_rejects_nan_infinite_or_shrinking_interference(self, factor):
        with pytest.raises(ValueError, match="interference_factor"):
            UnitDiskPropagation(np.zeros((3, 2)), 0.2, interference_factor=factor)

    def test_neighbor_sets_rejects_nan_radius(self):
        with pytest.raises(ValueError, match="radius"):
            neighbor_sets(np.zeros((3, 2)), float("nan"))

    def test_rx_power_monotone_in_distance(self):
        pos = np.array([[0.0, 0.0], [0.05, 0.0], [0.1, 0.0]])
        prop = UnitDiskPropagation(pos, 0.2)
        assert prop.rx_power(1, 0) > prop.rx_power(2, 0)

    def test_colocated_power_is_infinite(self):
        pos = np.array([[0.0, 0.0], [0.0, 0.0]])
        prop = UnitDiskPropagation(pos, 0.2)
        assert prop.rx_power(0, 1) == float("inf")

    def test_average_degree_star(self):
        pos = np.array([[0.5, 0.5], [0.55, 0.5], [0.45, 0.5]])
        prop = UnitDiskPropagation(pos, 0.2)
        # All pairwise distances <= 0.1 < 0.2: complete graph, degree 2.
        assert prop.average_degree() == pytest.approx(2.0)

    def test_average_degree_empty(self):
        prop = UnitDiskPropagation(np.zeros((0, 2)), 0.2)
        assert prop.average_degree() == 0.0

    def test_are_neighbors(self):
        pos = np.array([[0.0, 0.0], [0.1, 0.0], [0.5, 0.5]])
        prop = UnitDiskPropagation(pos, 0.2)
        assert prop.are_neighbors(0, 1)
        assert not prop.are_neighbors(0, 2)


class TestFastTables:
    """The precomputed reception fast-path tables (power_rows, rx_matrix,
    neighbor/interferer id lists) must mirror the scalar model exactly."""

    def test_power_rows_bitwise_match_scalar_pow(self):
        rng = np.random.default_rng(5)
        pos = rng.random((25, 2))
        prop = UnitDiskPropagation(pos, 0.2)
        for i in range(25):
            for j in range(25):
                d = prop.distances[i, j]
                expected = float("inf") if d == 0.0 else d ** -prop.eta
                assert prop.power_rows[i][j] == expected
                assert prop.rx_power(i, j) == expected

    def test_neighbor_lists_preserve_frozenset_iteration_order(self):
        # Reception processing order determines channel RNG draw order, so
        # the id lists must iterate exactly as the frozensets do.
        rng = np.random.default_rng(6)
        pos = rng.random((40, 2))
        prop = UnitDiskPropagation(pos, 0.2)
        for i in range(40):
            assert prop.neighbor_lists[i] == list(prop.neighbors[i])
        assert prop.interferer_lists is prop.neighbor_lists

    def test_interferer_lists_split_when_factor_above_one(self):
        rng = np.random.default_rng(7)
        pos = rng.random((15, 2))
        prop = UnitDiskPropagation(pos, 0.15, interference_factor=1.5)
        assert prop.interferer_lists is not prop.neighbor_lists
        for i in range(15):
            assert prop.interferer_lists[i] == list(prop.interferers[i])

    def test_tables_rebuilt_on_mobility(self):
        rng = np.random.default_rng(8)
        pos = rng.random((10, 2))
        prop = UnitDiskPropagation(pos, 0.3)
        before = [row[:] for row in prop.power_rows]
        prop.update_positions(rng.random((10, 2)))
        assert prop.power_rows != before
        for i in range(10):
            assert prop.neighbor_lists[i] == list(prop.neighbors[i])
            for j in range(10):
                d = prop.distances[i, j]
                expected = float("inf") if d == 0.0 else d ** -prop.eta
                assert prop.power_rows[i][j] == expected

"""Tests for the per-figure experiment harnesses (tiny settings)."""

import pytest

from repro.experiments.config import SimulationSettings
from repro.experiments.figures import (
    figure2,
    figure5,
    figure6a,
    figure6b,
    figure7,
    figure8,
    table1,
)

TINY = SimulationSettings(n_nodes=20, horizon=800, message_rate=0.002)


class TestTable1:
    def test_structure(self):
        r = table1()
        assert set(r.series) == {"BMMM", "LAMM", "BMW", "BSMA"}
        assert len(r.xs) == 2
        assert "paper" in r.meta

    def test_bsma_is_worst(self):
        r = table1()
        for i in range(2):
            assert r.series["BSMA"][i] > r.series["BMW"][i]
            assert r.series["BSMA"][i] > r.series["BMMM"][i]


class TestFigure5:
    def test_structure(self):
        r = figure5(n_max=12)
        assert len(r.xs) == 12
        assert r.series["BMMM"] == r.series["LAMM"]

    def test_bmw_linear_bmmm_sublinear(self):
        r = figure5(n_max=15)
        assert r.series["BMW"][-1] > 15
        assert r.series["BMMM"][-1] < 3


class TestFigure2:
    def test_bmmm_needs_less_medium_time_than_bmw(self):
        r = figure2(n_receivers=4)
        assert r.series["BMMM"][0] < r.series["BMW"][0]

    def test_frame_counts(self):
        r = figure2(n_receivers=3)
        bmmm = r.meta["frame_counts"]["BMMM"]
        assert bmmm["RTS"] == 3 and bmmm["RAK"] == 3 and bmmm["DATA"] == 1

    def test_timeline_recorded(self):
        r = figure2(n_receivers=2)
        assert r.meta["timeline"]["BMW"]
        assert r.meta["timeline"]["BMMM"]

    def test_validation(self):
        with pytest.raises(ValueError):
            figure2(n_receivers=0)


class TestSimulatedSweeps:
    """One tiny sweep per family; full-scale shape checks live in
    tests/integration and the benchmarks."""

    def test_figure6a_runs(self):
        r = figure6a(settings=TINY, seeds=[0], node_counts=(15, 25))
        assert len(r.xs) == 2
        assert set(r.series) == {"BMW", "BSMA", "BMMM", "LAMM"}
        for ys in r.series.values():
            assert all(0.0 <= y <= 1.0 for y in ys)
        # x-axis is the measured mean degree, increasing with node count.
        assert r.xs[0] < r.xs[1]

    def test_recomputed_figure_matches_itself(self):
        """A figure recomputed at the same seeds is bit-identical."""
        tiny = SimulationSettings(n_nodes=15, horizon=600, message_rate=0.003)
        first = figure6a(settings=tiny, seeds=[0], node_counts=(12, 15))
        second = figure6a(settings=tiny, seeds=[0], node_counts=(12, 15))
        assert (first.xs, first.series) == (second.xs, second.series)

    def test_figure6b_runs(self):
        r = figure6b(settings=TINY, seeds=[0], rates=(0.001, 0.004))
        assert r.xs == [0.001, 0.004]

    def test_figure7_runs(self):
        r = figure7(settings=TINY, seeds=[0], timeouts=(60, 200))
        assert r.xs == [60, 200]
        # Larger timeouts can only help (up to noise, use BMMM).
        assert r.series["BMMM"][1] >= r.series["BMMM"][0] - 0.1

    def test_figure8_rescoring(self):
        r = figure8(settings=TINY, seeds=[0], thresholds=(0.5, 1.0))
        for proto, ys in r.series.items():
            assert ys[0] >= ys[1], f"{proto}: stricter threshold must not help"

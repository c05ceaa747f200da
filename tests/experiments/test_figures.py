"""Tests for the per-figure experiment harnesses (tiny settings)."""

import hashlib
import json
from statistics import mean

import pytest

from repro.experiments.config import SimulationSettings
from repro.experiments.figures import (
    FIGURES,
    THRESHOLD_SWEEP,
    figure2,
    figure5,
    run_figures,
    table1,
)
from repro.metrics.aggregate import summarize_run
from tests.experiments.reference_figures import reference_figures
from tests.experiments.reference_runner import reference_raws

TINY = SimulationSettings(n_nodes=20, horizon=800, message_rate=0.002)
#: Small grids through the TINY point, so the three settings axes and
#: Figure 8 all share it: 4 distinct points where the old per-figure
#: path ran 15.
SMALL_GRIDS = {
    "nodes": (15, 20),
    "rate": (0.001, 0.002),
    "timeout": (60, 100),
    "threshold": (0.5, 1.0),
}


def one(name, **kwargs):
    return run_figures([name], **kwargs)[name]


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

    def test_pinned_output(self):
        """Figure 2's series, frame counts and timelines, pinned byte for
        byte (sha256 of the sorted JSON) so ``figure2.json`` cannot
        drift."""
        r = figure2()
        assert r.series == {"BMW": [56.0], "BMMM": [38.0]}
        assert r.meta["frame_counts"] == {
            "BMW": {"RTS": 4, "CTS": 4, "DATA": 1, "ACK": 1, "NAK": 0, "RAK": 0, "BEACON": 0},
            "BMMM": {"RTS": 4, "CTS": 4, "DATA": 1, "ACK": 4, "NAK": 0, "RAK": 4, "BEACON": 0},
        }
        digest = hashlib.sha256(json.dumps(r.as_dict(), sort_keys=True).encode()).hexdigest()
        assert digest == "f2afeaad080714bcfe236b87f50a14434ed98613dea9ebf76af98f4cdab117f2"


class TestSimulatedSweeps:
    """One tiny sweep per family; full-scale shape checks live in
    tests/integration and the benchmarks."""

    def test_figure6a_runs(self):
        r = one("figure6a", settings=TINY, seeds=[0], grids={"nodes": (15, 25)})
        assert len(r.xs) == 2
        assert set(r.series) == {"BMW", "BSMA", "BMMM", "LAMM"}
        for ys in r.series.values():
            assert all(0.0 <= y <= 1.0 for y in ys)
        # x-axis is the measured mean degree, increasing with node count.
        assert r.xs[0] < r.xs[1]

    def test_recomputed_figure_matches_itself(self):
        """A figure recomputed at the same seeds is bit-identical."""
        tiny = SimulationSettings(n_nodes=15, horizon=600, message_rate=0.003)
        kwargs = {"settings": tiny, "seeds": [0], "grids": {"nodes": (12, 15)}}
        first, second = one("figure6a", **kwargs), one("figure6a", **kwargs)
        assert (first.xs, first.series) == (second.xs, second.series)

    def test_figure6b_runs(self):
        r = one("figure6b", settings=TINY, seeds=[0], grids={"rate": (0.001, 0.004)})
        assert r.xs == [0.001, 0.004]

    def test_figure7_runs(self):
        r = one("figure7", settings=TINY, seeds=[0], grids={"timeout": (60, 200)})
        assert r.xs == [60, 200]
        assert all(type(x) is float for x in r.xs)
        # Larger timeouts can only help (up to noise, use BMMM).
        assert r.series["BMMM"][1] >= r.series["BMMM"][0] - 0.1

    def test_figure8_rescoring(self):
        r = one("figure8", settings=TINY, seeds=[0], grids={"threshold": (0.5, 1.0)})
        for proto, ys in r.series.items():
            assert ys[0] >= ys[1], f"{proto}: stricter threshold must not help"

    def test_figure8_equals_reference_rescoring(self):
        """One engine sweep re-scored per threshold equals the reference
        loop (a cold run per protocol and seed, each re-scored), bit for
        bit -- serial or pooled."""
        r = one("figure8", settings=TINY, seeds=range(2))
        assert r.xs == list(THRESHOLD_SWEEP)
        for proto, ys in r.series.items():
            raws = reference_raws(proto, TINY, range(2))
            assert ys == [
                mean(
                    summarize_run(raw.requests, raw.stats, threshold=th).delivery_rate
                    for raw in raws
                )
                for th in THRESHOLD_SWEEP
            ], proto
        assert one("figure8", settings=TINY, seeds=range(2), processes=2).series == r.series


class TestOneCampaign:
    """``run_figures`` reads every figure off one sweep of the distinct
    points and equals the per-figure path."""

    @pytest.mark.parametrize("processes", [1, 2])
    def test_equals_one_sweep_per_figure(self, processes):
        kwargs = {"settings": TINY, "seeds": range(2), "grids": SMALL_GRIDS}
        reference = reference_figures(FIGURES, processes=1, **kwargs)
        campaign = run_figures(FIGURES, processes=processes, **kwargs)
        assert list(campaign) == list(FIGURES)
        for name, result in campaign.items():
            assert result.as_dict() == reference[name].as_dict(), name
            assert json.dumps(result.as_dict()) == json.dumps(reference[name].as_dict()), name

    def test_each_distinct_cell_runs_once(self, monkeypatch):
        """All eight figures at the paper's grids: 11 distinct points
        (4 densities, 3 more rates, 4 more timeouts; the Table-2 point is
        shared), so 11 x 4 protocols runs per seed -- not the 30 x 4 of
        one sweep per figure."""
        from repro.experiments import sweep
        from repro.store.digests import settings_digest

        calls = []
        run_job = sweep.run_job

        def counting(job, cache=None):
            calls.append((settings_digest(job.settings), job.seed, job.protocol))
            return run_job(job, cache)

        monkeypatch.setattr(sweep, "run_job", counting)
        run_figures(FIGURES, settings=SimulationSettings(horizon=100), seeds=range(2), processes=1)
        assert len(calls) == len(set(calls)) == 11 * 4 * 2

    def test_unknown_figure_or_axis(self):
        with pytest.raises(KeyError):
            run_figures(["figure99"], settings=TINY, seeds=[0])
        with pytest.raises(KeyError, match="node_counts"):
            run_figures(["figure6a"], settings=TINY, seeds=[0], grids={"node_counts": (15,)})

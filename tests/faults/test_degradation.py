"""Tests for the degradation-study helpers (``repro.experiments.degradation``).

A study is ``degradation_points`` fed to ``run_sweep``, as ``repro-mac
faults`` runs it."""

import pytest

from repro.experiments.config import SimulationSettings
from repro.experiments.degradation import (
    FAULT_AXES,
    degradation_points,
    fault_plan_for,
)
from repro.faults import FaultPlan, GilbertElliott


class TestFaultPlanFor:
    def test_burst_axis(self):
        plan = fault_plan_for("burst", 16.0, stationary_loss=0.25)
        assert plan.burst is not None
        assert plan.burst.p_bad_good == pytest.approx(1 / 16)
        assert plan.burst.stationary_bad == pytest.approx(0.25)

    def test_zero_is_benign(self):
        assert fault_plan_for("burst", 0.0).burst is None
        assert fault_plan_for("churn", 0.0).churn is None
        assert fault_plan_for("sigma", 0.0).location_sigma == 0.0

    def test_churn_and_sigma_axes(self):
        churny = fault_plan_for("churn", 5e-4, mean_downtime=120.0)
        assert churny.churn.crash_rate == pytest.approx(5e-4)
        assert churny.churn.mean_downtime == 120.0
        assert fault_plan_for("sigma", 0.05).location_sigma == 0.05

    def test_base_plan_preserved(self):
        """The CI grid sweeps churn on top of a fixed burst."""
        base = FaultPlan(burst=GilbertElliott.from_burst(8, 0.2), receiver_give_up=2)
        plan = fault_plan_for("churn", 1e-3, base=base)
        assert plan.burst == base.burst
        assert plan.receiver_give_up == 2
        assert plan.churn.crash_rate == pytest.approx(1e-3)

    def test_unknown_axis(self):
        with pytest.raises(KeyError, match="gremlins"):
            fault_plan_for("gremlins", 1.0)


class TestDegradationPoints:
    def test_default_grids_lead_with_benign_baseline(self):
        settings = SimulationSettings()
        for axis, values in FAULT_AXES.items():
            points = degradation_points(settings, axis)
            assert len(points) == len(values)
            assert points[0].faults.is_noop, axis
            assert not points[-1].faults.is_noop, axis
            # Only the fault plan varies; workload is held fixed.
            assert all(p.with_(faults=FaultPlan()) == settings for p in points)

    def test_base_defaults_to_settings_faults(self):
        settings = SimulationSettings(
            faults=FaultPlan(burst=GilbertElliott.from_burst(8, 0.2))
        )
        points = degradation_points(settings, "sigma", [0.0, 0.1])
        # The pinned burst survives under every sigma point.
        assert all(p.faults.burst == settings.faults.burst for p in points)
        assert points[1].faults.location_sigma == 0.1


class TestDegradationStudy:
    def test_tiny_study_end_to_end(self):
        from repro.experiments.scenario import Scenario
        from repro.experiments.sweep import run_sweep

        sc = Scenario(
            settings=SimulationSettings(n_nodes=16, horizon=500, message_rate=0.003),
            protocols=("BMMM", "LAMM"),
            seeds=(0,),
        )
        points = degradation_points(sc.settings, "burst", [0.0, 16.0])
        result = run_sweep(sc, points, processes=1)
        benign = result.mean(0, "BMMM")
        bursty = result.mean(1, "BMMM")
        assert "faults.burst_losses" not in benign.counters
        assert bursty.counters["faults.burst_losses"] > 0
        assert bursty.delivery_rate <= benign.delivery_rate

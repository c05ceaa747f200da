"""Tests for the frozen fault-plan dataclasses (``repro.faults.plan``).

The plan participates in ``WorldCache`` schedule keys and run manifests,
so beyond parameter validation these pin hashability and JSON-safe
serialization.
"""

import pytest

from repro.faults import FaultPlan, GilbertElliott, NodeChurn


class TestGilbertElliott:
    def test_defaults_are_noop(self):
        ge = GilbertElliott()
        assert ge.is_noop
        assert ge.stationary_bad == 0.0

    @pytest.mark.parametrize(
        "field", ["p_good_bad", "p_bad_good", "loss_good", "loss_bad"]
    )
    @pytest.mark.parametrize("value", [-0.1, 1.5])
    def test_probabilities_validated(self, field, value):
        with pytest.raises(ValueError, match=field):
            GilbertElliott(**{field: value})

    def test_from_burst_math(self):
        ge = GilbertElliott.from_burst(8.0, 0.2)
        assert ge.p_bad_good == pytest.approx(1 / 8)
        # p_gb = pi/(1-pi) * p_bg recovers the requested stationary share.
        assert ge.stationary_bad == pytest.approx(0.2)
        assert ge.decay == pytest.approx(1.0 - ge.p_good_bad - ge.p_bad_good)
        assert not ge.is_noop

    def test_from_burst_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="mean_burst"):
            GilbertElliott.from_burst(0.5, 0.2)
        with pytest.raises(ValueError, match="stationary_bad"):
            GilbertElliott.from_burst(8.0, 1.0)
        # pi=0.9 with burst 1 needs p_good_bad = 9 > 1: unsatisfiable.
        with pytest.raises(ValueError, match="too short"):
            GilbertElliott.from_burst(1.0, 0.9)

    def test_noop_characterisation(self):
        # Lossless BAD state: chain churns but no frame is ever lost.
        assert GilbertElliott(p_good_bad=0.3, p_bad_good=0.5, loss_bad=0.0).is_noop
        # BAD unreachable (chains start stationary, pi_B = 0).
        assert GilbertElliott(p_good_bad=0.0, loss_bad=1.0).is_noop
        # Loss in GOOD makes any chain lossy.
        assert not GilbertElliott(loss_good=0.01, loss_bad=0.0).is_noop


class TestNodeChurn:
    def test_validation(self):
        with pytest.raises(ValueError, match="crash_rate"):
            NodeChurn(crash_rate=-1.0)
        with pytest.raises(ValueError, match="mean_downtime"):
            NodeChurn(crash_rate=0.01, mean_downtime=0.0)

    def test_noop(self):
        assert NodeChurn().is_noop
        assert not NodeChurn(crash_rate=1e-4).is_noop


class TestFaultPlan:
    def test_default_is_noop_and_needs_nothing(self):
        plan = FaultPlan()
        assert plan.is_noop
        assert not plan.needs_injector

    def test_validation(self):
        with pytest.raises(ValueError, match="location_sigma"):
            FaultPlan(location_sigma=-0.1)
        with pytest.raises(ValueError, match="receiver_give_up"):
            FaultPlan(receiver_give_up=-1)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_non_finite_sigma_rejected(self, sigma):
        """NaN passed ``< 0`` and turned every perceived position into NaN."""
        with pytest.raises(ValueError, match="location_sigma"):
            FaultPlan(location_sigma=sigma)

    @pytest.mark.parametrize("give_up", [True, 2.5, 3.0, float("nan")])
    def test_give_up_must_be_whole(self, give_up):
        with pytest.raises(ValueError, match="receiver_give_up"):
            FaultPlan(receiver_give_up=give_up)

    def test_give_up_is_not_noop_but_needs_no_injector(self):
        # A retry cap changes MAC behaviour even on a perfect channel
        # (silence can come from collisions), but all its machinery lives
        # in MacConfig -- no channel-side injector.
        plan = FaultPlan(receiver_give_up=3)
        assert not plan.is_noop
        assert not plan.needs_injector

    def test_noop_components_do_not_demand_injector(self):
        plan = FaultPlan(burst=GilbertElliott(), churn=NodeChurn())
        assert plan.is_noop
        assert not plan.needs_injector

    @pytest.mark.parametrize(
        "plan",
        [
            FaultPlan(burst=GilbertElliott.from_burst(4, 0.1)),
            FaultPlan(churn=NodeChurn(crash_rate=1e-4)),
            FaultPlan(location_sigma=0.05),
        ],
    )
    def test_active_components_demand_injector(self, plan):
        assert not plan.is_noop
        assert plan.needs_injector

    def test_with_returns_modified_copy(self):
        plan = FaultPlan()
        jittered = plan.with_(location_sigma=0.1)
        assert jittered.location_sigma == 0.1
        assert plan.location_sigma == 0.0

    def test_hashable_for_cache_keys(self):
        a = FaultPlan(burst=GilbertElliott.from_burst(8, 0.2), receiver_give_up=2)
        b = FaultPlan(burst=GilbertElliott.from_burst(8, 0.2), receiver_give_up=2)
        assert a == b and hash(a) == hash(b)
        assert len({a, b, FaultPlan()}) == 2

    def test_schedule_key_varies_with_plan_but_topology_does_not(self):
        from repro.experiments.config import SimulationSettings
        from repro.workload.cache import schedule_key, topology_key

        benign = SimulationSettings()
        faulty = benign.with_(faults=FaultPlan(location_sigma=0.05))
        assert topology_key(benign, 0) == topology_key(faulty, 0)
        assert schedule_key(benign, 0) != schedule_key(faulty, 0)

    def test_settings_serialization_includes_plan(self):
        from repro.experiments.config import SimulationSettings
        from repro.obs.manifest import settings_to_dict

        settings = SimulationSettings(
            faults=FaultPlan(
                burst=GilbertElliott.from_burst(8, 0.2),
                churn=NodeChurn(crash_rate=1e-4),
                location_sigma=0.03,
                receiver_give_up=2,
            )
        )
        dumped = settings_to_dict(settings)
        assert dumped["faults"]["location_sigma"] == 0.03
        assert dumped["faults"]["receiver_give_up"] == 2
        assert dumped["faults"]["burst"]["p_bad_good"] == pytest.approx(1 / 8)
        assert dumped["faults"]["churn"]["crash_rate"] == pytest.approx(1e-4)

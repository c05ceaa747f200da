"""Tests for simulation settings and the protocol registry."""

import math

import pytest

import repro
from repro.core.bmmm import BmmmMac
from repro.core.lamm import LammMac
from repro.experiments.config import (
    PROTOCOLS,
    SIMULATED_PROTOCOLS,
    SimulationSettings,
    protocol_class,
)
from repro.experiments.scenario import Scenario


class TestSimulationSettings:
    def test_defaults_match_table2(self):
        s = SimulationSettings()
        assert s.n_nodes == 100
        assert s.radius == 0.2
        assert s.horizon == 10_000
        assert s.timeout_slots == 100.0
        assert s.message_rate == 0.0005
        assert s.threshold == 0.9
        assert (s.mix.unicast, s.mix.multicast, s.mix.broadcast) == (0.2, 0.4, 0.4)

    def test_with_creates_modified_copy(self):
        s = SimulationSettings()
        t = s.with_(n_nodes=40, message_rate=0.001)
        assert t.n_nodes == 40 and t.message_rate == 0.001
        assert s.n_nodes == 100  # original untouched

    def test_frozen(self):
        with pytest.raises(Exception):
            SimulationSettings().n_nodes = 5

    @pytest.mark.parametrize(
        "timeout", [-5.0, -1e-9, float("nan"), float("-inf"), float("inf")]
    )
    def test_rejects_negative_nan_or_infinite_timeout(self, timeout):
        with pytest.raises(ValueError, match="timeout"):
            SimulationSettings(timeout_slots=timeout)

    def test_run_with_an_infinite_timeout_raises_value_error(self):
        with pytest.raises(ValueError, match=r"timeout_slots must be finite.*no store address"):
            repro.run(
                Scenario(
                    settings=SimulationSettings(n_nodes=8, horizon=200, timeout_slots=math.inf),
                    protocols="BMMM",
                    seeds=0,
                )
            )

    @pytest.mark.parametrize("timeout", [0.0, 250.0])
    def test_accepts_finite_timeouts(self, timeout):
        assert SimulationSettings(timeout_slots=timeout).timeout_slots == timeout

    @pytest.mark.parametrize("threshold", [2.0, -1.0, 1.0 + 1e-9, float("nan")])
    def test_rejects_threshold_outside_unit_interval(self, threshold):
        with pytest.raises(ValueError, match="threshold"):
            SimulationSettings(threshold=threshold)
        with pytest.raises(ValueError, match="threshold"):
            SimulationSettings().with_(threshold=threshold)

    @pytest.mark.parametrize("threshold", [0.0, 0.5, 1.0])
    def test_accepts_threshold_bounds(self, threshold):
        assert SimulationSettings(threshold=threshold).threshold == threshold

    @pytest.mark.parametrize(
        "field, value",
        [
            ("side", float("nan")),
            ("side", -1.0),
            ("side", 0.0),
            ("side", float("inf")),
            ("radius", float("nan")),
            ("radius", -0.2),
            ("radius", 0.0),
            ("radius", float("inf")),
            ("interference_factor", float("nan")),
            ("interference_factor", float("inf")),
        ],
    )
    def test_rejects_nan_or_non_positive_geometry(self, field, value):
        """A NaN radius/side used to simulate an empty world (0 requests),
        a negative side a mirrored one, and a NaN interference factor RTS
        frames nobody heard; none of them may reach the simulator."""
        with pytest.raises(ValueError, match=field):
            SimulationSettings(**{field: value})
        with pytest.raises(ValueError, match=field):
            SimulationSettings(n_nodes=20).with_(**{field: value})

    def test_accepts_positive_geometry(self):
        s = SimulationSettings(side=0.5, radius=0.3, interference_factor=2.0)
        assert (s.side, s.radius, s.interference_factor) == (0.5, 0.3, 2.0)

    @pytest.mark.parametrize("field", ["n_nodes", "horizon"])
    @pytest.mark.parametrize(
        "value, match",
        [
            (True, "a whole number"),
            (False, "a whole number"),
            (300.5, "a whole number"),
            (300.0, "a whole number"),
            (float("nan"), "a whole number"),
            (float("inf"), "a whole number"),
            ("300", "a whole number"),
            (-1, "non-negative"),
        ],
    )
    def test_rejects_non_count_nodes_and_horizon(self, field, value, match):
        """The same rule as ``TrafficGenerator``, checked at construction:
        a fractional horizon used to construct and fail only later,
        inside the run (or a sweep worker)."""
        with pytest.raises(ValueError, match=f"{field} must be {match}"):
            SimulationSettings(**{field: value})
        with pytest.raises(ValueError, match=field):
            SimulationSettings().with_(**{field: value})

    def test_accepts_whole_counts(self):
        import numpy as np

        s = SimulationSettings(n_nodes=np.int64(12), horizon=0)
        assert (s.n_nodes, s.horizon) == (12, 0)


class TestRegistry:
    def test_all_protocols_registered(self):
        assert set(PROTOCOLS) == {
            "802.11", "TangGerla", "BSMA", "BMW", "BMMM", "LAMM", "LACS", "LBP", "RAM",
        }

    def test_classic_presentation_order(self):
        assert list(PROTOCOLS) == [
            "802.11", "TangGerla", "BSMA", "BMW", "BMMM", "LAMM", "LACS", "LBP", "RAM",
        ]

    def test_simulated_subset(self):
        assert set(SIMULATED_PROTOCOLS) <= set(PROTOCOLS)
        assert set(SIMULATED_PROTOCOLS) == {"BMW", "BSMA", "BMMM", "LAMM"}

    def test_lookup(self):
        cls, kwargs = protocol_class("BMMM")
        assert cls is BmmmMac
        cls, _ = protocol_class("LAMM")
        assert cls is LammMac

    def test_unknown_protocol(self):
        with pytest.raises(KeyError, match="unknown protocol"):
            protocol_class("FOO")

"""Tests for the unified Scenario surface.

One frozen :class:`repro.Scenario` is what every entry point takes
(``run`` / ``run_once`` / ``run_protocol`` / ``run_sweep`` / ``sweep``);
the retired positional signatures raise ``TypeError``.
"""

import pytest

from repro.experiments.config import SIMULATED_PROTOCOLS, SimulationSettings, protocol_class
from repro.experiments.runner import run, run_once, run_protocol
from repro.experiments.scenario import Scenario
from repro.experiments.sweep import run_sweep, sweep

SMALL = SimulationSettings(n_nodes=16, horizon=600, message_rate=0.003)


class TestNormalization:
    def test_single_protocol_string(self):
        sc = Scenario(protocols="BMMM")
        assert sc.protocols == ("BMMM",)
        assert sc.protocol == "BMMM"

    def test_single_seed_int(self):
        sc = Scenario(seeds=7)
        assert sc.seeds == (7,)
        assert sc.seed == 7

    def test_seed_iterables(self):
        assert Scenario(seeds=range(3)).seeds == (0, 1, 2)
        assert Scenario(seeds=[4, 2]).seeds == (4, 2)

    def test_defaults(self):
        sc = Scenario()
        assert sc.protocols == SIMULATED_PROTOCOLS
        assert sc.seeds == (0,)
        assert sc.threshold is None
        assert sc.scoring_threshold == sc.settings.threshold

    def test_unknown_protocol_rejected(self):
        with pytest.raises(KeyError, match="FROB"):
            Scenario(protocols="FROB")

    def test_empty_and_duplicate_rejected(self):
        with pytest.raises(ValueError):
            Scenario(protocols=())
        with pytest.raises(ValueError, match="duplicate"):
            Scenario(protocols=("BMMM", "BMMM"))
        with pytest.raises(ValueError):
            Scenario(seeds=[])

    def test_settings_type_checked(self):
        with pytest.raises(TypeError, match="SimulationSettings"):
            Scenario(settings={"n_nodes": 10})

    def test_threshold_validated(self):
        with pytest.raises(ValueError, match="threshold"):
            Scenario(threshold=0.0)
        assert Scenario(threshold=1.0).scoring_threshold == 1.0

    def test_singular_accessors_guard_plurality(self):
        sc = Scenario(protocols=("BMMM", "LAMM"), seeds=(0, 1))
        with pytest.raises(ValueError):
            sc.protocol
        with pytest.raises(ValueError):
            sc.seed

    def test_with_and_per_protocol(self):
        sc = Scenario(protocols=("BMMM", "LAMM"), seeds=(0, 1))
        assert sc.with_(seeds=(5,)).seeds == (5,)
        split = list(sc.per_protocol())
        assert [s.protocol for s in split] == ["BMMM", "LAMM"]
        assert all(s.seeds == (0, 1) for s in split)

    def test_hashable(self):
        assert len({Scenario(), Scenario(), Scenario(seeds=1)}) == 2


class TestDualAcceptance:
    @pytest.mark.parametrize(
        "entry,legacy_args",
        [
            (run_once, (protocol_class("BMMM")[0], SMALL, 3)),
            (run_protocol, ("LAMM", SMALL, [0, 1])),
            (run, (["BMMM"], SMALL, [0])),
            (run_sweep, (["BMMM", "LAMM"], [SMALL], [0, 1])),
        ],
        ids=["run_once", "run_protocol", "run", "run_sweep"],
    )
    def test_positional_call_rejected(self, entry, legacy_args):
        """The retired positional signatures are gone: both the full legacy
        call and a bare non-Scenario first argument raise TypeError."""
        with pytest.raises(TypeError):
            entry(*legacy_args)
        with pytest.raises(TypeError, match="Scenario"):
            entry(legacy_args[0])

    def test_run_once_rejects_mixed_args(self):
        with pytest.raises(TypeError):
            run_once(Scenario(protocols="BMMM"), SMALL)

    def test_run_respects_protocol_order_and_workload_sharing(self):
        sc = Scenario(settings=SMALL, protocols=("LAMM", "BMMM"), seeds=(0,))
        results = run(sc)
        assert list(results) == ["LAMM", "BMMM"]
        # Identical workloads: both protocols faced the same requests.
        assert results["LAMM"].n_requests == results["BMMM"].n_requests


class TestSweepScenario:
    def test_sweep_requires_scenario(self):
        with pytest.raises(TypeError, match="Scenario"):
            sweep(["BMMM"])

    def test_scenario_seeds_conflict_rejected(self):
        with pytest.raises(TypeError, match="seeds"):
            run_sweep(Scenario(settings=SMALL), seeds=[0, 1])

    def test_sweep_defaults_to_single_point(self):
        sc = Scenario(settings=SMALL, protocols="BMMM", seeds=0)
        result = sweep(sc, processes=1)
        assert result.points == [SMALL]
        assert result.mean(0, "BMMM").n_runs == 1

    def test_scenario_threshold_flows_to_scoring(self):
        sc = Scenario(settings=SMALL, protocols="BMMM", seeds=0, threshold=1.0)
        strict = sweep(sc, processes=1).mean(0, "BMMM")
        lax = sweep(sc.with_(threshold=None), processes=1).mean(0, "BMMM")
        assert strict.delivery_rate <= lax.delivery_rate


class TestPublicSurface:
    def test_top_level_exports(self):
        import repro

        for name in (
            "Scenario",
            "SimulationSettings",
            "FaultPlan",
            "GilbertElliott",
            "NodeChurn",
            "PROTOCOLS",
            "run",
            "sweep",
            "run_once",
            "run_protocol",
        ):
            assert name in repro.__all__, name
            assert getattr(repro, name) is not None

    def test_the_api_one_scenario_in_metrics_out(self):
        """The documented idiom works verbatim from the package root."""
        import repro

        results = repro.run(
            repro.Scenario(settings=SMALL, protocols=("BMMM",), seeds=(0,))
        )
        assert results["BMMM"].n_runs == 1

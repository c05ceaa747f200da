"""Tests for the unified Scenario surface.

One frozen :class:`repro.Scenario` is what every entry point takes
(``run`` / ``run_once`` / ``run_sweep``); the retired positional
signatures raise ``TypeError``.
"""

import dataclasses
import inspect

import numpy as np
import pytest

from repro.experiments.config import SIMULATED_PROTOCOLS, SimulationSettings, protocol_class
from repro.experiments.runner import RawRun, run, run_once
from repro.experiments.scenario import Scenario
from repro.experiments.sweep import run_sweep
from repro.store.digests import settings_digest

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

    def test_numpy_integer_seeds_accepted(self):
        sc = Scenario(seeds=np.arange(3))
        assert sc.seeds == (0, 1, 2)
        assert all(type(s) is int for s in sc.seeds)
        assert Scenario(seeds=np.int64(5)).seeds == (5,)

    @pytest.mark.parametrize(
        "seeds,named",
        [
            ([0.5, 1.7], "0.5"),
            ([2.0], "2.0"),
            ([True], "True"),
            (True, "True"),
            (["3"], "'3'"),
            ([-1], "-1"),
        ],
        ids=["fractional", "integral-float", "bool", "bare-bool", "string", "negative"],
    )
    def test_non_integer_seed_rejected(self, seeds, named):
        """A seed names one RNG stream; nothing is silently coerced."""
        with pytest.raises(ValueError, match=f"seed .*{named}"):
            Scenario(seeds=seeds)

    def test_repeated_seed_rejected(self):
        """A repeated seed would count twice in every mean."""
        with pytest.raises(ValueError, match=r"duplicate seeds in \(0, 1, 0\)"):
            Scenario(seeds=[0, 1, 0])
        with pytest.raises(ValueError, match="duplicate seeds"):
            Scenario(seeds=[np.int64(4), 4])

    def test_defaults(self):
        sc = Scenario()
        assert sc.protocols == SIMULATED_PROTOCOLS
        assert sc.seeds == (0,)

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

    def test_threshold_lives_on_settings_alone(self):
        """No scoring override beside ``settings.threshold``."""
        with pytest.raises(TypeError, match="threshold"):
            Scenario(threshold=0.5)
        assert not hasattr(Scenario, "scoring_threshold")

    def test_singular_accessors_guard_plurality(self):
        sc = Scenario(protocols=("BMMM", "LAMM"), seeds=(0, 1))
        with pytest.raises(ValueError):
            sc.protocol
        with pytest.raises(ValueError):
            sc.seed

    def test_with(self):
        sc = Scenario(protocols=("BMMM", "LAMM"), seeds=(0, 1))
        assert sc.with_(seeds=(5,)).seeds == (5,)

    def test_hashable(self):
        assert len({Scenario(), Scenario(), Scenario(seeds=1)}) == 2


class TestDualAcceptance:
    @pytest.mark.parametrize(
        "entry,legacy_args",
        [
            (run_once, (protocol_class("BMMM")[0], SMALL, 3)),
            (run, (["BMMM"], SMALL, [0])),
            (run_sweep, (["BMMM", "LAMM"], [SMALL], [0, 1])),
        ],
        ids=["run_once", "run", "run_sweep"],
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
            run_sweep(["BMMM"])

    def test_scenario_seeds_conflict_rejected(self):
        with pytest.raises(TypeError, match="seeds"):
            run_sweep(Scenario(settings=SMALL), seeds=[0, 1])

    def test_sweep_defaults_to_single_point(self):
        sc = Scenario(settings=SMALL, protocols="BMMM", seeds=0)
        result = run_sweep(sc, processes=1)
        assert result.points == [SMALL]
        assert result.mean(0, "BMMM").n_runs == 1

    def test_settings_threshold_flows_to_scoring(self):
        sc = Scenario(settings=SMALL.with_(threshold=1.0), protocols="BMMM", seeds=0)
        strict = run_sweep(sc, processes=1).cell(0, "BMMM").metrics[0]
        lax = run_sweep(sc.with_(settings=SMALL), processes=1).cell(0, "BMMM").metrics[0]
        assert (strict.threshold, lax.threshold) == (1.0, SMALL.threshold)
        assert strict.delivery_rate <= lax.delivery_rate

    def test_threshold_is_the_settings_alone(self):
        """The scoring threshold travels on each point's settings;
        ``run_sweep`` has no keyword that could disagree with it."""
        with pytest.raises(TypeError, match="threshold"):
            run_sweep(Scenario(settings=SMALL, protocols="BMMM"), threshold=0.5)


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
            "run_once",
            "run_sweep",
        ):
            assert name in repro.__all__, name
            assert getattr(repro, name) is not None

    def test_deleted_entry_points_stay_gone(self):
        """One runner: the campaign wrappers beside ``run_sweep`` are gone,
        so ``repro.experiments.sweep`` is the engine module again."""
        import types

        import repro
        import repro.experiments as experiments
        from repro.experiments import runner

        for name in ("sweep", "run_protocol"):
            assert name not in repro.__all__, name
            assert name not in experiments.__all__, name
            assert not hasattr(runner, name), name
        assert not hasattr(repro, "run_protocol")
        assert isinstance(experiments.sweep, types.ModuleType)
        assert not hasattr(Scenario, "per_protocol")

    def test_test_only_surfaces_stay_gone(self):
        """Names whose only callers were tests left ``src``: a study is
        ``degradation_points`` + ``run_sweep``, ``merge_counter_dicts`` is
        the one dict sum, and ``ArcUnion`` is reference code in tests."""
        import repro.experiments as experiments
        import repro.geometry as geometry
        from repro.experiments import degradation, sweep
        from repro.geometry import arcs, cover
        from repro.obs import profiler

        gone = [
            (experiments, "degradation_study"),
            (degradation, "degradation_study"),
            (profiler, "merge_phase_profiles"),
            (geometry, "ArcUnion"),
            (arcs, "ArcUnion"),
            (cover, "disk_cover_union"),
        ]
        for module, name in gone:
            assert not hasattr(module, name), (module.__name__, name)
            assert name not in getattr(module, "__all__", ()), (module.__name__, name)
        for cls in (Scenario, sweep.SweepJob, sweep.SweepResult):
            assert "threshold" not in {f.name for f in dataclasses.fields(cls)}, cls
        for fn in (sweep.plan_jobs, settings_digest, RawRun.metrics):
            assert "threshold" not in inspect.signature(fn).parameters, fn

    def test_the_api_one_scenario_in_metrics_out(self):
        """The documented idiom works verbatim from the package root."""
        import repro

        results = repro.run(
            repro.Scenario(settings=SMALL, protocols=("BMMM",), seeds=(0,))
        )
        assert results["BMMM"].n_runs == 1

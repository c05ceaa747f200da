"""Tests for the experiment runner (small, fast settings)."""

from dataclasses import replace

import pytest

from repro.experiments.config import SimulationSettings
from repro.experiments.runner import MeanMetrics, run, run_once, run_protocol, run_raw
from repro.experiments.scenario import Scenario
from repro.core.bmmm import BmmmMac

#: Small but non-trivial settings for fast tests.
SMALL = SimulationSettings(n_nodes=25, horizon=1500, message_rate=0.002)


class TestRunRaw:
    def test_produces_requests_and_stats(self):
        raw = run_raw(BmmmMac, SMALL, seed=0)
        assert raw.requests
        assert raw.average_degree > 0
        m = raw.metrics()
        assert m.n_requests > 0

    def test_deterministic_same_seed(self):
        a = run_raw(BmmmMac, SMALL, seed=1).metrics()
        b = run_raw(BmmmMac, SMALL, seed=1).metrics()
        assert a.delivery_rate == b.delivery_rate
        assert a.avg_completion_time == b.avg_completion_time
        assert a.n_requests == b.n_requests

    def test_different_seed_differs(self):
        a = run_raw(BmmmMac, SMALL, seed=1).metrics()
        b = run_raw(BmmmMac, SMALL, seed=2).metrics()
        assert a.n_requests != b.n_requests or a.delivery_rate != b.delivery_rate

    def test_rescoring_threshold(self):
        raw = run_raw(BmmmMac, SMALL, seed=0)
        lax = raw.metrics(threshold=0.1).delivery_rate
        strict = raw.metrics(threshold=1.0).delivery_rate
        assert lax >= strict

    def test_run_once_equals_raw_metrics(self):
        assert (
            run_once(Scenario(settings=SMALL, protocols="BMMM", seeds=3)).delivery_rate
            == run_raw(BmmmMac, SMALL, seed=3).metrics().delivery_rate
        )


class TestRunProtocol:
    def test_averages_over_seeds(self):
        mm = run_protocol(Scenario(settings=SMALL, protocols="BMMM", seeds=range(2)))
        assert mm.n_runs == 2
        assert 0.0 <= mm.delivery_rate <= 1.0
        assert mm.n_requests > 0

    def test_compare_runs_all(self):
        out = run(Scenario(settings=SMALL, protocols=("BMMM", "BMW"), seeds=0))
        assert set(out) == {"BMMM", "BMW"}

    def test_mean_metrics_requires_runs(self):
        with pytest.raises(ValueError):
            MeanMetrics.from_runs([], [])


class TestRawRunManifest:
    def test_untimed_run_has_no_wall_clock(self):
        raw = replace(run_raw(BmmmMac, SMALL, seed=0), timings={})
        assert raw.manifest().wall_clock_s is None

    def test_zero_second_timings_survive_as_zero(self):
        """A sub-resolution run timed at 0.0s is a measurement, not the
        absence of one -- it must not collapse to None."""
        raw = replace(run_raw(BmmmMac, SMALL, seed=0), timings={"simulate": 0.0})
        manifest = raw.manifest()
        assert manifest.wall_clock_s == 0.0
        assert manifest.slots_per_sec is None

    def test_timed_run_sums_phases(self):
        raw = replace(
            run_raw(BmmmMac, SMALL, seed=0),
            timings={"build": 0.25, "simulate": 0.5},
        )
        assert raw.manifest().wall_clock_s == 0.75

"""Tests for the kernel phase profiler (repro.obs.profiler)."""

import pytest

from repro.experiments.config import SIMULATED_PROTOCOLS, SimulationSettings, protocol_class
from repro.experiments.runner import run_raw
from repro.experiments.scenario import Scenario
from repro.experiments.sweep import run_sweep
from repro.obs.events import EVENT_TYPES, SimEvent
from repro.obs.profiler import (
    _PHASE_STARTERS,
    PROFILE_PHASES,
    KernelPhaseProfiler,
    format_phase_profile,
)
from repro.sim.kernel import Environment

from tests.faults.conftest import canon

SETTINGS = SimulationSettings(n_nodes=20, horizon=800, message_rate=0.003)


def _event(etype, t=0.0, node=None, **data):
    return SimEvent(etype, t, node, data)


class TestAttachDetach:
    def test_attach_subscribes_to_the_phase_starters(self):
        env = Environment()
        profiler = KernelPhaseProfiler().attach(env)
        assert env.obs.n_subscribers == 1
        for etype in EVENT_TYPES:
            expected = (profiler,) if etype in _PHASE_STARTERS else ()
            assert getattr(env.obs, etype) == expected, etype
        assert env.obs.active
        profiler.detach()
        assert env.obs.n_subscribers == 0
        assert not env.obs.active

    def test_double_attach_raises(self):
        env = Environment()
        profiler = KernelPhaseProfiler().attach(env)
        with pytest.raises(RuntimeError, match="already attached"):
            profiler.attach(env)
        profiler.detach()

    def test_detach_is_idempotent(self):
        env = Environment()
        profiler = KernelPhaseProfiler().attach(env)
        profiler.detach()
        profiler.detach()

    def test_finish_detaches(self):
        env = Environment()
        profiler = KernelPhaseProfiler().attach(env)
        profiler.finish()
        assert env.obs.n_subscribers == 0


class TestAttribution:
    def test_phase_switching(self):
        profiler = KernelPhaseProfiler()
        profiler(_event("backoff"))
        assert profiler._phase == "difs_backoff"
        profiler(_event("frame_tx", ftype="RTS"))
        assert profiler._phase == "rts"
        profiler(_event("frame_rx", ftype="RTS"))  # bookkeeping: no switch
        assert profiler._phase == "rts"
        profiler(_event("frame_tx", ftype="DATA"))
        assert profiler._phase == "data"
        profiler(_event("frame_tx", ftype="ACK"))
        assert profiler._phase == "ack_collection"
        profiler(_event("request_done"))
        assert profiler._phase == "idle"

    def test_attribution_opens_at_the_first_phase_starter(self):
        profiler = KernelPhaseProfiler()
        profiler(_event("request_submitted"))
        profiler(_event("nav_set"))
        assert profiler.phase_seconds == {} and profiler.phase_events == {}
        assert profiler._last_wall is None
        profiler(_event("backoff"))
        assert profiler.phase_events == {"difs_backoff": 1}

    def test_attributes_wall_time_to_preceding_phase(self):
        profiler = KernelPhaseProfiler()
        profiler(_event("backoff"))
        profiler(_event("frame_tx", ftype="DATA"))
        profiler(_event("request_done"))
        # Two slices landed: backoff..frame_tx -> difs_backoff,
        # frame_tx..request_done -> data.
        assert set(profiler.phase_seconds) == {"difs_backoff", "data"}
        assert all(s >= 0 for s in profiler.phase_seconds.values())

    def test_finish_folds_residue_into_other(self):
        profiler = KernelPhaseProfiler()
        profiler(_event("backoff"))
        profiler(_event("request_done"))
        total = profiler.finish(simulate_wall_s=1.0)
        assert sum(total.values()) == pytest.approx(1.0)
        assert total["other"] > 0
        assert profiler.total_seconds == pytest.approx(1.0)

    def test_as_dict_is_ordered_and_json_safe(self):
        import json

        profiler = KernelPhaseProfiler()
        profiler(_event("backoff"))
        profiler(_event("frame_tx", ftype="DATA"))
        profiler.finish(0.5)
        snapshot = profiler.as_dict()
        json.dumps(snapshot)
        assert set(snapshot) == {"total_s", "phase_seconds", "phase_events"}
        assert all(k in PROFILE_PHASES for k in snapshot["phase_seconds"])


class TestFullRun:
    @pytest.mark.parametrize("protocol", SIMULATED_PROTOCOLS)
    def test_profile_sums_to_simulate_wall_clock(self, protocol):
        """The acceptance criterion: attribution == simulate phase, <1% off."""
        mac_cls, kwargs = protocol_class(protocol)
        raw = run_raw(mac_cls, SETTINGS, 0, kwargs, profile=True)
        assert raw.mac_profile is not None
        assert set(raw.mac_profile) <= set(PROFILE_PHASES)
        total = sum(raw.mac_profile.values())
        assert total == pytest.approx(raw.timings["simulate"], rel=0.01)

    def test_busy_run_attributes_real_phases(self):
        mac_cls, kwargs = protocol_class("BMMM")
        raw = run_raw(mac_cls, SETTINGS, 0, kwargs, profile=True)
        assert raw.mac_profile.get("difs_backoff", 0.0) > 0
        assert raw.mac_profile.get("data", 0.0) > 0

    def test_unprofiled_run_has_no_profile(self):
        mac_cls, kwargs = protocol_class("BMMM")
        raw = run_raw(mac_cls, SETTINGS, 0, kwargs)
        assert raw.mac_profile is None

    def test_manifest_carries_profile(self):
        mac_cls, kwargs = protocol_class("BMMM")
        raw = run_raw(mac_cls, SETTINGS, 0, kwargs, profile=True)
        manifest = raw.manifest(protocol="BMMM")
        assert manifest.extra["mac_profile"] == raw.mac_profile


class TestNoOpDiscipline:
    """Profiler on == profiler off, bit for bit (the faults contract)."""

    @pytest.mark.parametrize("protocol", SIMULATED_PROTOCOLS)
    def test_profiled_run_is_bit_identical(self, protocol):
        mac_cls, kwargs = protocol_class(protocol)
        for seed in (0, 1):
            bare = run_raw(mac_cls, SETTINGS, seed, kwargs)
            profiled = run_raw(mac_cls, SETTINGS, seed, kwargs, profile=True)
            assert canon(profiled.metrics()) == canon(bare.metrics()), (protocol, seed)
            assert profiled.counters == bare.counters, (protocol, seed)
            assert profiled.average_degree == bare.average_degree


class TestHelpers:
    def test_sweep_profile_is_the_sum_of_its_jobs(self, monkeypatch):
        """``SweepResult.mac_profile[proto]`` sums that protocol's per-job
        ``mac_profile`` dicts, in planned-job order."""
        import repro.experiments.sweep as sweep_mod

        jobs = []
        real_run_job = sweep_mod.run_job

        def recording_run_job(job, cache=None):
            jobs.append(real_run_job(job, cache))
            return jobs[-1]

        monkeypatch.setattr(sweep_mod, "run_job", recording_run_job)
        sc = Scenario(settings=SETTINGS, protocols=("BMMM", "LAMM"), seeds=(0, 1))
        result = run_sweep(sc, processes=1, profile=True)
        assert len(jobs) == 4
        for proto in sc.protocols:
            expected: dict[str, float] = {}
            for res in jobs:
                if res.protocol == proto:
                    for phase, seconds in res.mac_profile.items():
                        expected[phase] = expected.get(phase, 0.0) + seconds
            assert expected and result.mac_profile[proto] == expected, proto

    def test_format_phase_profile(self):
        out = format_phase_profile({"data": 3.0, "idle": 1.0}, title="t")
        lines = out.splitlines()
        assert lines[0].startswith("t (total 4.000s)")
        assert lines[1].strip().startswith("data")  # biggest share first
        assert "75.0%" in lines[1]

    def test_format_empty_profile(self):
        assert "no phases" in format_phase_profile({})

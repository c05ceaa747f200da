"""End-to-end observability tests on real simulation runs.

These pin the acceptance criteria of the observability layer: the JSONL
trace, the always-on counters and the run's metrics must all agree with
each other, and observing a run must not change it.
"""

import json
from dataclasses import replace

from repro.experiments.config import SimulationSettings, protocol_class
from repro.experiments.ratesweep import RATE_PROFILES
from repro.experiments.runner import run_raw
from repro.faults import FaultPlan, NodeChurn
from repro.obs.trace import (
    JsonlTraceWriter,
    TraceRecorder,
    event_to_record,
    frame_type_counts,
    lane_diagram,
    load_trace,
    transmissions_from_trace,
)
from repro.sim.frames import FrameType

from tests.conftest import air_log

SMALL = SimulationSettings(n_nodes=20, horizon=800, message_rate=0.003)
#: Crashed senders' frames never reach the air (``faults.tx_suppressed``).
CHURN = replace(
    SMALL, faults=FaultPlan(churn=NodeChurn(crash_rate=0.002, mean_downtime=40.0))
)
#: Multi-rate: RAM sends DATA at MCS 1 (3 slots) to near receivers.
MILD = replace(SMALL, phy=RATE_PROFILES["mild"])


def _run(name="BMMM", seed=0, **kwargs):
    mac_cls, mac_kwargs = protocol_class(name)
    return run_raw(mac_cls, SMALL, seed, mac_kwargs, **kwargs)


class TestTraceMatchesGroundTruth:
    def test_frame_tx_counts_match_counters(self):
        """Acceptance: per-frame-type trace counts == the ``frames_sent.*``
        counter totals (summed per node) == ``RunMetrics.frames_sent``, for
        every simulated protocol, under churn and under a multi-rate
        profile."""
        cases = [(name, SMALL) for name in ("BMMM", "LAMM", "BMW", "BSMA")]
        cases += [("BMMM", CHURN), ("RAM", MILD)]
        for name, settings in cases:
            rec = TraceRecorder()
            mac_cls, mac_kwargs = protocol_class(name)
            raw = run_raw(mac_cls, settings, 0, mac_kwargs, subscribers=[rec])
            from_trace = frame_type_counts(rec.events)
            from_counters = {
                key.split(".", 1)[1]: n
                for key, n in raw.counters.total.items()
                if key.startswith("frames_sent.") and n
            }
            assert from_trace == from_counters == raw.metrics().frames_sent, name
            per_node = {}
            for e in rec.by_type("frame_tx"):
                key = (e.node, "frames_sent." + e.data["ftype"])
                per_node[key] = per_node.get(key, 0) + 1
            assert per_node == {
                (node, key): n
                for node, counts in raw.counters.per_node.items()
                for key, n in counts.items()
                if key.startswith("frames_sent.") and n
            }, name
            if settings is CHURN:
                assert raw.counters.get("faults.tx_suppressed") > 0

    def test_frame_rx_counts_match_delivery_counters(self):
        rec = TraceRecorder()
        raw = _run("BMMM", subscribers=[rec])
        from_trace = frame_type_counts(rec.events, etype="frame_rx")
        from_counters = {
            key.split(".", 1)[1]: n
            for key, n in raw.counters.total.items()
            if key.startswith("frames_delivered.") and n
        }
        assert from_trace == from_counters

    def test_collision_events_match_counter(self):
        rec = TraceRecorder()
        raw = _run("BMW", subscribers=[rec])
        assert len(rec.by_type("collision")) == raw.counters.get("collisions")
        assert len(rec.by_type("capture")) == raw.counters.get("captures")

    def test_payloads_are_json_safe(self):
        rec = TraceRecorder()
        _run("LAMM", subscribers=[rec])
        for event in rec.events:
            json.dumps(event_to_record(event))


class TestObservationIsInert:
    def test_observed_run_is_bit_identical(self):
        """Attaching subscribers must not perturb RNG streams or timing.

        ``msg_id``s come from a process-global counter, so two runs in one
        process never share ids; compare everything *except* the ids.
        """
        bare = _run("BMMM")
        observed = _run("BMMM", subscribers=[TraceRecorder()])
        assert observed.counters == bare.counters

        def shape(raw):
            m = raw.metrics()
            scores = [
                (s.kind, s.status, s.n_dests, s.n_delivered,
                 s.completion_time, s.service_time, s.contention_phases, s.rounds)
                for s in m.all_scores
            ]
            return (m.delivery_rate, m.n_requests, m.n_successful,
                    m.frames_sent, m.counters, scores)

        assert shape(observed) == shape(bare)

    def test_counters_always_collected(self):
        raw = _run("BMMM")  # no subscribers at all
        assert raw.counters.get("frames_sent.RTS") > 0
        assert raw.counters.get("contention_phases") > 0


class TestCountersFlow:
    def test_run_metrics_carries_flat_totals(self):
        raw = _run("BMMM")
        metrics = raw.metrics()
        assert metrics.counters == dict(raw.counters.total)

    def test_timings_and_manifest(self):
        raw = _run("LAMM")
        assert set(raw.timings) == {"build", "inject", "simulate"}
        manifest = raw.manifest(protocol="LAMM")
        assert manifest.protocol == "LAMM"
        assert manifest.seed == raw.seed
        assert manifest.settings["n_nodes"] == SMALL.n_nodes
        assert manifest.n_requests == len(raw.requests)
        assert manifest.counters == dict(raw.counters.total)
        assert manifest.slots_per_sec is None or manifest.slots_per_sec > 0

    def test_protocol_specific_counters(self):
        raw = _run("BMMM")
        assert raw.counters.get("batch_rounds") > 0
        assert raw.counters.get("rak_polls") > 0
        lamm = _run("LAMM")
        assert lamm.counters.get("lamm.updates") > 0


class TestJsonlReplay:
    def test_recorded_trace_replays_to_same_lanes(self, tmp_path):
        """The lane diagram is one renderer over the trace: rendering from
        the live event stream and from a recorded JSONL file must agree."""
        from repro.experiments.runner import build_network
        from repro.workload.generator import TrafficGenerator

        mac_cls, kwargs = protocol_class("BMMM")
        net = build_network(mac_cls, SMALL, 0, kwargs)
        air = air_log(net.env)
        path = tmp_path / "run.jsonl"
        with JsonlTraceWriter(path) as writer:
            net.env.obs.subscribe(writer)
            TrafficGenerator(
                SMALL.n_nodes,
                net.propagation.neighbors,
                horizon=SMALL.horizon,
                message_rate=SMALL.message_rate,
                mix=SMALL.mix,
                seed=0,
            ).inject(net)
            net.run(until=SMALL.horizon)
        replayed = transmissions_from_trace(load_trace(path))
        assert lane_diagram(replayed) == lane_diagram(air())

    def test_replay_keeps_on_air_airtime_and_mcs(self):
        """Multi-rate frames replay at the airtime they had on the air
        (a 3-slot MCS-1 DATA frame is not rebuilt at Table 2's 5 slots),
        and only frames above the base rate carry ``mcs`` in the trace."""
        rec = TraceRecorder()
        mac_cls, mac_kwargs = protocol_class("RAM")
        run_raw(mac_cls, MILD, 0, mac_kwargs, subscribers=[rec])
        replayed = transmissions_from_trace(rec.events)
        for tx in replayed:
            assert tx.frame.airtime == tx.end - tx.start
        data = [tx for tx in replayed if tx.frame.ftype is FrameType.DATA]
        fast = [tx for tx in data if tx.frame.mcs]
        assert fast and len(fast) < len(data)
        for tx in data:
            assert tx.frame.airtime == MILD.phy.data_airtime(tx.frame.mcs)
        sent = rec.by_type("frame_tx")
        assert sum("mcs" in e.data for e in sent) == len(fast)

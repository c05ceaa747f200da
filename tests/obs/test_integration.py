"""End-to-end observability tests on real simulation runs.

These pin the acceptance criteria of the observability layer: the JSONL
trace, the always-on counters, and the channel's ``ChannelStats`` must
all agree with each other, and observing a run must not change it.
"""

import json

from repro.experiments.config import SimulationSettings, protocol_class
from repro.experiments.runner import run_raw
from repro.obs.trace import (
    JsonlTraceWriter,
    TraceRecorder,
    event_to_record,
    frame_type_counts,
    lane_diagram,
    load_trace,
    transmissions_from_trace,
)

SMALL = SimulationSettings(n_nodes=20, horizon=800, message_rate=0.003)


def _run(name="BMMM", seed=0, **kwargs):
    mac_cls, mac_kwargs = protocol_class(name)
    return run_raw(mac_cls, SMALL, seed, mac_kwargs, **kwargs)


class TestTraceMatchesGroundTruth:
    def test_frame_tx_counts_match_stats_and_counters(self):
        """Acceptance: per-frame-type trace counts == ChannelStats ==
        counter totals, for every simulated protocol."""
        for name in ("BMMM", "LAMM", "BMW", "BSMA"):
            rec = TraceRecorder()
            raw = _run(name, subscribers=[rec])
            from_trace = frame_type_counts(rec.events)
            from_stats = {
                ft.value: n for ft, n in raw.stats.frames_sent.items() if n
            }
            from_counters = {
                key.split(".", 1)[1]: n
                for key, n in raw.counters.total.items()
                if key.startswith("frames_sent.") and n
            }
            assert from_trace == from_stats == from_counters, name

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
        the channel's tx_log and from a recorded JSONL file must agree."""
        from repro.experiments.runner import build_network
        from repro.workload.generator import TrafficGenerator

        mac_cls, kwargs = protocol_class("BMMM")
        net = build_network(mac_cls, SMALL, 0, kwargs, record_transmissions=True)
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
        assert lane_diagram(replayed) == lane_diagram(net.channel.tx_log)

"""Tests for JSONL trace persistence (repro.obs.trace)."""

import io
import json

import pytest

from repro.obs.events import SimEvent
from repro.obs.trace import (
    META_ETYPE,
    TRACE_SCHEMA_VERSION,
    JsonlTraceWriter,
    TraceRecorder,
    event_to_record,
    frame_type_counts,
    lane_diagram,
    load_trace,
    record_to_event,
    transmissions_from_trace,
)

EVENTS = [
    SimEvent("frame_tx", 10.0, 2, {"ftype": "RTS", "src": 2, "ra": 5, "end": 11.0}),
    SimEvent("collision", 11.0, 5, {"k": 2}),
    SimEvent("frame_tx", 14.0, 2, {"ftype": "DATA", "src": 2, "ra": 5, "end": 19.0}),
]


class TestRecordRoundtrip:
    def test_event_to_record_flattens_payload(self):
        rec = event_to_record(EVENTS[0])
        assert rec["t"] == 10.0 and rec["e"] == "frame_tx" and rec["node"] == 2
        assert rec["ftype"] == "RTS"

    def test_record_to_event_inverts(self):
        for event in EVENTS:
            assert record_to_event(event_to_record(event)) == event


class TestWriterAndLoader:
    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "sub" / "trace.jsonl"
        with JsonlTraceWriter(path) as writer:
            for event in EVENTS:
                writer(event)
        assert writer.n_events == len(EVENTS)
        assert load_trace(path) == EVENTS

    def test_header_record(self, tmp_path):
        path = tmp_path / "t.jsonl"
        JsonlTraceWriter(path).close()
        first = json.loads(path.read_text().splitlines()[0])
        assert first["e"] == META_ETYPE
        assert first["schema"] == TRACE_SCHEMA_VERSION
        assert first["package"] == "repro"
        # meta is dropped by default, kept on request
        assert load_trace(path) == []
        assert load_trace(path, include_meta=True)[0].etype == META_ETYPE

    def test_file_like_target(self):
        buf = io.StringIO()
        writer = JsonlTraceWriter(buf, header=False)
        writer(EVENTS[0])
        writer.close()  # flushes, does not close a borrowed handle
        buf.seek(0)
        assert load_trace(buf) == [EVENTS[0]]

    def test_every_line_is_json(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlTraceWriter(path) as writer:
            for event in EVENTS:
                writer(event)
        for line in path.read_text().splitlines():
            json.loads(line)


class TestLoaderValidation:
    def test_rejects_bad_json(self):
        with pytest.raises(ValueError, match="line 1"):
            load_trace(io.StringIO("{not json\n"))

    def test_rejects_missing_keys(self):
        with pytest.raises(ValueError, match="missing required keys"):
            load_trace(io.StringIO('{"e": "x"}\n'))

    def test_rejects_wrong_schema(self):
        line = json.dumps({"t": 0.0, "e": META_ETYPE, "node": None, "schema": 99})
        with pytest.raises(ValueError, match="unsupported trace schema"):
            load_trace(io.StringIO(line + "\n"))

    def test_skips_blank_lines(self):
        rec = json.dumps(event_to_record(EVENTS[1]))
        assert load_trace(io.StringIO("\n" + rec + "\n\n")) == [EVENTS[1]]


class TestTruncatedTail:
    """A writer killed mid-write leaves a partial, newline-less last line;
    the loader must keep everything before it and flag the tail instead
    of raising (same contract as the telemetry loader)."""

    def _text(self):
        return "".join(json.dumps(event_to_record(e)) + "\n" for e in EVENTS)

    def test_partial_final_line_tolerated(self):
        text = self._text()
        last = json.dumps(event_to_record(EVENTS[-1]))
        mangled = text + last[: len(last) // 2]  # no trailing newline
        events = load_trace(io.StringIO(mangled))
        assert events == EVENTS
        assert events.truncated

    def test_clean_file_not_truncated(self):
        events = load_trace(io.StringIO(self._text()))
        assert events == EVENTS
        assert not events.truncated

    def test_unterminated_but_parseable_final_line_kept(self):
        # Killed between the record write and its newline: the record is
        # whole, only the terminator is missing.  Keep it, flag the tail.
        events = load_trace(io.StringIO(self._text().rstrip("\n")))
        assert events == EVENTS
        assert events.truncated

    def test_partial_line_missing_keys_dropped(self):
        mangled = self._text() + '{"e": "frame_tx"}'
        events = load_trace(io.StringIO(mangled))
        assert events == EVENTS
        assert events.truncated

    def test_malformed_inner_line_still_raises(self):
        # Corruption *with* a terminating newline is not a kill signature.
        text = self._text() + "{not json\n"
        with pytest.raises(ValueError, match=f"line {len(EVENTS) + 1}"):
            load_trace(io.StringIO(text))

    def test_loader_returns_plain_list_behavior(self):
        events = load_trace(io.StringIO(self._text()))
        assert isinstance(events, list)
        assert [e.etype for e in events] == ["frame_tx", "collision", "frame_tx"]


class TestHelpers:
    def test_frame_type_counts(self):
        assert frame_type_counts(EVENTS) == {"RTS": 1, "DATA": 1}
        assert frame_type_counts(EVENTS, etype="frame_rx") == {}

    def test_transmissions_from_trace(self):
        txs = transmissions_from_trace(EVENTS)
        assert len(txs) == 2  # collision event is not a transmission
        rts = txs[0]
        assert rts.sender == 2 and rts.start == 10.0 and rts.end == 11.0
        assert rts.frame.ftype.value == "RTS" and rts.frame.ra == 5

    def test_trace_feeds_lane_diagram(self):
        out = lane_diagram(transmissions_from_trace(EVENTS))
        assert "node   2" in out and "R" in out and "D" in out

    def test_recorder(self):
        rec = TraceRecorder()
        for event in EVENTS:
            rec(event)
        assert len(rec) == 3
        assert [e.etype for e in rec.by_type("frame_tx")] == ["frame_tx", "frame_tx"]

"""Tests for the campaign telemetry stream (repro.obs.telemetry)."""

import io
import json

import pytest

from repro.obs.telemetry import (
    TELEMETRY_META_ETYPE,
    TELEMETRY_SCHEMA_VERSION,
    CampaignTelemetry,
    cell_key,
    load_telemetry,
    render_telemetry,
    span_summary,
)


class FakeResult:
    """The JobResult surface the emitter reads (point/protocol/seed/...)."""

    def __init__(self, point=0, protocol="BMMM", seed=0, **kw):
        self.point = point
        self.protocol = protocol
        self.seed = seed
        self.timings = kw.pop("timings", {"build": 0.1, "inject": 0.05, "simulate": 0.4})
        self.worker = kw.pop("worker", 4242)
        self.started_at = kw.pop("started_at", 1000.0)
        self.cache_hit = kw.pop("cache_hit", False)
        assert not kw


def emit_campaign(n_jobs=2, close=True, result=None):
    buf = io.StringIO()
    telemetry = CampaignTelemetry(
        buf, campaign="t", n_jobs=n_jobs, point_slots=[500.0], extra={"profile": False}
    )
    telemetry.store_scan(0, n_jobs)
    for seed in range(n_jobs):
        telemetry.job_done(FakeResult(seed=seed))
    if close:
        telemetry.close(result)
    return buf.getvalue()


class TestCellKey:
    def test_shape(self):
        assert cell_key(2, "LAMM", 17) == "p2:LAMM:s17"


class TestEmitter:
    def test_meta_header_first(self):
        text = emit_campaign()
        first = json.loads(text.splitlines()[0])
        assert first["e"] == TELEMETRY_META_ETYPE
        assert first["schema"] == TELEMETRY_SCHEMA_VERSION
        assert first["campaign"] == "t"
        assert first["campaign_id"].startswith("t-")
        assert first["n_jobs"] == 2

    def test_every_line_is_json(self):
        for line in emit_campaign().splitlines():
            json.loads(line)

    def test_spans_carry_worker_timings(self):
        stream = load_telemetry(io.StringIO(emit_campaign(n_jobs=1)))
        spans = stream.spans()
        assert {s["phase"] for s in spans} == {"build", "inject", "simulate"}
        assert all(s["cell"] == "p0:BMMM:s0" for s in spans)
        assert all(s["worker"] == 4242 for s in spans)
        # t0 offsets chain build -> inject -> simulate off started_at.
        by_phase = {s["phase"]: s for s in spans}
        assert by_phase["build"]["t0"] == pytest.approx(1000.0)
        assert by_phase["inject"]["t0"] == pytest.approx(1000.1)
        assert by_phase["simulate"]["t0"] == pytest.approx(1000.15)

    def test_commit_span(self):
        buf = io.StringIO()
        telemetry = CampaignTelemetry(buf, campaign="t", n_jobs=1)
        telemetry.job_done(FakeResult(), commit_s=0.02)
        telemetry.close()
        stream = load_telemetry(io.StringIO(buf.getvalue()))
        commits = [s for s in stream.spans() if s["phase"] == "commit"]
        assert len(commits) == 1
        assert commits[0]["dur_s"] == pytest.approx(0.02)

    def test_store_served_cells_emit_no_spans(self):
        buf = io.StringIO()
        telemetry = CampaignTelemetry(buf, campaign="t", n_jobs=1)
        telemetry.store_scan(1, 0)
        telemetry.job_done(FakeResult(), stored=True)
        telemetry.close()
        stream = load_telemetry(io.StringIO(buf.getvalue()))
        assert stream.spans() == []
        assert stream.last_progress["store_served"] == 1

    def test_end_record_marks_completion(self):
        stream = load_telemetry(io.StringIO(emit_campaign()))
        assert stream.completed
        end = stream.by_type("end")[-1]
        assert end["done"] == 2 and end["total"] == 2

    def test_exception_leaves_stream_without_end(self):
        buf = io.StringIO()
        with pytest.raises(RuntimeError):
            with CampaignTelemetry(buf, campaign="t", n_jobs=2) as telemetry:
                telemetry.job_done(FakeResult())
                raise RuntimeError("killed mid-campaign")
        stream = load_telemetry(io.StringIO(buf.getvalue()))
        assert not stream.completed
        assert stream.spans()  # what finished before the crash survived

    def test_progress_tracks_counts(self):
        stream = load_telemetry(io.StringIO(emit_campaign()))
        progress = stream.last_progress
        assert progress["done"] == 2
        assert progress["pending"] == 0
        assert progress["eta_s"] == 0.0

    def test_worker_heartbeats(self):
        stream = load_telemetry(io.StringIO(emit_campaign()))
        beats = stream.by_type("worker")
        assert beats
        assert beats[-1]["worker"] == 4242
        assert beats[-1]["jobs_done"] == 2
        assert beats[-1]["last"] == "p0:BMMM:s1"

    def test_file_target_creates_parents(self, tmp_path):
        path = tmp_path / "deep" / "t.jsonl"
        CampaignTelemetry(path, campaign="t", n_jobs=0).close()
        assert load_telemetry(path).completed


class TestLoader:
    def test_truncated_tail_is_tolerated(self):
        """Satellite: a writer killed mid-write leaves a partial last line."""
        full = emit_campaign()
        lines = full.splitlines()
        # Chop the final line mid-record, no trailing newline.
        mangled = "\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2]
        stream = load_telemetry(io.StringIO(mangled))
        assert stream.truncated
        # Everything before the tail round-trips.
        intact = load_telemetry(io.StringIO("\n".join(lines[:-1]) + "\n"))
        assert stream.records == intact.records
        assert stream.meta == intact.meta

    def test_unterminated_but_parseable_final_line_kept(self):
        # Killed between the record write and its newline: the record is
        # whole, only the terminator is missing.  Keep it, flag the tail
        # -- the same contract as load_trace.
        full = emit_campaign()
        stream = load_telemetry(io.StringIO(full.rstrip("\n")))
        assert stream.truncated
        intact = load_telemetry(io.StringIO(full))
        assert stream.records == intact.records
        assert stream.meta == intact.meta
        assert stream.completed

    def test_empty_unterminated_tail_not_truncated(self):
        # A trailing newline then EOF is a *clean* kill point.
        stream = load_telemetry(io.StringIO(emit_campaign()))
        assert not stream.truncated

    def test_malformed_complete_line_raises(self):
        with pytest.raises(ValueError, match="line 1"):
            load_telemetry(io.StringIO("{not json\n"))

    def test_complete_line_missing_e_raises(self):
        with pytest.raises(ValueError, match="line 1"):
            load_telemetry(io.StringIO('{"tw": 0.0}\n'))

    def test_wrong_schema_raises(self):
        line = json.dumps({"e": TELEMETRY_META_ETYPE, "tw": 0.0, "schema": 99})
        with pytest.raises(ValueError, match="unsupported telemetry schema"):
            load_telemetry(io.StringIO(line + "\n"))

    def test_empty_stream(self):
        stream = load_telemetry(io.StringIO(""))
        assert stream.meta is None
        assert stream.records == []
        assert not stream.truncated and not stream.completed


class TestSpanSummary:
    SPANS = [
        {"cell": "p0:BMMM:s0", "phase": "simulate", "dur_s": 2.0, "worker": 1},
        {"cell": "p0:BMMM:s0", "phase": "build", "dur_s": 0.5, "worker": 1},
        {"cell": "p0:LAMM:s0", "phase": "simulate", "dur_s": 3.0, "worker": 2},
    ]

    def test_aggregates(self):
        summary = span_summary(self.SPANS)
        assert summary["n_spans"] == 3
        assert summary["per_phase_s"] == {"simulate": 5.0, "build": 0.5}
        assert summary["per_worker"]["1"] == {"spans": 2, "seconds": 2.5}
        assert summary["stragglers"][0]["cell"] == "p0:LAMM:s0"

    def test_top_n(self):
        assert len(span_summary(self.SPANS, top_n=1)["stragglers"]) == 1


class TestRender:
    def test_completed_stream(self):
        out = render_telemetry(load_telemetry(io.StringIO(emit_campaign())))
        assert "campaign 't'" in out
        assert "completed" in out
        assert "2/2 cells" in out
        assert "span phases:" in out
        assert "pid 4242" in out

    def test_running_stream(self):
        text = emit_campaign(close=False)
        out = render_telemetry(load_telemetry(io.StringIO(text)))
        assert "running" in out

    def test_truncated_stream(self):
        text = emit_campaign(close=False) + '{"e": "prog'
        out = render_telemetry(load_telemetry(io.StringIO(text)))
        assert "interrupted" in out

    def test_empty_stream(self):
        assert "empty stream" in render_telemetry(load_telemetry(io.StringIO("")))

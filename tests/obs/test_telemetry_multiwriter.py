"""Multi-writer telemetry: worker streams folded into one campaign stream.

The ISSUE 9 watch fix: with per-worker heartbeat streams interleaved
into the coordinator's stream, ``load_telemetry`` / ``repro-mac watch``
must tolerate worker-scoped records -- a worker's ``end`` must not flip
``.completed``, a worker's meta must not displace the campaign's, and
the rendered view labels workers by their cross-host ids.
"""

import io
import json

from repro.obs.telemetry import (
    CampaignTelemetry,
    load_telemetry,
    render_telemetry,
)

from tests.obs.test_telemetry import FakeResult


def _worker_record(e="worker", pid=7001, wid="hostA-7001", **fields):
    rec = {"e": e, "tw": 1000.0, "worker": pid, "id": wid}
    rec.update(fields)
    return rec


def _campaign(n_jobs=2):
    buf = io.StringIO()
    telemetry = CampaignTelemetry(
        buf, campaign="c", n_jobs=n_jobs, point_slots=[500.0]
    )
    return buf, telemetry


class TestFold:
    def test_worker_heartbeat_appears_in_stream_and_progress(self):
        buf, telemetry = _campaign()
        telemetry.fold(
            _worker_record(jobs_done=3, simulate_s=1.5, last="p0:BMW:s1", leased=2)
        )
        telemetry.close()
        records = [json.loads(line) for line in buf.getvalue().splitlines()]
        beats = [r for r in records if r.get("e") == "worker"]
        assert beats and beats[0]["id"] == "hostA-7001"
        # The close-time progress flush re-emits the folded bookkeeping.
        final = {r["worker"]: r for r in beats}
        assert final[7001]["jobs_done"] == 3
        assert final[7001]["id"] == "hostA-7001"
        assert final[7001]["leased"] == 2

    def test_fold_skips_meta_end_and_progress(self):
        """Worker stream framing must not leak into the campaign stream:
        a folded meta would confuse the loader, a folded end would mark
        the campaign complete while cells are still pending."""
        buf, telemetry = _campaign()
        telemetry.fold(_worker_record(e="telemetry.meta", schema=1, scope="worker"))
        telemetry.fold(_worker_record(e="end", scope="worker", done=4))
        telemetry.fold({"e": "progress", "tw": 0.0, "done": 9})
        telemetry.close()
        records = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert sum(1 for r in records if r.get("e") == "telemetry.meta") == 1
        ends = [r for r in records if r.get("e") == "end"]
        assert len(ends) == 1 and ends[0]["scope"] == "campaign"

    def test_folded_heartbeat_is_authoritative_over_span_bookkeeping(self):
        """Span records derive per-worker totals; a later heartbeat from
        the worker itself (which knows its true jobs_done across
        batches) wins."""
        buf, telemetry = _campaign()
        telemetry.job_done(FakeResult(worker=7001))
        telemetry.fold(_worker_record(jobs_done=5, simulate_s=9.0, last="p1:LBP:s0"))
        telemetry.close()
        records = [json.loads(line) for line in buf.getvalue().splitlines()]
        final = {r["worker"]: r for r in records if r.get("e") == "worker"}
        assert final[7001]["jobs_done"] == 5
        assert final[7001]["simulate_s"] == 9.0


class TestCompletedSemantics:
    def test_worker_end_does_not_complete_the_stream(self, tmp_path):
        path = tmp_path / "t.jsonl"
        telemetry = CampaignTelemetry(path, campaign="c", n_jobs=2)
        telemetry.fold(_worker_record())
        # A worker finished and its end record was (wrongly or
        # historically) appended to the campaign file: still live.
        telemetry.event("end", scope="worker", worker=7001, id="hostA-7001", done=4)
        assert load_telemetry(path).completed is False
        telemetry.close()
        assert load_telemetry(path).completed is True

    def test_campaign_end_scope_is_explicit(self, tmp_path):
        path = tmp_path / "t.jsonl"
        CampaignTelemetry(path, campaign="c", n_jobs=0).close()
        stream = load_telemetry(path)
        ends = [r for r in stream.records if r.get("e") == "end"]
        assert ends[0]["scope"] == "campaign"

    def test_legacy_end_without_scope_still_completes(self, tmp_path):
        """Streams written before the scope field must keep rendering as
        completed -- scope defaults to campaign."""
        path = tmp_path / "t.jsonl"
        CampaignTelemetry(path, campaign="c", n_jobs=0).close()
        lines = path.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        records[-1].pop("scope")
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        assert load_telemetry(path).completed is True


class TestLoaderInterleaving:
    def test_first_meta_wins(self, tmp_path):
        """Concatenated / interleaved streams (two writers sharing one
        file) keep the first campaign identity."""
        path = tmp_path / "t.jsonl"
        CampaignTelemetry(path, campaign="first", n_jobs=1).close()
        with path.open("a") as fh:
            second = io.StringIO()
            CampaignTelemetry(second, campaign="second", n_jobs=1).close()
            fh.write(second.getvalue())
        stream = load_telemetry(path)
        assert stream.meta["campaign"] == "first"
        # The second header is preserved as a plain record, not dropped.
        later = [r for r in stream.records if r.get("e") == "telemetry.meta"]
        assert len(later) == 1 and later[0]["campaign"] == "second"

    def test_truncated_worker_tail_is_tolerated(self, tmp_path):
        """A killed worker leaves a half-written last line; the fold
        loader must keep every complete record."""
        path = tmp_path / "t.jsonl"
        telemetry = CampaignTelemetry(path, campaign="c", n_jobs=2)
        telemetry.fold(_worker_record(jobs_done=1))
        telemetry.close()
        text = path.read_text()
        path.write_text(text + '{"e": "worker", "tw": 12')  # mid-record kill
        stream = load_telemetry(path)
        assert any(r.get("e") == "worker" for r in stream.records)


class TestRenderMultiWorker:
    def test_workers_labelled_by_id_and_reclaims_surfaced(self):
        buf, telemetry = _campaign()
        telemetry.fold(
            _worker_record(jobs_done=2, simulate_s=1.0, last="p0:BMW:s0", leased=1)
        )
        telemetry.fold(
            _worker_record(
                pid=7002, wid="hostB-7002", jobs_done=1, simulate_s=0.5,
                last="p0:LBP:s0", leased=0,
            )
        )
        telemetry.event("lease.reclaimed", n=3, campaign="c")
        telemetry.close()
        stream = load_telemetry(io.StringIO(buf.getvalue()))
        out = render_telemetry(stream)
        assert "hostA-7001" in out and "hostB-7002" in out
        assert "workers (2)" in out
        assert "leases reclaimed from dead workers: 3" in out

    def test_single_writer_render_unchanged(self):
        """No worker streams folded: the classic pid labelling stays."""
        buf, telemetry = _campaign()
        telemetry.job_done(FakeResult(worker=4242))
        telemetry.close()
        stream = load_telemetry(io.StringIO(buf.getvalue()))
        out = render_telemetry(stream)
        assert "pid 4242" in out
        assert "reclaimed" not in out

"""Tests for message scoring and run aggregation."""

import pytest

from repro.mac.base import MacRequest, MessageKind, MessageStatus
from repro.metrics.aggregate import score_request, summarize_run
from repro.sim.channel import ChannelStats


def make_req(kind=MessageKind.MULTICAST, dests={1, 2, 3}, status=MessageStatus.COMPLETED,
             arrival=0.0, finish=50.0, phases=2, rounds=1):
    req = MacRequest(
        src=0, kind=kind, dests=frozenset(dests), arrival=arrival,
        deadline=arrival + 100, seq=1,
    )
    req.status = status
    req.finish_time = finish
    req.contention_phases = phases
    req.rounds = rounds
    return req


def stats_with(msg_id, receivers):
    st = ChannelStats()
    st.data_receipts[msg_id] = set(receivers)
    return st


class TestMessageScore:
    def test_delivered_fraction(self):
        req = make_req()
        st = stats_with(req.msg_id, {1, 2})
        score = score_request(req, st)
        assert score.delivered_fraction == pytest.approx(2 / 3)

    def test_bystander_receipts_ignored(self):
        req = make_req(dests={1})
        st = stats_with(req.msg_id, {1, 7, 8})
        assert score_request(req, st).n_delivered == 1

    def test_success_requires_completion(self):
        req = make_req(status=MessageStatus.TIMED_OUT)
        st = stats_with(req.msg_id, {1, 2, 3})
        score = score_request(req, st)
        # Full delivery but timed out: unsuccessful (Section 7's rule).
        assert not score.successful(0.9)

    def test_success_requires_threshold(self):
        req = make_req()
        st = stats_with(req.msg_id, {1, 2})  # 2/3 < 0.9
        assert not score_request(req, st).successful(0.9)
        assert score_request(req, st).successful(0.6)

    def test_threshold_boundary_inclusive(self):
        req = make_req(dests={1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
        st = stats_with(req.msg_id, set(range(1, 10)))  # exactly 90%
        assert score_request(req, st).successful(0.9)

    def test_completion_time(self):
        req = make_req(arrival=10.0, finish=60.0)
        st = stats_with(req.msg_id, {1, 2, 3})
        assert score_request(req, st).completion_time == 50.0

    def test_no_receipts_zero_delivered(self):
        req = make_req()
        assert score_request(req, ChannelStats()).n_delivered == 0


class TestSummarizeRun:
    def test_counts(self):
        reqs = [
            make_req(),
            make_req(status=MessageStatus.TIMED_OUT),
            make_req(kind=MessageKind.UNICAST, dests={1}),
        ]
        st = ChannelStats()
        for r in reqs:
            st.data_receipts[r.msg_id] = set(r.dests)
        m = summarize_run(reqs, st, threshold=0.9)
        assert m.n_requests == 3
        assert m.n_successful == 2
        assert m.n_timed_out == 1
        assert m.delivery_rate == pytest.approx(2 / 3)

    def test_group_scores_exclude_unicast(self):
        reqs = [make_req(), make_req(kind=MessageKind.UNICAST, dests={1})]
        st = ChannelStats()
        for r in reqs:
            st.data_receipts[r.msg_id] = set(r.dests)
        m = summarize_run(reqs, st)
        assert len(m.group_scores) == 1
        assert len(m.all_scores) == 2

    def test_unserved_excluded_by_default(self):
        pending = make_req(status=MessageStatus.QUEUED)
        m = summarize_run([pending], ChannelStats())
        assert m.n_requests == 0

    def test_unserved_included_on_request(self):
        pending = make_req(status=MessageStatus.QUEUED)
        m = summarize_run([pending], ChannelStats(), include_unserved=True)
        assert m.n_requests == 1
        assert m.n_successful == 0

    def test_avg_contention_phases(self):
        reqs = [make_req(phases=1), make_req(phases=5)]
        st = ChannelStats()
        for r in reqs:
            st.data_receipts[r.msg_id] = set(r.dests)
        assert summarize_run(reqs, st).avg_contention_phases == 3.0

    def test_avg_completion_time_only_completed(self):
        reqs = [
            make_req(arrival=0, finish=30),
            make_req(status=MessageStatus.TIMED_OUT, arrival=0, finish=100),
        ]
        st = ChannelStats()
        for r in reqs:
            st.data_receipts[r.msg_id] = set(r.dests)
        assert summarize_run(reqs, st).avg_completion_time == 30.0

    def test_empty_run(self):
        m = summarize_run([], ChannelStats())
        assert m.delivery_rate == 0.0
        assert m.avg_contention_phases == 0.0
        assert m.avg_completion_time == 0.0

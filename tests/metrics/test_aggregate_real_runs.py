"""Cross-checks of the metric aggregation against hand computation over a
real simulation run (the unit tests use synthetic requests; these make
sure the plumbing from simulator to metrics is faithful end-to-end)."""

from statistics import mean

import pytest

from repro.experiments.config import SimulationSettings, protocol_class
from repro.experiments.runner import MeanMetrics, run_raw
from repro.mac.base import MessageKind, MessageStatus

SMALL = SimulationSettings(n_nodes=25, horizon=1500, message_rate=0.002)
BUSY = SMALL.with_(n_nodes=60)


@pytest.fixture(scope="module")
def raw():
    mac_cls, kwargs = protocol_class("BMMM")
    return run_raw(mac_cls, SMALL, seed=4, mac_kwargs=kwargs)


class TestEndToEndAggregation:
    def test_delivery_rate_manual_recount(self, raw):
        m = raw.metrics()
        manual = 0
        counted = 0
        for req in raw.requests:
            if req.status not in (
                MessageStatus.COMPLETED,
                MessageStatus.TIMED_OUT,
                MessageStatus.ABANDONED,
            ):
                continue
            counted += 1
            if req.status is MessageStatus.COMPLETED:
                got = raw.stats.data_receipts.get(req.msg_id, set())
                if len(got & req.dests) / len(req.dests) >= 0.9 - 1e-12:
                    manual += 1
        assert m.n_requests == counted
        assert m.delivery_rate == pytest.approx(manual / counted)

    def test_avg_completion_manual_recount(self, raw):
        m = raw.metrics()
        times = [
            req.finish_time - req.arrival
            for req in raw.requests
            if req.status is MessageStatus.COMPLETED
            and req.kind is not MessageKind.UNICAST
        ]
        assert m.avg_completion_time == pytest.approx(mean(times))

    def test_avg_phases_manual_recount(self, raw):
        m = raw.metrics()
        phases = [
            req.contention_phases
            for req in raw.requests
            if req.kind is not MessageKind.UNICAST
            and req.status
            in (MessageStatus.COMPLETED, MessageStatus.TIMED_OUT, MessageStatus.ABANDONED)
        ]
        assert m.avg_contention_phases == pytest.approx(mean(phases))

    def test_service_time_includes_timeouts(self, raw):
        m = raw.metrics()
        assert m.avg_service_time >= m.avg_completion_time - 1e-9 or m.n_timed_out == 0

    def test_mean_metrics_std_zero_for_identical_runs(self, raw):
        m = raw.metrics()
        mm = MeanMetrics.from_runs([m, m], [raw.average_degree] * 2)
        assert mm.delivery_rate == m.delivery_rate
        assert mm.delivery_rate_std == 0.0
        assert mm.n_runs == 2


class TestFrameOverheadAccounting:
    def test_frames_sent_snapshot_present(self, raw):
        m = raw.metrics()
        assert m.frames_sent.get("RTS", 0) > 0
        assert m.frames_sent.get("DATA", 0) > 0

    def test_control_frames_exclude_data(self, raw):
        m = raw.metrics()
        assert m.control_frames == sum(
            v for k, v in m.frames_sent.items() if k != "DATA"
        )
        assert m.control_frames_per_message > 0

    def test_lamm_cheaper_than_bmmm_in_control_frames(self):
        """Section 5's point, as a metric: LAMM spends fewer control
        frames per message than BMMM on identical workloads."""
        per_msg = {}
        for proto in ("BMMM", "LAMM"):
            mac_cls, kwargs = protocol_class(proto)
            vals = [
                run_raw(mac_cls, SMALL, seed, kwargs).metrics().control_frames_per_message
                for seed in range(2)
            ]
            per_msg[proto] = mean(vals)
        assert per_msg["LAMM"] < per_msg["BMMM"]


class TestRescoring:
    """``RunMetrics.delivery_rate_at`` is the Figure 8 re-scoring rule: it
    must equal a full re-score at that threshold, also for the
    ``JobResult`` the results store keeps (pickled)."""

    @pytest.fixture(scope="class")
    def job_and_raw(self):
        import pickle

        from repro.experiments.sweep import SweepJob, run_job

        # BSMA completes without delivering, so on a busy enough network
        # its rate moves with the threshold and the check is not vacuous.
        job = SweepJob(point=0, protocol="BSMA", seed=4, settings=BUSY)
        stored = pickle.loads(pickle.dumps(run_job(job)))
        mac_cls, kwargs = protocol_class("BSMA")
        return stored, run_raw(mac_cls, BUSY, seed=4, mac_kwargs=kwargs)

    def test_equals_rescored_run_at_every_threshold(self, job_and_raw):
        from repro.experiments.figures import THRESHOLD_SWEEP
        from repro.metrics.aggregate import summarize_run

        stored, raw = job_and_raw
        thresholds = (*THRESHOLD_SWEEP, 0.0, BUSY.threshold)
        rates = []
        for th in thresholds:
            expected = summarize_run(raw.requests, raw.stats, threshold=th).delivery_rate
            assert stored.metrics.delivery_rate_at(th) == expected, th
            rates.append(expected)
        assert len(set(rates)) > 1, "threshold never changed the score"
        assert stored.metrics.delivery_rate_at(BUSY.threshold) == stored.metrics.delivery_rate

    def test_no_requests_scores_zero(self):
        from repro.metrics.aggregate import RunMetrics

        assert RunMetrics(threshold=0.9).delivery_rate_at(0.5) == 0.0

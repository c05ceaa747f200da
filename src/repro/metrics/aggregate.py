"""Scoring rules and aggregation for the paper's metrics.

Section 7 defines the metrics exactly:

* **successful delivery rate** -- "the number of successful message
  transmissions divided by the total number of requests", where a
  transmission is successful iff it reaches at least the *reliability
  threshold* fraction of its intended receivers **and** does not time out
  before completion ("If a multicast message either reaches less than the
  reliability threshold of the intended receivers or times out before
  completion, the transmission is considered unsuccessful").
* **average number of contention phases** per message (Figure 9);
* **average message completion time** (Figure 10), over completed messages.

Delivery is scored against the *channel's ground truth* (which receivers
actually decoded the DATA frame), not against what the protocol believes --
this is what exposes BSMA's "complete but undelivered" behaviour the paper
discusses in Section 7.3.

The reliability threshold enters only at scoring time, so Figure 8's
threshold sweep re-scores a single set of runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import mean
from typing import Iterable

from repro.mac.base import MacRequest, MessageKind, MessageStatus
from repro.obs.counters import Counters
from repro.sim.channel import ChannelStats
from repro.sim.frames import FrameType

__all__ = ["MessageScore", "RunMetrics", "score_request", "summarize_run"]


@dataclass(frozen=True)
class MessageScore:
    """Outcome of one request, combining protocol view and ground truth."""

    msg_id: int
    kind: MessageKind
    status: MessageStatus
    n_dests: int
    n_delivered: int
    completion_time: float | None
    #: Arrival-to-finish time regardless of outcome (timeouts included).
    service_time: float
    contention_phases: int
    rounds: int

    @property
    def delivered_fraction(self) -> float:
        return self.n_delivered / self.n_dests if self.n_dests else 0.0

    def successful(self, threshold: float) -> bool:
        """The paper's success rule: completed in time AND delivered to at
        least *threshold* of the intended receivers."""
        if self.status is not MessageStatus.COMPLETED:
            return False
        return self.delivered_fraction >= threshold - 1e-12


def score_request(req: MacRequest, stats: ChannelStats) -> MessageScore:
    """Combine a finished request with ground-truth channel receipts."""
    delivered = stats.data_receipts.get(req.msg_id, set())
    finish = req.finish_time if req.finish_time is not None else req.arrival
    return MessageScore(
        msg_id=req.msg_id,
        kind=req.kind,
        status=req.status,
        n_dests=len(req.dests),
        n_delivered=len(delivered & req.dests),
        completion_time=req.completion_time,
        service_time=finish - req.arrival,
        contention_phases=req.contention_phases,
        rounds=req.rounds,
    )


@dataclass
class RunMetrics:
    """Aggregates over one simulation run."""

    threshold: float
    n_requests: int = 0
    n_successful: int = 0
    n_completed: int = 0
    n_timed_out: int = 0
    n_abandoned: int = 0
    #: Scores of the group (multicast/broadcast) messages only.
    group_scores: list[MessageScore] = field(default_factory=list)
    all_scores: list[MessageScore] = field(default_factory=list)
    #: Flattened run-wide observability counter totals (see
    #: ``docs/observability.md`` for the key dictionary).  Plain ints, so
    #: per-seed metrics merge across the process pool by summation.
    counters: dict[str, int] = field(default_factory=dict)

    @property
    def frames_sent(self) -> dict[str, int]:
        """Channel-wide frame counts by type name (whole run, all senders;
        types never sent left out), read off the ``frames_sent.*``
        counters -- LAMM's control-frame savings over BMMM show up here."""
        counters = self.counters
        return {ft.value: counters[ft.sent_key] for ft in FrameType if counters.get(ft.sent_key)}

    @property
    def delivery_rate(self) -> float:
        """Successful transmissions / total requests (Figures 6-8)."""
        return self.n_successful / self.n_requests if self.n_requests else 0.0

    @property
    def avg_contention_phases(self) -> float:
        """Mean contention phases per group message (Figure 9)."""
        if not self.group_scores:
            return 0.0
        return mean(s.contention_phases for s in self.group_scores)

    @property
    def avg_completion_time(self) -> float:
        """Mean completion time of completed group messages (Figure 10).

        Note the censoring: only *completed* messages contribute.  Under
        saturation a lossy protocol (e.g. BMW) completes only its easy
        messages, which deflates this mean -- see
        :attr:`avg_service_time` for the uncensored variant.
        """
        times = [
            s.completion_time
            for s in self.group_scores
            if s.completion_time is not None
        ]
        return mean(times) if times else 0.0

    @property
    def avg_service_time(self) -> float:
        """Mean time group messages spent in the MAC from arrival to
        completion *or* drop -- the uncensored companion to
        :attr:`avg_completion_time` (timed-out messages count their full
        lifetime)."""
        times = [s.service_time for s in self.group_scores]
        return mean(times) if times else 0.0

    @property
    def avg_delivered_fraction(self) -> float:
        if not self.group_scores:
            return 0.0
        return mean(s.delivered_fraction for s in self.group_scores)

    @property
    def control_frames(self) -> int:
        """Total non-DATA frames on the air: control frames plus beacons."""
        return sum(
            count for name, count in self.frames_sent.items() if name != "DATA"
        )

    @property
    def control_frames_per_message(self) -> float:
        """Control-frame overhead per served request (Section 5's savings
        metric for LAMM vs BMMM).  Includes beacons when enabled."""
        if self.n_requests == 0:
            return 0.0
        return self.control_frames / self.n_requests


def summarize_run(
    requests: Iterable[MacRequest],
    stats: ChannelStats,
    threshold: float = 0.9,
    include_unserved: bool = False,
    counters: "Counters | dict[str, int] | None" = None,
) -> RunMetrics:
    """Score every finished request of a run.

    Requests still queued/in service at the horizon are excluded by
    default (the paper reports on issued requests; messages cut off by the
    end of the simulation would bias completion times), unless
    *include_unserved* is set, in which case they count as unsuccessful.

    *counters* (a :class:`repro.obs.counters.Counters` or an already-flat
    dict) attaches the run's observability counter totals, which
    :attr:`RunMetrics.frames_sent` reads.
    """
    if counters is None:
        counter_totals: dict[str, int] = {}
    elif isinstance(counters, Counters):
        counter_totals = dict(counters.total)
    else:
        counter_totals = dict(counters)
    out = RunMetrics(
        threshold=threshold,
        counters=counter_totals,
    )
    for req in requests:
        finished = req.status in (
            MessageStatus.COMPLETED,
            MessageStatus.TIMED_OUT,
            MessageStatus.ABANDONED,
        )
        if not finished and not include_unserved:
            continue
        score = score_request(req, stats)
        out.n_requests += 1
        out.all_scores.append(score)
        if score.kind is not MessageKind.UNICAST:
            out.group_scores.append(score)
        if score.successful(threshold):
            out.n_successful += 1
        if score.status is MessageStatus.COMPLETED:
            out.n_completed += 1
        elif score.status is MessageStatus.TIMED_OUT:
            out.n_timed_out += 1
        elif score.status is MessageStatus.ABANDONED:
            out.n_abandoned += 1
    return out

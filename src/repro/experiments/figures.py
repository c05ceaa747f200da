"""Per-figure experiment definitions (Section 7, Figures 2 and 5-10;
Section 6, Table 1).

Every result is a :class:`FigureResult` whose ``series`` hold one y-list
per protocol over ``xs`` -- the same rows/series the paper plots.

Figures 6-10 are views of one campaign.  The paper plots three metrics
(delivery rate, contention phases, completion time) over one density and
one rate sweep, sweeps the timeout through the Table-2 point (Figure 7)
and re-scores that point per reliability threshold (Figure 8).  So
:data:`AXES` says how each x-axis enters the runs, :data:`FIGURES` says
which axis and metric each figure plots, and :func:`run_figures` runs the
union of the named figures' points through one
:func:`~repro.experiments.sweep.run_sweep` -- each distinct setting once
-- and reads every figure off the one result.  Sweep values follow the
paper where it states them (Figure 7 sweeps the timeout from 100 to 300
slots) and otherwise bracket the Table 2 operating point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import mean
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.analysis.contention import table1_row
from repro.analysis.recurrence import figure5_series
from repro.experiments.config import SimulationSettings, protocol_class
from repro.mac.registry import paper_protocols
from repro.mac.base import MessageKind
from repro.sim.frames import FrameType

__all__ = [
    "FigureResult",
    "table1",
    "figure2",
    "figure5",
    "Axis",
    "AXES",
    "FigureSpec",
    "FIGURES",
    "run_figures",
    "DENSITY_SWEEP_NODES",
    "RATE_SWEEP",
    "TIMEOUT_SWEEP",
    "THRESHOLD_SWEEP",
]

#: Node counts realizing the nodal-density sweeps (x-axis = measured mean
#: neighbor count; 100 nodes at radius 0.2 give ~9.5 neighbors).  Capped
#: at ~14 mean neighbors: beyond that a full-broadcast batch round
#: (4n + 5 slots) no longer fits Table 2's 100-slot timeout even once, so
#: every reliable protocol is structurally dead -- see EXPERIMENTS.md.
DENSITY_SWEEP_NODES = (40, 70, 100, 140)
#: Message generation rates for Figures 6(b)/9(b)/10(b), around Table 2's
#: 0.0005 default.
RATE_SWEEP = (0.00025, 0.0005, 0.001, 0.002)
#: Timeout values for Figure 7 ("ranging from 100 slots to 300 slots").
TIMEOUT_SWEEP = (100, 150, 200, 250, 300)
#: Reliability thresholds for Figure 8.
THRESHOLD_SWEEP = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


@dataclass
class FigureResult:
    """One reproduced table/figure: x values and one series per protocol."""

    name: str
    xlabel: str
    ylabel: str
    xs: list[float]
    series: dict[str, list[float]]
    meta: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "xlabel": self.xlabel,
            "ylabel": self.ylabel,
            "xs": self.xs,
            "series": self.series,
            "meta": self.meta,
        }


# --------------------------------------------------------------------------
# Analytical results (no simulation)
# --------------------------------------------------------------------------


def table1() -> FigureResult:
    """Table 1: expected contention phases before the sender sends data."""
    rows = [
        {"q": 0.05, "n": 5, "cover": 4},
        {"q": 0.05, "n": 10, "cover": 6},
    ]
    series: dict[str, list[float]] = {p: [] for p in ("BMMM", "LAMM", "BMW", "BSMA")}
    xs = []
    for row in rows:
        vals = table1_row(row["q"], row["n"], row["cover"])
        xs.append(float(row["n"]))
        for proto, v in vals.items():
            series[proto].append(v)
    return FigureResult(
        name="table1",
        xlabel="n (intended receivers)",
        ylabel="expected contention phases before DATA",
        xs=xs,
        series=series,
        meta={"rows": rows, "paper": {"BMMM": [1.00, 1.00], "LAMM": [1.00, 1.00], "BMW": [1.05, 1.05], "BSMA": [3.27, 4.08]}},
    )


def figure5(n_max: int = 20, p: float = 0.9) -> FigureResult:
    """Figure 5: expected contention phases per multicast vs n (p = 0.9)."""
    data = figure5_series(range(1, n_max + 1), p)
    xs = data.pop("n")
    return FigureResult(
        name="figure5",
        xlabel="number of intended receivers n",
        ylabel="expected contention phases",
        xs=xs,
        series=data,
        meta={"p": p},
    )


# --------------------------------------------------------------------------
# Figure 2: one clean multicast, BMW vs BMMM timeline
# --------------------------------------------------------------------------


def figure2(n_receivers: int = 4, seed: int = 0) -> FigureResult:
    """Figure 2: medium time of one collision-free multicast.

    Places ``n_receivers`` stations around a sender (all mutually in
    range), issues one broadcast, and reports the total slots and frame
    counts for BMW vs BMMM.  The timeline of every transmission is
    returned in ``meta["timeline"]``.
    """
    # Imported here so that ``import repro`` does not load the trace module.
    from repro.experiments.runner import build_network
    from repro.obs.trace import TraceRecorder
    from repro.phy.propagation import UnitDiskPropagation

    if n_receivers < 1:
        raise ValueError("need at least one receiver")
    # Star layout, radius small enough that everyone hears everyone.
    angles = np.linspace(0.0, 2 * np.pi, n_receivers, endpoint=False)
    rng = np.random.default_rng(seed)
    radii = 0.02 + 0.05 * rng.random(n_receivers)
    pos = np.vstack([[0.5, 0.5], np.c_[0.5 + radii * np.cos(angles), 0.5 + radii * np.sin(angles)]])

    settings = SimulationSettings(n_nodes=n_receivers + 1, timeout_slots=10_000, capture=False)
    propagation = UnitDiskPropagation(pos, settings.radius)
    series: dict[str, list[float]] = {}
    timelines: dict[str, list] = {}
    counts: dict[str, dict[str, int]] = {}
    for name in ("BMW", "BMMM"):
        mac_cls, kwargs = protocol_class(name)
        net = build_network(mac_cls, settings, seed, kwargs, propagation=propagation)
        recorder = net.env.obs.subscribe(TraceRecorder(), types=("frame_tx",))
        req = net.mac(0).submit(MessageKind.BROADCAST)
        net.run(until=2_000)
        series[name] = [float(req.finish_time - req.service_start)]
        timelines[name] = [
            (e.time, e.data["end"], e.data["ftype"], e.node)
            for e in recorder.by_type("frame_tx")
        ]
        sent = net.channel.counters
        counts[name] = {ft.value: sent.get(ft.sent_key) for ft in FrameType}
    return FigureResult(
        name="figure2",
        xlabel="protocol",
        ylabel="medium slots for one clean multicast (excl. arrival gap)",
        xs=[float(n_receivers)],
        series=series,
        meta={"timeline": timelines, "frame_counts": counts, "n_receivers": n_receivers},
    )


# --------------------------------------------------------------------------
# Simulation sweeps (Figures 6-10): views of one campaign
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Axis:
    """One x-axis of Figures 6-10 and how its values enter the runs.

    *setting* is the settings field each value sets (one sweep point per
    value), or ``None`` for a value that only enters at scoring time:
    every x then re-scores the one base point.  *parse* gives a value the
    type the field declares (the CLI's ``--values`` parser too).  With
    *measured* the x-value is the point's measured mean degree rather
    than the swept value.
    """

    xlabel: str
    values: tuple
    parse: Callable[[Any], Any]
    setting: str | None = None
    measured: bool = False

    def point(self, base: SimulationSettings, value) -> SimulationSettings:
        return base.with_(**{self.setting: value}) if self.setting else base


#: The x-axes, keyed by the names ``run_figures(grids=...)`` and the CLI's
#: ``--axis`` use.
AXES: dict[str, Axis] = {
    "nodes": Axis(
        "average number of neighbors", DENSITY_SWEEP_NODES, int, "n_nodes", measured=True
    ),
    "rate": Axis("message generation rate (/node/slot)", RATE_SWEEP, float, "message_rate"),
    "timeout": Axis("timeout (slots)", TIMEOUT_SWEEP, float, "timeout_slots"),
    "threshold": Axis("reliability threshold", THRESHOLD_SWEEP, float),
}


@dataclass(frozen=True)
class FigureSpec:
    """One simulated figure: a metric over an axis.

    Each *extra* metric is averaged from the same runs into
    ``meta["extra"][metric]`` (same ``{protocol: [values]}`` layout).
    On the threshold axis the metric is the delivery rate re-scored per
    threshold (:meth:`~repro.metrics.aggregate.RunMetrics.delivery_rate_at`).
    """

    name: str
    ylabel: str
    axis: str
    metric: str
    extra: tuple[str, ...] = ()


_DELIVERY = "successful delivery rate"
_PHASES = "average contention phases per message"
#: Figure 10 carries the uncensored companion ``avg_service_time``
#: (timed-out messages counted at their full lifetime), which the
#: benchmarks use to check the ordering without the completed-only
#: survivorship bias.  The paper discusses completion time for the
#: reliable protocols (BSMA "completes" without delivering, Section 7.3)
#: but plots all four; so do we.
_COMPLETION = "average message completion time (slots)"

#: Figures 6-10 in the paper's order.
FIGURES: dict[str, FigureSpec] = {
    spec.name: spec
    for spec in (
        FigureSpec("figure6a", _DELIVERY, "nodes", "delivery_rate"),
        FigureSpec("figure6b", _DELIVERY, "rate", "delivery_rate"),
        FigureSpec("figure7", _DELIVERY, "timeout", "delivery_rate"),
        FigureSpec("figure8", _DELIVERY, "threshold", "delivery_rate"),
        FigureSpec("figure9a", _PHASES, "nodes", "avg_contention_phases"),
        FigureSpec("figure9b", _PHASES, "rate", "avg_contention_phases"),
        FigureSpec("figure10a", _COMPLETION, "nodes", "avg_completion_time", ("avg_service_time",)),
        FigureSpec("figure10b", _COMPLETION, "rate", "avg_completion_time", ("avg_service_time",)),
    )
}


def run_figures(
    names: Iterable[str],
    *,
    settings: SimulationSettings | None = None,
    seeds: Iterable[int] = range(3),
    processes: int | None = 1,
    grids: Mapping[str, Sequence] | None = None,
) -> dict[str, FigureResult]:
    """Run the named figures as one campaign; ``{name: FigureResult}``.

    Every figure's points are *settings* (default: Table 2) with its
    axis swept over the paper's values, or over ``grids[axis]`` where
    given.  The union of those points, each distinct settings digest
    once, runs through one :func:`~repro.experiments.sweep.run_sweep`
    (all paper protocols, *seeds*, *processes* workers), and each figure
    is read off that one result -- the same numbers as one sweep per
    figure, since a cell depends only on (settings, seed, protocol).
    """
    from repro.experiments.scenario import Scenario
    from repro.experiments.sweep import run_sweep
    from repro.store.digests import settings_digest

    base = settings or SimulationSettings()
    seeds = list(seeds)
    grids = grids or {}
    if set(grids) - set(AXES):
        raise KeyError(f"unknown axes {sorted(set(grids) - set(AXES))}; choose from {list(AXES)}")
    specs = [FIGURES[name] for name in names]
    values = {
        name: [axis.parse(v) for v in grids.get(name, axis.values)]
        for name, axis in AXES.items()
    }
    index: dict[str, int] = {}
    points: list[SimulationSettings] = []
    at: dict[str, list[int]] = {}  # axis -> point index per x
    for axis_name in dict.fromkeys(spec.axis for spec in specs):
        axis = AXES[axis_name]
        at[axis_name] = []
        for value in values[axis_name]:
            point = axis.point(base, value)
            digest = settings_digest(point)
            if digest not in index:
                index[digest] = len(points)
                points.append(point)
            at[axis_name].append(index[digest])
    scenario = Scenario(settings=base, protocols=paper_protocols(), seeds=tuple(seeds))
    result = run_sweep(scenario, points, processes=processes)
    return {
        spec.name: _view(spec, result, at[spec.axis], values[spec.axis], seeds)
        for spec in specs
    }


def _view(spec: FigureSpec, result, point_ids, values, seeds) -> FigureResult:
    """One figure read off the campaign: x number *i* is point
    ``point_ids[i]`` at axis value ``values[i]``."""
    axis = AXES[spec.axis]
    protocols = list(result.protocols)
    series: dict[str, list[float]] = {p: [] for p in protocols}
    extra = {m: {p: [] for p in protocols} for m in spec.extra}
    for point, value in zip(point_ids, values):
        for proto in protocols:
            runs = result.cell(point, proto).metrics
            if axis.setting is None:
                series[proto].append(mean(m.delivery_rate_at(value) for m in runs))
            else:
                series[proto].append(mean(getattr(m, spec.metric) for m in runs))
            for metric in spec.extra:
                extra[metric][proto].append(mean(getattr(m, metric) for m in runs))
    xs = [
        mean(result.point_degrees(point)) if axis.measured else value
        for point, value in zip(point_ids, values)
    ]
    meta: dict[str, Any] = {"seeds": seeds, "protocols": protocols}
    if axis.setting is not None:
        meta["extra"] = extra
    return FigureResult(
        name=spec.name, xlabel=axis.xlabel, ylabel=spec.ylabel, xs=xs, series=series, meta=meta
    )

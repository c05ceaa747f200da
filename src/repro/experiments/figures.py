"""Per-figure experiment definitions (Section 7, Figures 2 and 5-10;
Section 6, Table 1).

Every function returns a :class:`FigureResult` whose ``series`` hold one
y-list per protocol over ``xs`` -- the same rows/series the paper plots.
Sweep values follow the paper where it states them (Figure 7 sweeps the
timeout from 100 to 300 slots; Figure 8 sweeps the reliability threshold)
and otherwise bracket the Table 2 operating point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import mean
from typing import Any, Iterable, Sequence

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
    "figure6a",
    "figure6b",
    "figure7",
    "figure8",
    "figure9a",
    "figure9b",
    "figure10a",
    "figure10b",
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
    from repro.obs.trace import TraceRecorder

    if n_receivers < 1:
        raise ValueError("need at least one receiver")
    # Star layout, radius small enough that everyone hears everyone.
    angles = np.linspace(0.0, 2 * np.pi, n_receivers, endpoint=False)
    rng = np.random.default_rng(seed)
    radii = 0.02 + 0.05 * rng.random(n_receivers)
    pos = np.vstack([[0.5, 0.5], np.c_[0.5 + radii * np.cos(angles), 0.5 + radii * np.sin(angles)]])

    settings = SimulationSettings(n_nodes=n_receivers + 1, timeout_slots=10_000)
    series: dict[str, list[float]] = {}
    timelines: dict[str, list] = {}
    counts: dict[str, dict[str, int]] = {}
    for name in ("BMW", "BMMM"):
        mac_cls, kwargs = protocol_class(name)
        net = _rebuild_with_positions(mac_cls, settings, seed, kwargs, pos)
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


def _rebuild_with_positions(mac_cls, settings, seed, kwargs, positions):
    from repro.sim.network import Network
    from repro.mac.base import MacConfig

    return Network(
        positions,
        settings.radius,
        mac_cls,
        capture=None,
        seed=seed,
        mac_config=MacConfig(contention=settings.contention, timeout_slots=settings.timeout_slots),
        mac_kwargs=kwargs,
    )


# --------------------------------------------------------------------------
# Simulation sweeps (Figures 6-10)
# --------------------------------------------------------------------------


def _sweep(
    name: str,
    xlabel: str,
    ylabel: str,
    settings_list: Sequence[SimulationSettings],
    xs_from: str,
    metric: str,
    seeds: Iterable[int],
    protocols: Sequence[str] | None = None,
    extra_metrics: Sequence[str] = (),
    processes: int | None = 1,
) -> FigureResult:
    """Generic sweep: run every protocol at every settings point.

    *metric* becomes the figure's series; any *extra_metrics* are computed
    from the same runs and stored under ``meta["extra"][metric_name]``
    (same {protocol: [values]} layout) -- used by benchmarks that want a
    companion metric without re-simulating.  The whole grid runs through
    :func:`repro.experiments.sweep.run_sweep`: one long-lived pool when
    *processes* > 1, shared topology/schedule builds across the protocols
    of each (point, seed) cell either way -- results are bit-identical to
    per-run serial execution (tested).
    """
    from repro.experiments.scenario import Scenario
    from repro.experiments.sweep import run_sweep

    if protocols is None:
        protocols = paper_protocols()
    seeds = list(seeds)
    scenario = Scenario(
        settings=settings_list[0], protocols=tuple(protocols), seeds=tuple(seeds)
    )
    result = run_sweep(scenario, list(settings_list), processes=processes)
    series: dict[str, list[float]] = {p: [] for p in protocols}
    extra: dict[str, dict[str, list[float]]] = {
        m: {p: [] for p in protocols} for m in extra_metrics
    }
    xs: list[float] = []
    for idx, st in enumerate(settings_list):
        for proto in protocols:
            run_metrics = result.cell(idx, proto).metrics
            series[proto].append(mean(getattr(m, metric) for m in run_metrics))
            for name_ in extra_metrics:
                extra[name_][proto].append(
                    mean(getattr(m, name_) for m in run_metrics)
                )
        if xs_from == "degree":
            xs.append(mean(result.point_degrees(idx)))
        elif xs_from == "rate":
            xs.append(st.message_rate)
        elif xs_from == "timeout":
            xs.append(st.timeout_slots)
        else:
            xs.append(float(idx))
    return FigureResult(
        name=name,
        xlabel=xlabel,
        ylabel=ylabel,
        xs=xs,
        series=series,
        meta={"seeds": seeds, "protocols": list(protocols), "extra": extra},
    )


def figure6a(
    settings: SimulationSettings | None = None,
    seeds: Iterable[int] = range(3),
    node_counts: Sequence[int] = DENSITY_SWEEP_NODES,
    processes: int | None = 1,
) -> FigureResult:
    """Figure 6(a): successful delivery rate vs nodal density."""
    st = settings or SimulationSettings()
    return _sweep(
        "figure6a",
        "average number of neighbors",
        "successful delivery rate",
        [st.with_(n_nodes=n) for n in node_counts],
        "degree",
        "delivery_rate",
        seeds,
        processes=processes,
    )


def figure6b(
    settings: SimulationSettings | None = None,
    seeds: Iterable[int] = range(3),
    rates: Sequence[float] = RATE_SWEEP,
    processes: int | None = 1,
) -> FigureResult:
    """Figure 6(b): successful delivery rate vs message generation rate."""
    st = settings or SimulationSettings()
    return _sweep(
        "figure6b",
        "message generation rate (/node/slot)",
        "successful delivery rate",
        [st.with_(message_rate=r) for r in rates],
        "rate",
        "delivery_rate",
        seeds,
        processes=processes,
    )


def figure7(
    settings: SimulationSettings | None = None,
    seeds: Iterable[int] = range(3),
    timeouts: Sequence[float] = TIMEOUT_SWEEP,
    processes: int | None = 1,
) -> FigureResult:
    """Figure 7: successful delivery rate vs timeout (100-300 slots)."""
    st = settings or SimulationSettings()
    return _sweep(
        "figure7",
        "timeout (slots)",
        "successful delivery rate",
        [st.with_(timeout_slots=float(t)) for t in timeouts],
        "timeout",
        "delivery_rate",
        seeds,
        processes=processes,
    )


def figure8(
    settings: SimulationSettings | None = None,
    seeds: Iterable[int] = range(3),
    thresholds: Sequence[float] = THRESHOLD_SWEEP,
    protocols: Sequence[str] | None = None,
    processes: int | None = 1,
) -> FigureResult:
    """Figure 8: successful delivery rate vs reliability threshold.

    The threshold only enters at scoring time, so one
    :func:`~repro.experiments.sweep.run_sweep` over the single settings
    point simulates each protocol/seed once, and every run is re-scored
    per threshold with :meth:`RunMetrics.delivery_rate_at`.  The cell is
    scored (and stored) at ``settings.threshold``, so it shares its
    settings digest with the same point of Figure 6(a).
    """
    from repro.experiments.scenario import Scenario
    from repro.experiments.sweep import run_sweep

    st = settings or SimulationSettings()
    if protocols is None:
        protocols = paper_protocols()
    seeds = list(seeds)
    scenario = Scenario(settings=st, protocols=tuple(protocols), seeds=tuple(seeds))
    result = run_sweep(scenario, processes=processes)
    series = {
        proto: [
            mean(m.delivery_rate_at(th) for m in result.cell(0, proto).metrics)
            for th in thresholds
        ]
        for proto in protocols
    }
    return FigureResult(
        name="figure8",
        xlabel="reliability threshold",
        ylabel="successful delivery rate",
        xs=[float(t) for t in thresholds],
        series=series,
        meta={"seeds": seeds, "protocols": list(protocols)},
    )


def figure9a(settings=None, seeds: Iterable[int] = range(3), node_counts=DENSITY_SWEEP_NODES, processes: int | None = 1) -> FigureResult:
    """Figure 9(a): average contention phases per message vs density."""
    st = settings or SimulationSettings()
    return _sweep(
        "figure9a",
        "average number of neighbors",
        "average contention phases per message",
        [st.with_(n_nodes=n) for n in node_counts],
        "degree",
        "avg_contention_phases",
        seeds,
        processes=processes,
    )


def figure9b(settings=None, seeds: Iterable[int] = range(3), rates=RATE_SWEEP, processes: int | None = 1) -> FigureResult:
    """Figure 9(b): average contention phases per message vs rate."""
    st = settings or SimulationSettings()
    return _sweep(
        "figure9b",
        "message generation rate (/node/slot)",
        "average contention phases per message",
        [st.with_(message_rate=r) for r in rates],
        "rate",
        "avg_contention_phases",
        seeds,
        processes=processes,
    )


def figure10a(settings=None, seeds: Iterable[int] = range(3), node_counts=DENSITY_SWEEP_NODES, processes: int | None = 1) -> FigureResult:
    """Figure 10(a): average message completion time vs density.

    The paper discusses completion time for the reliable protocols (BSMA
    "completes" without delivering, see Section 7.3) but plots all four;
    we do the same.  ``meta["extra"]["avg_service_time"]`` carries the
    uncensored companion metric (timed-out messages counted at their full
    lifetime), which the benchmarks use to check the ordering without the
    completed-only survivorship bias.
    """
    st = settings or SimulationSettings()
    return _sweep(
        "figure10a",
        "average number of neighbors",
        "average message completion time (slots)",
        [st.with_(n_nodes=n) for n in node_counts],
        "degree",
        "avg_completion_time",
        seeds,
        extra_metrics=("avg_service_time",),
        processes=processes,
    )


def figure10b(settings=None, seeds: Iterable[int] = range(3), rates=RATE_SWEEP, processes: int | None = 1) -> FigureResult:
    """Figure 10(b): average message completion time vs rate.  See
    :func:`figure10a` for the ``avg_service_time`` companion series."""
    st = settings or SimulationSettings()
    return _sweep(
        "figure10b",
        "message generation rate (/node/slot)",
        "average message completion time (slots)",
        [st.with_(message_rate=r) for r in rates],
        "rate",
        "avg_completion_time",
        seeds,
        extra_metrics=("avg_service_time",),
        processes=processes,
    )

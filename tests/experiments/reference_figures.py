"""Reference figure path: one ``run_sweep`` per figure.

How Figures 6-10 were computed before they became views of one campaign
(:func:`repro.experiments.figures.run_figures`): every figure built its
own points and ran its own sweep, so a campaign over all eight ran the
density grid three times, the rate grid three times and the Table-2
point six times.  Kept as the oracle ``run_figures`` is pinned to
(``tests/experiments/test_figures.py``).
"""

from __future__ import annotations

from statistics import mean
from typing import Iterable, Mapping, Sequence

from repro.experiments.config import SimulationSettings
from repro.experiments.figures import (
    DENSITY_SWEEP_NODES,
    RATE_SWEEP,
    THRESHOLD_SWEEP,
    TIMEOUT_SWEEP,
    FigureResult,
)
from repro.experiments.scenario import Scenario
from repro.experiments.sweep import run_sweep
from repro.mac.registry import paper_protocols

_DENSITY = "average number of neighbors"
_RATE = "message generation rate (/node/slot)"
_DELIVERY = "successful delivery rate"
_PHASES = "average contention phases per message"
_COMPLETION = "average message completion time (slots)"


def _sweep(name, xlabel, ylabel, settings_list, xs_from, metric, seeds, processes, extra_metrics=()):
    protocols = paper_protocols()
    seeds = list(seeds)
    scenario = Scenario(settings=settings_list[0], protocols=tuple(protocols), seeds=tuple(seeds))
    result = run_sweep(scenario, list(settings_list), processes=processes)
    series: dict[str, list[float]] = {p: [] for p in protocols}
    extra = {m: {p: [] for p in protocols} for m in extra_metrics}
    xs: list[float] = []
    for idx, st in enumerate(settings_list):
        for proto in protocols:
            run_metrics = result.cell(idx, proto).metrics
            series[proto].append(mean(getattr(m, metric) for m in run_metrics))
            for name_ in extra_metrics:
                extra[name_][proto].append(mean(getattr(m, name_) for m in run_metrics))
        if xs_from == "degree":
            xs.append(mean(result.point_degrees(idx)))
        elif xs_from == "rate":
            xs.append(st.message_rate)
        else:
            xs.append(st.timeout_slots)
    return FigureResult(
        name=name,
        xlabel=xlabel,
        ylabel=ylabel,
        xs=xs,
        series=series,
        meta={"seeds": seeds, "protocols": list(protocols), "extra": extra},
    )


def _density(name, ylabel, metric, extra=()):
    def figure(st, seeds, node_counts, processes):
        points = [st.with_(n_nodes=n) for n in node_counts]
        return _sweep(name, _DENSITY, ylabel, points, "degree", metric, seeds, processes, extra)

    return figure


def _rate(name, ylabel, metric, extra=()):
    def figure(st, seeds, rates, processes):
        points = [st.with_(message_rate=r) for r in rates]
        return _sweep(name, _RATE, ylabel, points, "rate", metric, seeds, processes, extra)

    return figure


def _figure7(st, seeds, timeouts, processes):
    points = [st.with_(timeout_slots=float(t)) for t in timeouts]
    return _sweep(
        "figure7", "timeout (slots)", _DELIVERY, points, "timeout", "delivery_rate", seeds, processes
    )


def _figure8(st, seeds, thresholds, processes):
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
        ylabel=_DELIVERY,
        xs=[float(t) for t in thresholds],
        series=series,
        meta={"seeds": seeds, "protocols": list(protocols)},
    )


#: figure name -> (one-sweep function, grid key, the paper's values).
REFERENCE = {
    "figure6a": (_density("figure6a", _DELIVERY, "delivery_rate"), "nodes", DENSITY_SWEEP_NODES),
    "figure6b": (_rate("figure6b", _DELIVERY, "delivery_rate"), "rate", RATE_SWEEP),
    "figure7": (_figure7, "timeout", TIMEOUT_SWEEP),
    "figure8": (_figure8, "threshold", THRESHOLD_SWEEP),
    "figure9a": (_density("figure9a", _PHASES, "avg_contention_phases"), "nodes", DENSITY_SWEEP_NODES),
    "figure9b": (_rate("figure9b", _PHASES, "avg_contention_phases"), "rate", RATE_SWEEP),
    "figure10a": (
        _density("figure10a", _COMPLETION, "avg_completion_time", ("avg_service_time",)),
        "nodes",
        DENSITY_SWEEP_NODES,
    ),
    "figure10b": (
        _rate("figure10b", _COMPLETION, "avg_completion_time", ("avg_service_time",)),
        "rate",
        RATE_SWEEP,
    ),
}


def reference_figures(
    names: Iterable[str],
    *,
    settings: SimulationSettings | None = None,
    seeds: Iterable[int] = range(3),
    processes: int | None = 1,
    grids: Mapping[str, Sequence] | None = None,
) -> dict[str, FigureResult]:
    """``run_figures``' signature over the old path: one sweep per figure."""
    st = settings or SimulationSettings()
    seeds = list(seeds)
    out = {}
    for name in names:
        figure, key, paper_values = REFERENCE[name]
        out[name] = figure(st, seeds, (grids or {}).get(key, paper_values), processes)
    return out

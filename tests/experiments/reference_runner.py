"""Reference campaign loop: one cold ``run_raw`` per (protocol, seed).

The per-seed loop that ``repro.run`` and Figure 8 used before every
campaign went through the sweep engine: no world cache, no pool, no
store, each run built from scratch.  Kept as the oracle the engine is
pinned to -- ``tests/experiments/test_sweep.py`` (``run`` and the grid),
``tests/experiments/test_figures.py`` (Figure 8) and the
figure-5-sized race in ``benchmarks/bench_figure5.py``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.experiments.config import SimulationSettings, protocol_class
from repro.experiments.runner import MeanMetrics, RawRun, run_raw


def reference_raws(
    protocol: str, settings: SimulationSettings, seeds: Iterable[int]
) -> list[RawRun]:
    """One cold run per seed, in seed order."""
    mac_cls, kwargs = protocol_class(protocol)
    return [run_raw(mac_cls, settings, seed, kwargs) for seed in seeds]


def reference_run(
    protocols: Sequence[str], settings: SimulationSettings, seeds: Iterable[int]
) -> dict[str, MeanMetrics]:
    """``{protocol: MeanMetrics}`` in *protocols* order, scored at
    ``settings.threshold`` -- what ``repro.run`` returns for the same
    scenario."""
    seeds = list(seeds)
    out = {}
    for name in protocols:
        raws = reference_raws(name, settings, seeds)
        out[name] = MeanMetrics.from_runs(
            [raw.metrics() for raw in raws], [raw.average_degree for raw in raws]
        )
    return out

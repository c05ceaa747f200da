"""Experiment definitions and runners reproducing Section 7."""

from repro.experiments.config import PROTOCOLS, SimulationSettings, protocol_class
from repro.experiments.degradation import degradation_points
from repro.experiments.runner import (
    MeanMetrics,
    RawRun,
    run,
    run_once,
    run_raw,
)
from repro.experiments.scenario import Scenario
from repro.experiments.sweep import SweepResult, run_sweep
from repro.experiments.figures import (
    FigureResult,
    figure2,
    figure5,
    figure6a,
    figure6b,
    figure7,
    figure8,
    figure9a,
    figure9b,
    figure10a,
    figure10b,
    table1,
)
from repro.experiments.report import format_figure, format_table1, save_json

__all__ = [
    "PROTOCOLS",
    "SimulationSettings",
    "Scenario",
    "protocol_class",
    "RawRun",
    "MeanMetrics",
    "run_raw",
    "run",
    "run_once",
    "SweepResult",
    "run_sweep",
    "degradation_points",
    "FigureResult",
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
    "table1",
    "format_figure",
    "format_table1",
    "save_json",
]

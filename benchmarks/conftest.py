"""Shared configuration for the figure-regeneration benchmarks.

Every benchmark regenerates one table/figure of the paper and prints the
rows/series (run pytest with ``-s`` to see them live; they are also saved
as JSON under ``benchmarks/results/``).

Environment knobs:

* ``REPRO_BENCH_RUNS``    -- seeded runs per sweep point (default 2;
  the paper averages 100 -- set this higher for smoother curves);
* ``REPRO_BENCH_HORIZON`` -- slots per run (default 10000, Table 2).
"""

import os
import sys
from pathlib import Path

from repro.experiments.config import SimulationSettings
from repro.experiments.report import format_figure, save_json

RESULTS_DIR = Path(__file__).parent / "results"

# The reference implementations the fast paths are pinned to live in the
# test tree (``tests.<area>.reference_*``); make them importable however
# pytest was started.
_REPO_ROOT = str(Path(__file__).resolve().parents[1])
if _REPO_ROOT not in sys.path:
    sys.path.append(_REPO_ROOT)


def n_runs() -> int:
    return int(os.environ.get("REPRO_BENCH_RUNS", "2"))


def bench_settings(**overrides) -> SimulationSettings:
    horizon = int(os.environ.get("REPRO_BENCH_HORIZON", "10000"))
    return SimulationSettings(horizon=horizon).with_(**overrides)


def report(result, paper_shape: str) -> None:
    """Print the reproduced series plus the expected qualitative shape."""
    print()
    print(format_figure(result))
    print(f"paper shape: {paper_shape}")
    path = save_json(result, RESULTS_DIR)
    print(f"saved: {path}")

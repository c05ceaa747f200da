"""One-shot reproduction report: every table/figure into a Markdown file.

``repro-mac report --seeds N --out results/`` runs the complete experiment
matrix -- the simulated figures as one campaign
(:func:`~repro.experiments.figures.run_figures`) -- and writes
``results/REPORT.md`` containing the Table-1 comparison, each figure as a
text table plus an ASCII chart, the saturation analysis, and the run
configuration -- a self-contained artifact for comparing against the
paper.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Iterable

from repro.analysis.saturation import saturation_report
from repro.experiments import figures as F
from repro.experiments.plotting import render_figure
from repro.experiments.report import format_figure, format_table1, save_json

__all__ = ["generate_report"]


def generate_report(
    out_dir: str | Path,
    seeds: Iterable[int] = range(3),
    chart_width: int = 64,
    settings=None,
) -> Path:
    """Run everything and write ``REPORT.md`` (plus per-figure JSON) under
    *out_dir*; returns the report path.

    *settings* (a :class:`~repro.experiments.config.SimulationSettings`)
    overrides the Table-2 defaults for the simulated figures -- used by the
    tests to keep the report fast.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    seeds = list(seeds)
    t0 = time.time()
    parts: list[str] = [
        "# Reproduction report",
        "",
        "Paper: *Reliable MAC Layer Multicast in IEEE 802.11 Wireless "
        "Networks* (Sun, Huang, Arora, Lai -- ICPP 2002).",
        f"Simulated figures averaged over {len(seeds)} seeded runs "
        "(Table 2 parameters unless swept).",
        "",
        "## Table 1 (analytic)",
        "",
        "```",
        format_table1(F.table1()),
        "```",
        "",
        "## Figure 2 (single clean multicast)",
    ]

    fig2 = F.figure2()
    counts = fig2.meta["frame_counts"]
    parts += [
        "",
        "```",
        f"BMW : {fig2.series['BMW'][0]:.0f} slots  {counts['BMW']}",
        f"BMMM: {fig2.series['BMMM'][0]:.0f} slots  {counts['BMMM']}",
        "```",
        "",
        "## Figure 5 (analytic recurrence)",
        "",
        "```",
        render_figure(F.figure5(), width=chart_width),
        "```",
    ]
    save_json(fig2, out_dir)

    for result in F.run_figures(F.FIGURES, settings=settings, seeds=seeds).values():
        save_json(result, out_dir)
        parts += [
            "",
            f"## {result.name}",
            "",
            "```",
            format_figure(result),
            "",
            render_figure(result, width=chart_width),
            "```",
        ]

    sat = saturation_report()
    parts += [
        "",
        "## Saturation limits (100-slot timeout)",
        "",
        "```",
        *(f"{k}: {v}" for k, v in sat.items()),
        "```",
        "",
        f"_Generated in {time.time() - t0:.0f}s._",
        "",
    ]
    report = out_dir / "REPORT.md"
    report.write_text("\n".join(parts))
    return report

"""Plain-text and JSON rendering of reproduced figures/tables."""

from __future__ import annotations

from pathlib import Path

from repro.experiments.figures import FigureResult
from repro.obs.records import write_json

__all__ = ["format_counters", "format_figure", "format_table1", "save_json"]


def format_figure(result: FigureResult, width: int = 10, precision: int = 3) -> str:
    """Render a :class:`FigureResult` as an aligned text table."""
    protos = list(result.series)
    header = f"{result.xlabel[:2*width]:<{2*width}}" + "".join(
        f"{p:>{width}}" for p in protos
    )
    lines = [f"== {result.name}: {result.ylabel} ==", header, "-" * len(header)]
    for i, x in enumerate(result.xs):
        row = f"{x:<{2*width}.4g}" + "".join(
            f"{result.series[p][i]:>{width}.{precision}f}" for p in protos
        )
        lines.append(row)
    if "seeds" in result.meta:
        lines.append(f"(mean of {len(result.meta['seeds'])} seeded runs)")
    return "\n".join(lines)


def format_table1(result: FigureResult) -> str:
    """Render Table 1 with the paper's published values alongside ours."""
    rows = result.meta["rows"]
    paper = result.meta["paper"]
    protos = ("BMMM", "LAMM", "BMW", "BSMA")
    lines = [
        "== Table 1: expected contention phases before the sender sends data ==",
        f"{'parameters':<32}" + "".join(f"{p:>14}" for p in protos),
    ]
    lines.append("-" * len(lines[-1]))
    for i, row in enumerate(rows):
        label = f"q={row['q']}, n={row['n']}, |S'|={row['cover']}"
        ours = "".join(f"{result.series[p][i]:>14.2f}" for p in protos)
        lines.append(f"{label:<32}{ours}")
        theirs = "".join(f"{paper[p][i]:>14.2f}" for p in protos)
        lines.append(f"{'  (paper)':<32}{theirs}")
    return "\n".join(lines)


def format_counters(counters: dict[str, int], title: str = "counters") -> str:
    """Aligned dump of observability counter totals, sorted by key.

    Accepts the flat dicts carried by ``RunMetrics.counters`` /
    ``MeanMetrics.counters`` or a ``Counters.total`` mapping; the key
    dictionary is documented in ``docs/observability.md``.
    """
    if not counters:
        return f"== {title} ==\n  (none)"
    width = max(len(k) for k in counters)
    lines = [f"== {title} =="]
    for key in sorted(counters):
        lines.append(f"  {key:<{width}}  {counters[key]:>10}")
    return "\n".join(lines)


def save_json(result: FigureResult, directory: str | Path) -> Path:
    """Persist a result as ``<directory>/<name>.json``; returns the path."""
    # Timelines contain tuples; JSON round-trips them as lists, which is fine.
    return write_json(Path(directory) / f"{result.name}.json", result.as_dict())

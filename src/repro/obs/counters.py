"""Cheap always-on counters: per-run totals with per-node attribution.

Unlike the event bus (:mod:`repro.obs.events`), counters are *always*
collected -- they are a handful of dict increments per frame, which is
noise next to the channel's overlap bookkeeping.  The channel owns one
:class:`Counters` instance per run; MAC/protocol code increments it through
``mac.channel.counters``.

Counter keys are flat dotted strings (``frames_sent.DATA``,
``contention_phases``, ``lamm.inferred`` ...); the full dictionary of
defined keys lives in ``docs/observability.md``.  Totals are surfaced on
:class:`~repro.experiments.runner.RawRun` and (flattened) on
:class:`~repro.metrics.aggregate.RunMetrics`, so they pickle across the
process pool and merge by plain summation -- serial and parallel execution
produce identical totals (tested).
"""

from __future__ import annotations

from typing import Iterable, Mapping

__all__ = ["Counters", "merge_counter_dicts", "diff_counters"]


class Counters:
    """A two-level counter: run-wide totals plus per-node breakdowns."""

    __slots__ = ("total", "per_node")

    def __init__(self):
        #: key -> run-wide count.
        self.total: dict[str, int] = {}
        #: node id -> (key -> count).  Nodes appear once they increment;
        #: the channel also pre-registers every attached radio's dict so
        #: its per-frame hot paths can increment without a lookup.
        self.per_node: dict[int, dict[str, int]] = {}

    def inc(self, key: str, node: int | None = None, n: int = 1) -> None:
        """Add *n* to *key* (and to *node*'s breakdown when given)."""
        total = self.total
        total[key] = total.get(key, 0) + n
        if node is not None:
            per = self.per_node.get(node)
            if per is None:
                per = self.per_node[node] = {}
            per[key] = per.get(key, 0) + n

    def get(self, key: str, node: int | None = None) -> int:
        if node is None:
            return self.total.get(key, 0)
        return self.per_node.get(node, {}).get(key, 0)

    def node(self, node: int) -> dict[str, int]:
        """This node's counter dict (empty if it never counted)."""
        return dict(self.per_node.get(node, {}))

    def merge(self, other: "Counters") -> "Counters":
        """Fold *other* into self (sums both levels); returns self."""
        for key, n in other.total.items():
            self.total[key] = self.total.get(key, 0) + n
        for node, counts in other.per_node.items():
            per = self.per_node.setdefault(node, {})
            for key, n in counts.items():
                per[key] = per.get(key, 0) + n
        return self

    def as_dict(self) -> dict:
        """JSON-safe snapshot: ``{"total": {...}, "per_node": {...}}``."""
        return {
            "total": dict(self.total),
            "per_node": {str(node): dict(c) for node, c in self.per_node.items()},
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "Counters":
        out = cls()
        out.total.update(payload.get("total", {}))
        for node, counts in payload.get("per_node", {}).items():
            out.per_node[int(node)] = dict(counts)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Counters):
            return NotImplemented
        return self.total == other.total and self.per_node == other.per_node

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<Counters {len(self.total)} keys, {len(self.per_node)} nodes>"


def merge_counter_dicts(dicts: Iterable[Mapping[str, int]]) -> dict[str, int]:
    """Sum flat counter dicts (the per-seed ``RunMetrics.counters``) into
    one total -- the one dict sum behind
    :meth:`~repro.experiments.runner.MeanMetrics.from_runs`, the sweep
    manifest's counter totals and ``SweepResult.mac_profile`` (whose
    per-run phase seconds sum the same way)."""
    out: dict[str, int] = {}
    for d in dicts:
        for key, n in d.items():
            out[key] = out.get(key, 0) + n
    return out


def diff_counters(
    baseline: Mapping[str, int], fresh: Mapping[str, int]
) -> dict[str, tuple[int, int]]:
    """Keys whose totals differ, as ``{key: (baseline, fresh)}``.

    Missing keys count as 0 on that side, so an appearing or vanishing
    counter registers as drift.  Used by the regression gate
    (:mod:`repro.store.gate`): counters drift before headline metrics do
    when a semantic change is subtle.
    """
    out: dict[str, tuple[int, int]] = {}
    for key in baseline.keys() | fresh.keys():
        b, f = baseline.get(key, 0), fresh.get(key, 0)
        if b != f:
            out[key] = (b, f)
    return out

"""Reference cover-set geometry: the straightforward ``ArcUnion`` version.

Every predicate call here rebuilds an :class:`ArcUnion` (a plain list of
arcs, merged again on each query) from fresh
:func:`~repro.geometry.cover.cover_angle` arcs, with no pair
cache, no incremental merging and no memo.  :class:`CoverGeometry`
(``repro.geometry.cover``) must return exactly what these functions
return; ``tests/geometry/test_cover_geometry.py`` and the LAMM cache tests
compare the two.

The cover-set functions take (and ignore) a ``geometry=`` keyword so a
test can monkeypatch them over ``repro.core.lamm``'s names.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from repro.geometry.arcs import (
    EPS,
    Arc,
    arc_intervals,
    covers_full_circle,
    merge_intervals,
    normalize_deg,
    span_from_endpoints,
)
from repro.geometry.cover import cover_angle


def arc_from_endpoints(alpha: float, beta: float) -> Arc:
    """Arc from *alpha* counter-clockwise to *beta* (the paper's
    ``[angle(cpa), angle(cpb)]`` notation); equal endpoints denote the
    full circle."""
    return Arc(*span_from_endpoints(alpha, beta))


def full_arc() -> Arc:
    return Arc(0.0, 360.0)


def is_full(arc: Arc) -> bool:
    return arc.extent >= 360.0 - EPS


def arc_contains(arc: Arc, angle: float, eps: float = EPS) -> bool:
    """Is *angle* on *arc* (inclusive, with slack)?"""
    if is_full(arc):
        return True
    offset = normalize_deg(angle - arc.start)
    return offset <= arc.extent + eps or offset >= 360.0 - eps


def non_wrapping_intervals(arc: Arc) -> list[tuple[float, float]]:
    """*arc* as non-wrapping intervals within ``[0, 360]``."""
    return list(arc_intervals(arc.start, arc.extent))


class ArcUnion:
    """A union of arcs supporting coverage queries."""

    def __init__(self, arcs: Iterable[Arc] = ()):
        self.arcs: list[Arc] = []
        for arc in arcs:
            self.add(arc)

    def add(self, arc: Arc) -> None:
        self.arcs.append(arc)

    def _merged_intervals(self) -> list[tuple[float, float]]:
        """Merged, sorted, non-wrapping intervals of the union."""
        raw: list[tuple[float, float]] = []
        for arc in self.arcs:
            raw.extend(non_wrapping_intervals(arc))
        return merge_intervals(raw)

    @property
    def is_full_circle(self) -> bool:
        """Does the union cover all of ``[0, 360]``?  (Theorem 4's test.)"""
        if any(is_full(arc) for arc in self.arcs):
            return True
        return covers_full_circle(self._merged_intervals())

    def measure(self) -> float:
        """Total angular measure of the union, in degrees (<= 360)."""
        if any(is_full(arc) for arc in self.arcs):
            return 360.0
        return min(360.0, sum(hi - lo for lo, hi in self._merged_intervals()))

    def contains(self, angle: float) -> bool:
        return any(arc_contains(arc, angle) for arc in self.arcs)

    def gaps(self) -> list[tuple[float, float]]:
        """Uncovered intervals of ``[0, 360)`` (diagnostics)."""
        if self.is_full_circle:
            return []
        merged = self._merged_intervals()
        if not merged:
            return [(0.0, 360.0)]
        out: list[tuple[float, float]] = []
        if merged[0][0] > EPS:
            out.append((0.0, merged[0][0]))
        for (_, hi), (lo, _) in zip(merged, merged[1:]):
            if lo - hi > EPS:
                out.append((hi, lo))
        if merged[-1][1] < 360.0 - EPS:
            out.append((merged[-1][1], 360.0))
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"ArcUnion({self.arcs!r})"


def disk_cover_union(
    p: Sequence[float],
    covers: Iterable[Sequence[float]],
    radius: float,
) -> ArcUnion:
    """Union of *p*'s cover angles for every point in *covers*."""
    union = ArcUnion()
    for q in covers:
        arc = cover_angle(p, q, radius)
        if arc is not None:
            union.add(arc)
    return union


def is_disk_covered(p, covers, radius) -> bool:
    return disk_cover_union(p, covers, radius).is_full_circle


def uncovered_points(
    p: Sequence[float],
    covers: Iterable[Sequence[float]],
    radius: float,
    samples: int = 64,
) -> list[tuple[float, float]]:
    """Boundary points of :math:`A(p)` not covered by any cover disk
    (uses true membership, not cover angles)."""
    px, py = float(p[0]), float(p[1])
    cov = [(float(q[0]), float(q[1])) for q in covers]
    out = []
    for i in range(samples):
        ang = 2.0 * math.pi * i / samples
        x, y = px + radius * math.cos(ang), py + radius * math.sin(ang)
        if not any(math.hypot(x - cx, y - cy) <= radius + 1e-9 for cx, cy in cov):
            out.append((x, y))
    return out


def update_uncovered(remaining_ids, acked_ids, positions, radius, *, geometry=None) -> set[int]:
    acked = set(acked_ids)
    positions = np.asarray(positions, dtype=float)
    ack_pts = [positions[i] for i in acked]
    out: set[int] = set()
    for p in remaining_ids:
        if p in acked:
            continue
        if not is_disk_covered(positions[p], ack_pts, radius):
            out.add(p)
    return out


def _coverage_arcs(ids, positions, radius):
    arcs = {}
    for p in ids:
        row = {}
        for q in ids:
            row[q] = cover_angle(positions[p], positions[q], radius)
        arcs[p] = row
    return arcs


def _covered(p, chosen, arcs) -> bool:
    union = ArcUnion()
    for q in chosen:
        arc = arcs[p][q]
        if arc is not None:
            union.add(arc)
    return union.is_full_circle


def forced_members(ids, positions, radius) -> set[int]:
    positions = np.asarray(positions, dtype=float)
    ids = list(ids)
    forced = set()
    for p in ids:
        others = [positions[q] for q in ids if q != p]
        if not is_disk_covered(positions[p], others, radius):
            forced.add(p)
    return forced


def greedy_cover_set(ids, positions, radius, *, geometry=None) -> set[int]:
    positions = np.asarray(positions, dtype=float)
    ids = sorted(set(ids))
    if not ids:
        return set()
    arcs = _coverage_arcs(ids, positions, radius)
    chosen = forced_members(ids, positions, radius)
    uncovered = {p for p in ids if p not in chosen and not _covered(p, chosen, arcs)}

    while uncovered:
        best = None
        best_key = None
        for cand in ids:
            if cand in chosen:
                continue
            with_cand = chosen | {cand}
            newly = sum(1 for p in uncovered if _covered(p, with_cand, arcs))
            gain = 0.0
            for p in uncovered:
                arc = arcs[p][cand]
                if arc is not None:
                    gain += arc.extent
            key = (newly, gain, -cand)
            if best_key is None or key > best_key:
                best, best_key = cand, key
        chosen.add(best)
        uncovered = {p for p in uncovered if not _covered(p, chosen, arcs)}
    return chosen


def minimum_cover_set(ids, positions, radius, max_exact=24, *, geometry=None) -> set[int]:
    positions = np.asarray(positions, dtype=float)
    ids = sorted(set(ids))
    if not ids:
        return set()
    greedy = greedy_cover_set(ids, positions, radius)
    if len(ids) > max_exact:
        return greedy

    arcs = _coverage_arcs(ids, positions, radius)
    forced = forced_members(ids, positions, radius)
    free = [p for p in ids if p not in forced]

    best: set[int] = set(greedy)

    def search(index, chosen, uncovered):
        nonlocal best
        if len(chosen) >= len(best):
            return
        if not uncovered:
            best = set(chosen)
            return
        if index == len(free):
            return
        remaining = free[index:]
        for p in uncovered:
            if p not in remaining and not _covered(p, chosen | set(remaining), arcs):
                return
        cand = free[index]
        with_cand = chosen | {cand}
        newly = {p for p in uncovered if p == cand or _covered(p, with_cand, arcs)}
        search(index + 1, with_cand, uncovered - newly)
        search(index + 1, chosen, uncovered)

    start = set(forced)
    search(0, start, {p for p in ids if p not in start and not _covered(p, start, arcs)})
    return best

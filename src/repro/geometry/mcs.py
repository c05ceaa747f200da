"""Minimum cover set computation (paper Theorem 2).

Reference [18] of the paper ("Location-aided Geometry-based Broadcast",
submitted for publication at the time) gives an :math:`O(n^{4/3})` exact
algorithm we cannot access.  As recorded in DESIGN.md (substitution #3), we
provide:

* :func:`greedy_cover_set` -- an :math:`O(n^2 \\log n)`-ish greedy that at
  each step adds the candidate covering the most still-uncovered members
  (always returns a valid cover set; used by LAMM at simulation time);
* :func:`minimum_cover_set` -- exact minimum via branch & bound seeded with
  the greedy bound and the *forced* members (nodes no other member can
  cover), practical for the neighborhood sizes the paper simulates
  (n up to a few tens).

Both operate over the paper's own coverage predicate (Theorem 4's angle
test), so any returned set satisfies Definition 1 by construction --
exactly what Theorem 1 needs for LAMM's correctness.  Minimality only
affects the constant-factor control-frame savings.

Both run on a :class:`~repro.geometry.cover.CoverGeometry`: the one passed
as ``geometry=`` (LAMM keeps one per topology), else a one-shot geometry
over *positions*.  A result depends only on the member set, the positions
and the radius, so each is memoised on the geometry by the sorted tuple of
member ids; callers get a fresh ``set`` they may mutate.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.geometry.arcs import covers_full_circle, merge_intervals
from repro.geometry.cover import CoverGeometry, _resolve

__all__ = ["greedy_cover_set", "minimum_cover_set", "forced_members"]


def _forced(arcs: dict[int, dict], ids: Sequence[int]) -> set[int]:
    """Forced members of *ids* from their :meth:`CoverGeometry.table`."""
    forced = set()
    for p in ids:
        row = arcs[p]
        raw = [iv for q in ids if q != p and row[q] is not None for iv in row[q][0]]
        if not covers_full_circle(merge_intervals(raw)):
            forced.add(p)
    return forced


def forced_members(
    ids: Sequence[int],
    positions: np.ndarray,
    radius: float,
) -> set[int]:
    """Members that belong to *every* cover set of ``S``: nodes whose disk
    is not covered even by all the other members together."""
    ids = list(ids)
    return _forced(CoverGeometry(positions, radius).table(ids), ids)


def _greedy(geometry: CoverGeometry, ids: list[int]) -> set[int]:
    """The greedy loop over sorted, distinct *ids*.

    ``merged[p]`` holds the merged intervals of *p*'s cover angles for the
    members chosen so far, so testing a candidate merges in only its one
    or two intervals (exact: see :func:`~repro.geometry.arcs.merge_intervals`).
    """
    arcs = geometry.table(ids)
    chosen = _forced(arcs, ids)
    merged = {}
    for p in ids:
        if p not in chosen:
            row = arcs[p]
            merged[p] = merge_intervals(
                [iv for q in chosen if row[q] is not None for iv in row[q][0]]
            )
    # Keep building this set by these comprehensions: its iteration order
    # fixes the order of the float ``gain`` sums below, which break ties.
    uncovered = {p for p in ids if p not in chosen and not covers_full_circle(merged[p])}

    while uncovered:
        best = None
        best_key = None
        for cand in ids:
            if cand in chosen:
                continue
            newly = 0
            gain = 0.0
            for p in uncovered:
                entry = arcs[p][cand]
                if entry is not None:
                    gain += entry[1]
                    if p == cand or covers_full_circle(merge_intervals([*merged[p], *entry[0]])):
                        newly += 1
            key = (newly, gain, -cand)
            if best_key is None or key > best_key:
                best, best_key = cand, key
        chosen.add(best)  # a candidate always covers itself
        for p in uncovered:
            entry = arcs[p][best]
            if entry is not None:
                merged[p] = merge_intervals([*merged[p], *entry[0]])
        uncovered = {p for p in uncovered if not covers_full_circle(merged[p])}
    return chosen


def _greedy_set(geometry: CoverGeometry, key: tuple[int, ...]) -> tuple[int, ...]:
    found = geometry.greedy_sets.get(key)
    if found is None:
        found = geometry.greedy_sets[key] = tuple(sorted(_greedy(geometry, list(key))))
    return found


def greedy_cover_set(
    ids: Iterable[int],
    positions: np.ndarray,
    radius: float,
    *,
    geometry: CoverGeometry | None = None,
) -> set[int]:
    """Greedy cover set of ``S`` (ids index into *positions*).

    Starts from the forced members, then repeatedly adds the candidate that
    newly covers the most still-uncovered members (ties: larger total
    residual arc measure, then smaller id, for determinism).
    """
    key = tuple(sorted(set(ids)))
    if not key:
        return set()
    return set(_greedy_set(_resolve(geometry, positions, radius), key))


def minimum_cover_set(
    ids: Iterable[int],
    positions: np.ndarray,
    radius: float,
    max_exact: int = 24,
    *,
    geometry: CoverGeometry | None = None,
) -> set[int]:
    """Exact minimum cover set of ``S`` by branch & bound.

    Falls back to the greedy result when ``len(S) > max_exact`` (the search
    is exponential in the worst case; the paper's neighborhoods stay well
    under this limit at its default density).
    """
    key = tuple(sorted(set(ids)))
    if not key:
        return set()
    geometry = _resolve(geometry, positions, radius)
    greedy = _greedy_set(geometry, key)
    if len(key) > max_exact:
        return set(greedy)
    found = geometry.exact_sets.get(key)
    if found is None:
        found = geometry.exact_sets[key] = tuple(sorted(_exact(geometry, list(key), greedy)))
    return set(found)


def _exact(geometry: CoverGeometry, ids: list[int], greedy: tuple[int, ...]) -> set[int]:
    covered = geometry.covered
    forced = _forced(geometry.table(ids), ids)
    # Candidates that could still help: everything not forced.
    free = [p for p in ids if p not in forced]

    best: set[int] = set(greedy)

    def search(index: int, chosen: set[int], uncovered: set[int]) -> None:
        nonlocal best
        if len(chosen) >= len(best):
            return
        if not uncovered:
            best = set(chosen)
            return
        if index == len(free):
            return
        # Feasibility prune: every uncovered node must still be coverable by
        # chosen + remaining candidates (it always is: itself is remaining
        # unless skipped).  Prune nodes that can no longer be covered.
        remaining = free[index:]
        for p in uncovered:
            if p not in remaining and not covered(p, chosen | set(remaining)):
                return

        cand = free[index]
        # Branch 1: include cand.
        with_cand = chosen | {cand}
        newly = {p for p in uncovered if p == cand or covered(p, with_cand)}
        search(index + 1, with_cand, uncovered - newly)
        # Branch 2: exclude cand.
        search(index + 1, chosen, uncovered)

    start = set(forced)
    search(0, start, {p for p in ids if p not in start and not covered(p, start)})
    return best

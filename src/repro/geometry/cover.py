"""Cover angles, disk coverage, cover sets, and UPDATE (paper Section 5).

Definitions reproduced from the paper (all stations share transmission
radius ``R``; :math:`A(s)` is the closed disk of radius ``R`` around ``s``):

* **Definition 1** -- ``S'`` is a *cover set* of ``S`` iff
  :math:`A(S') = A(S)` where :math:`A(S) = \\bigcup_{s \\in S} A(s)`.
* **Definition 2** -- the *cover angle* of ``p`` for ``q`` is the angular
  interval of :math:`A(p)`'s boundary lying inside :math:`A(q)`:
  ``[theta - gamma, theta + gamma]`` with ``theta`` the bearing of ``q``
  from ``p`` and ``gamma = arccos(d / 2R)``.  Co-located nodes have cover
  angle ``[0, 360]``; nodes more than ``R`` apart have cover angle
  ``empty``.
* **Theorem 4** -- if the union of ``p``'s cover angles for the nodes of a
  set ``C`` is ``[0, 360]``, then :math:`A(p) \\subseteq A(C)`.

Why the ``d > R -> empty`` clause is load-bearing: for any point ``x`` in
:math:`A(p)`, let ``y`` be the boundary point of :math:`A(p)` on the ray
from ``p`` through ``x``.  Boundary coverage gives ``y \\in A(c)`` for some
``c \\in C`` with ``d(p, c) <= R``; since ``x`` lies on the segment
``[p, y]`` and both endpoints are within ``R`` of ``c``, convexity of the
disk puts ``x \\in A(c)``.  With covers farther than ``R`` the
``d(p, c) <= R`` step fails and boundary coverage would *not* imply area
coverage -- so the paper's restriction to neighbors is what makes Theorem 4
sound, and we implement exactly that restriction.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from repro.geometry.arcs import (
    Arc,
    arc_intervals,
    covers_full_circle,
    merge_intervals,
    span_from_endpoints,
)

__all__ = [
    "CoverGeometry",
    "cover_angle",
    "is_disk_covered",
    "is_cover_set",
    "update_uncovered",
]

#: Distance slack absorbing float noise (positions are O(1) coordinates).
EPS = 1e-12


def _check_radius(radius: float) -> float:
    # Written so NaN fails: a NaN radius would make every pair co-located
    # (a full-circle cover angle) and an infinite one every pair adjacent.
    if not (radius > 0 and math.isfinite(radius)):
        raise ValueError(f"radius must be positive and finite, got {radius}")
    return radius


def _cover_span(
    px: float, py: float, qx: float, qy: float, radius: float
) -> tuple[float, float] | None:
    """``(start, extent)`` of *p*'s cover angle for *q*, or None when empty
    (Definition 2's arithmetic)."""
    d = math.hypot(qx - px, qy - py)
    # Any NaN or infinite coordinate makes d NaN or infinite.
    if not math.isfinite(d):
        raise ValueError(f"positions must be finite, got ({px}, {py}) and ({qx}, {qy})")
    if d > radius + EPS:
        return None
    if d <= EPS:
        return 0.0, 360.0
    gamma = math.degrees(math.acos(min(1.0, d / (2.0 * radius))))
    theta = math.degrees(math.atan2(qy - py, qx - px))
    return span_from_endpoints(theta - gamma, theta + gamma)


def cover_angle(
    p: Sequence[float],
    q: Sequence[float],
    radius: float,
) -> Arc | None:
    """The cover angle of *p* for *q* (Definition 2).

    Returns ``None`` for the empty cover angle (nodes more than ``radius``
    apart) and a full-circle :class:`Arc` for co-located nodes.  Raises
    ``ValueError`` for a non-finite position or radius.
    """
    span = _cover_span(
        float(p[0]), float(p[1]), float(q[0]), float(q[1]), _check_radius(radius)
    )
    return None if span is None else Arc(*span)


class CoverGeometry:
    """Theorem 4's coverage test over one positions array, with each
    ordered pair's cover angle computed at most once.

    LAMM computes ``MCS(S)`` and runs ``UPDATE(S, S_ACK)`` every batch
    round, mostly over members it has asked about before on the same
    topology.  This object keeps, for the array it was built on:

    * the cover angle of every ordered pair ``(p, q)`` asked about so far,
      as its non-wrapping ``(lo, hi)`` intervals plus its extent (the
      :func:`cover_angle` arithmetic, bit for bit);
    * ``greedy_sets`` and ``exact_sets``: the cover sets solved on it, as
      sorted id tuples keyed by the sorted tuple of distinct member ids
      (see :mod:`repro.geometry.mcs`).

    It is valid while the array is not written in place.  The simulator
    never does that: mobility replaces the array and beacon-mode LAMM
    builds a fresh one per round, so a holder keeps one geometry per array
    object (``geometry.positions is positions``).  Rows may be NaN (members
    with unknown locations) as long as no query names them; reading a
    non-finite position raises ``ValueError``.
    """

    __slots__ = ("positions", "radius", "_coords", "_rows", "greedy_sets", "exact_sets")

    def __init__(self, positions: np.ndarray, radius: float):
        self.radius = _check_radius(radius)
        self.positions = np.asarray(positions, dtype=float)
        if self.positions.ndim != 2 or self.positions.shape[1] != 2:
            raise ValueError(f"positions must have shape (n, 2), got {self.positions.shape}")
        self._coords: list[list[float]] = self.positions.tolist()
        #: ``_rows[p][q]``: *p*'s cover angle for *q* (see :meth:`table`),
        #: filled on first use.
        self._rows: dict[int, dict[int, tuple | None]] = {}
        self.greedy_sets: dict[tuple[int, ...], tuple[int, ...]] = {}
        self.exact_sets: dict[tuple[int, ...], tuple[int, ...]] = {}

    def _row(self, p: int) -> dict[int, tuple | None]:
        row = self._rows.get(p)
        if row is None:
            row = self._rows[p] = {}
        return row

    def _fill(self, p: int, q: int, row: dict) -> tuple | None:
        span = _cover_span(*self._coords[p], *self._coords[q], self.radius)
        entry = row[q] = None if span is None else (arc_intervals(*span), span[1])
        return entry

    def table(self, ids: Sequence[int]) -> dict[int, dict[int, tuple | None]]:
        """Rows of cover angles: ``table[p][q]`` is *p*'s cover angle for
        *q* as ``(intervals, extent)``, or None when it is empty, for every
        *p*, *q* in *ids* (a row may hold other members too)."""
        table = {}
        for p in ids:
            row = table[p] = self._row(p)
            for q in ids:
                if q not in row:
                    self._fill(p, q, row)
        return table

    def covered(self, p: int, covers: Iterable[int]) -> bool:
        """Is :math:`A(p)` inside the disks of the nodes *covers*?"""
        row = self._row(p)
        raw: list[tuple[float, float]] = []
        for q in covers:
            entry = row[q] if q in row else self._fill(p, q, row)
            if entry is not None:
                raw.extend(entry[0])
        return covers_full_circle(merge_intervals(raw))


def _resolve(
    geometry: CoverGeometry | None, positions: np.ndarray, radius: float
) -> CoverGeometry:
    """*geometry*, checked to be built on *positions* and *radius*, or a
    one-shot geometry when it is None."""
    if geometry is None:
        return CoverGeometry(positions, radius)
    if geometry.positions is not positions or geometry.radius != radius:
        raise ValueError("geometry was built on other positions or another radius")
    return geometry


def is_disk_covered(
    p: Sequence[float],
    covers: Iterable[Sequence[float]],
    radius: float,
) -> bool:
    """Theorem 4's test: is :math:`A(p)` covered by the disks of *covers*?

    Sound but (deliberately, like the paper) not complete: only covers
    within ``radius`` of *p* contribute.
    """
    points = [p, *covers]
    geometry = CoverGeometry(np.array(points, dtype=float), radius)
    return geometry.covered(0, range(1, len(points)))


def is_cover_set(
    subset_ids: Iterable[int],
    all_ids: Iterable[int],
    positions: np.ndarray,
    radius: float,
) -> bool:
    """Definition 1 via Theorem 4: is ``S'`` (given by *subset_ids*) a cover
    set of ``S`` (*all_ids*)?

    ``A(S') = A(S)`` iff every member of ``S`` has its disk inside
    ``A(S')``; members of ``S'`` are trivially covered (they cover
    themselves with a full-circle cover angle).
    """
    subset = set(subset_ids)
    all_set = set(all_ids)
    if not subset <= all_set:
        raise ValueError(f"{subset - all_set} not members of S")
    geometry = CoverGeometry(positions, radius)
    return all(geometry.covered(p, subset) for p in all_set - subset)


def update_uncovered(
    remaining_ids: Iterable[int],
    acked_ids: Iterable[int],
    positions: np.ndarray,
    radius: float,
    *,
    geometry: CoverGeometry | None = None,
) -> set[int]:
    """The paper's ``UPDATE(S, S_ACK)`` procedure (Theorem 3).

    Returns the members of ``S`` whose coverage disk is *not* contained in
    :math:`A(S_{ACK})` -- the nodes that still need to be served in the next
    batch round.  Nodes in ``S_ACK`` are trivially covered and drop out.
    *geometry*, when given, is a :class:`CoverGeometry` built on
    *positions* and *radius* whose cached cover angles are reused.
    """
    geometry = _resolve(geometry, positions, radius)
    acked = set(acked_ids)
    out: set[int] = set()
    for p in remaining_ids:
        if p in acked:
            continue
        if not geometry.covered(p, acked):
            out.add(p)
    return out

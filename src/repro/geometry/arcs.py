"""Circular-arc interval algebra.

The paper's Definition 2 expresses cover angles as intervals
``[angle(cpa), angle(cpb)]`` of degrees measured counter-clockwise from due
east.  Theorem 4 then asks whether the *union* of such intervals is the full
circle ``[0, 360]``.  This module provides the small amount of interval
arithmetic that requires, careful about wrap-around.

Angles are degrees.  An :class:`Arc` is directed counter-clockwise from
``start`` and spans ``extent`` degrees (``0 < extent <= 360``); an extent of
360 is the full circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "Arc",
    "arc_intervals",
    "covers_full_circle",
    "merge_intervals",
    "normalize_deg",
    "span_from_endpoints",
]

#: Slack used when merging/measuring arcs, absorbing float noise from the
#: acos/atan2 computations upstream.
EPS = 1e-9


def normalize_deg(angle: float) -> float:
    """Map *angle* into ``[0, 360)``."""
    a = math.fmod(angle, 360.0)
    if a < 0:
        a += 360.0
    # A tiny negative input rounds to exactly 360.0 above.
    return 0.0 if a >= 360.0 else a


def span_from_endpoints(alpha: float, beta: float) -> tuple[float, float]:
    """``(start, extent)`` of the arc from *alpha* counter-clockwise to
    *beta*; equal endpoints denote the full circle."""
    alpha, beta = normalize_deg(alpha), normalize_deg(beta)
    extent = normalize_deg(beta - alpha)
    if extent == 0.0:
        extent = 360.0
    return alpha, extent


def arc_intervals(start: float, extent: float) -> tuple[tuple[float, float], ...]:
    """The arc ``[start, start + extent]`` (*start* normalized) as one or
    two non-wrapping intervals within ``[0, 360]``."""
    if extent >= 360.0 - EPS:
        return ((0.0, 360.0),)
    end = start + extent
    if end <= 360.0:
        return ((start, end),)
    return ((start, 360.0), (0.0, end - 360.0))


def merge_intervals(raw: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Sort *raw* in place and merge it into sorted components; intervals
    less than ``EPS`` apart join.

    Each component joins the closed intervals ``[lo, hi + EPS]`` of its
    members and reports ``(min lo, max hi)``, so merging an already merged
    list with more intervals gives exactly the components of merging all
    of them at once.
    """
    raw.sort()
    it = iter(raw)
    merged = [next(it)] if raw else []
    for lo, hi in it:
        last_lo, last_hi = merged[-1]
        if lo > last_hi + EPS:
            merged.append((lo, hi))
        elif hi > last_hi:
            merged[-1] = (last_lo, hi)
    return merged


def covers_full_circle(merged: list[tuple[float, float]]) -> bool:
    """Do merged intervals (:func:`merge_intervals`) cover ``[0, 360]``?"""
    return len(merged) == 1 and merged[0][0] <= EPS and merged[0][1] >= 360.0 - EPS


@dataclass(frozen=True)
class Arc:
    """A counter-clockwise arc ``[start, start + extent]`` in degrees."""

    start: float
    extent: float

    def __post_init__(self):
        if not 0.0 < self.extent <= 360.0:
            raise ValueError(f"extent must be in (0, 360], got {self.extent}")
        object.__setattr__(self, "start", normalize_deg(self.start))

    @property
    def end(self) -> float:
        return normalize_deg(self.start + self.extent)

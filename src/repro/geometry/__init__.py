"""Computational geometry for LAMM (paper Section 5).

* :mod:`repro.geometry.arcs` -- circular-arc interval algebra;
* :mod:`repro.geometry.cover` -- cover angles (Definition 2), the angle-based
  disk-coverage test (Theorem 4) over a per-topology
  :class:`~repro.geometry.cover.CoverGeometry`, cover-set predicate
  (Definition 1) and the ``UPDATE`` procedure (Theorem 3);
* :mod:`repro.geometry.mcs` -- minimum cover set computation (Theorem 2),
  exact (branch & bound) and greedy.
"""

from repro.geometry.arcs import Arc
from repro.geometry.cover import (
    CoverGeometry,
    cover_angle,
    is_disk_covered,
    is_cover_set,
    update_uncovered,
)
from repro.geometry.mcs import minimum_cover_set, greedy_cover_set

__all__ = [
    "Arc",
    "CoverGeometry",
    "cover_angle",
    "is_disk_covered",
    "is_cover_set",
    "update_uncovered",
    "minimum_cover_set",
    "greedy_cover_set",
]

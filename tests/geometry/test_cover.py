"""Tests for cover angles, disk coverage and UPDATE (paper Section 5).

The hypothesis tests check the paper's Theorem 4 against a brute-force
Monte-Carlo oracle: whenever the angle test claims coverage, no sampled
point of the disk may be uncovered (soundness).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry.cover import (
    cover_angle,
    is_cover_set,
    is_disk_covered,
    update_uncovered,
)
from tests.geometry.reference_cover import arc_contains, is_full

R = 0.2

coords = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
points = st.tuples(coords, coords)


def disk_samples(p, radius, n=200, seed=0):
    rng = np.random.default_rng(seed)
    r = radius * np.sqrt(rng.random(n))
    a = 2 * np.pi * rng.random(n)
    return np.c_[p[0] + r * np.cos(a), p[1] + r * np.sin(a)]


def truly_covered(p, covers, radius, n=200, seed=0):
    """Monte-Carlo oracle for A(p) subseteq A(covers)."""
    pts = disk_samples(p, radius, n, seed)
    covers = np.asarray(covers, dtype=float)
    if covers.size == 0:
        return False
    d = np.sqrt(((pts[:, None, :] - covers[None, :, :]) ** 2).sum(axis=2))
    return bool((d.min(axis=1) <= radius + 1e-9).all())


class TestCoverAngle:
    def test_colocated_nodes_full_circle(self):
        arc = cover_angle((0.5, 0.5), (0.5, 0.5), R)
        assert arc is not None and is_full(arc)

    def test_beyond_radius_is_empty(self):
        assert cover_angle((0.0, 0.0), (0.25, 0.0), R) is None

    def test_at_exactly_radius_is_60_degrees_halfwidth(self):
        """d = R gives gamma = arccos(1/2) = 60 deg -> extent 120 deg."""
        arc = cover_angle((0.0, 0.0), (R, 0.0), R)
        assert arc is not None
        assert arc.extent == pytest.approx(120.0, abs=1e-6)
        # Centred on the bearing of q (due east = 0 deg).
        assert arc_contains(arc, 0.0)
        assert arc_contains(arc, 59.9) and arc_contains(arc, -59.9 % 360)
        assert not arc_contains(arc, 61.0)

    def test_arc_centred_on_bearing(self):
        arc = cover_angle((0.0, 0.0), (0.0, 0.1), R)  # q due north
        assert arc is not None
        mid = (arc.start + arc.extent / 2) % 360
        assert mid == pytest.approx(90.0, abs=1e-6)

    def test_closer_node_covers_wider_arc(self):
        near = cover_angle((0.0, 0.0), (0.05, 0.0), R)
        far = cover_angle((0.0, 0.0), (0.15, 0.0), R)
        assert near.extent > far.extent

    @pytest.mark.parametrize("radius", [0.0, -0.2, math.nan, math.inf, -math.inf])
    def test_invalid_radius(self, radius):
        """A NaN radius used to give a full-circle arc (coverage UPDATE
        does not have) and an infinite one a half circle."""
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            cover_angle((0.0, 0.0), (0.1, 0.0), radius)

    @pytest.mark.parametrize(
        "p, q", [((math.nan, 0.0), (0.1, 0.0)), ((0.0, 0.0), (0.1, math.inf))]
    )
    def test_non_finite_position(self, p, q):
        with pytest.raises(ValueError, match="positions must be finite"):
            cover_angle(p, q, R)

    @given(points, points)
    def test_cover_angle_formula(self, p, q):
        """gamma = arccos(d / 2R) whenever the angle is non-empty."""
        d = math.dist(p, q)
        arc = cover_angle(p, q, R)
        if d > R + 1e-9:
            assert arc is None
        elif d > 1e-9:
            assert arc is not None
            gamma = math.degrees(math.acos(d / (2 * R)))
            assert arc.extent == pytest.approx(2 * gamma, abs=1e-6)

    @given(points, points)
    def test_boundary_points_of_arc_inside_q(self, p, q):
        """Every boundary point of A(p) inside the cover angle lies in A(q)
        (Definition 2's geometric meaning)."""
        arc = cover_angle(p, q, R)
        if arc is None or is_full(arc):
            return
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
            ang = math.radians(arc.start + frac * arc.extent)
            x = (p[0] + R * math.cos(ang), p[1] + R * math.sin(ang))
            assert math.dist(x, q) <= R + 1e-6

    @given(points, points)
    def test_points_outside_arc_outside_q(self, p, q):
        arc = cover_angle(p, q, R)
        if arc is None or arc.extent > 350.0:
            return
        # Midpoint of the complementary arc.
        ang = math.radians(arc.start + arc.extent + (360 - arc.extent) / 2)
        x = (p[0] + R * math.cos(ang), p[1] + R * math.sin(ang))
        assert math.dist(x, q) > R - 1e-6


class TestIsDiskCovered:
    def test_self_cover(self):
        assert is_disk_covered((0.5, 0.5), [(0.5, 0.5)], R)

    def test_empty_cover_set(self):
        assert not is_disk_covered((0.5, 0.5), [], R)

    def test_single_distinct_node_cannot_cover(self):
        assert not is_disk_covered((0.5, 0.5), [(0.55, 0.5)], R)

    def test_tight_ring_covers(self):
        """Six nodes at distance d << R around p cover A(p): each cover
        angle is ~2*arccos(d/2R) ~ 160 deg wide."""
        p = (0.5, 0.5)
        ring = [
            (p[0] + 0.05 * math.cos(2 * math.pi * i / 6), p[1] + 0.05 * math.sin(2 * math.pi * i / 6))
            for i in range(6)
        ]
        assert is_disk_covered(p, ring, R)
        assert truly_covered(p, ring, R)

    def test_far_ring_does_not_cover(self):
        """Three nodes at distance R have 120-deg cover angles that just
        barely tile; with a gap they fail."""
        p = (0.5, 0.5)
        ring = [
            (p[0] + R * math.cos(a), p[1] + R * math.sin(a))
            for a in (0.0, 2.0, 4.0)  # radians, uneven spacing -> gap
        ]
        assert not is_disk_covered(p, ring, R)

    @settings(max_examples=60)
    @given(points, st.lists(points, min_size=0, max_size=8), st.integers(0, 100))
    def test_angle_test_is_sound(self, p, covers, seed):
        """Theorem 4 soundness: angle-test coverage implies true coverage
        (checked against 200 sampled points of the disk)."""
        if is_disk_covered(p, covers, R):
            assert truly_covered(p, covers, R, seed=seed)

    @settings(max_examples=60)
    @given(points, st.lists(points, min_size=1, max_size=8))
    def test_boundary_gap_means_not_covered(self, p, covers):
        """Completeness on the boundary: a gap in the arc union exposes a
        boundary point outside every *neighboring* cover disk.  (Covers
        farther than R may still cover it -- the paper's test is
        deliberately conservative there -- so restrict to neighbors.)

        The membership check here is *exact* (strict ``> R``), unlike the
        ``reference_cover.uncovered_points`` oracle whose ``+1e-9`` tolerance
        swallows the sub-tolerance gap a cover at distance ~1e-9 from
        ``p`` leaves (the angle test correctly reports that gap)."""
        neigh = [q for q in covers if math.dist(p, q) <= R]
        if not is_disk_covered(p, neigh, R):
            missing = [
                i
                for i in range(256)
                for ang in [2.0 * math.pi * i / 256]
                for x in [(p[0] + R * math.cos(ang), p[1] + R * math.sin(ang))]
                if all(math.dist(x, q) > R for q in neigh)
            ]
            assert missing, "angle test says uncovered but boundary fully covered"


class TestIsCoverSet:
    def test_full_set_is_cover_set(self):
        pos = np.array([[0.5, 0.5], [0.52, 0.5], [0.5, 0.52]])
        assert is_cover_set([0, 1, 2], [0, 1, 2], pos, R)

    def test_subset_must_be_subset(self):
        pos = np.array([[0.5, 0.5], [0.52, 0.5]])
        with pytest.raises(ValueError):
            is_cover_set([5], [0, 1], pos, R)

    def test_colocated_nodes_single_cover(self):
        pos = np.array([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]])
        assert is_cover_set([0], [0, 1, 2], pos, R)

    def test_distant_member_requires_itself(self):
        pos = np.array([[0.2, 0.5], [0.6, 0.5]])  # farther than R apart
        assert not is_cover_set([0], [0, 1], pos, R)
        assert is_cover_set([0, 1], [0, 1], pos, R)


class TestUpdateUncovered:
    def test_acked_nodes_always_drop_out(self):
        pos = np.array([[0.5, 0.5], [0.52, 0.5], [0.5, 0.52]])
        out = update_uncovered({0, 1, 2}, {0, 1, 2}, pos, R)
        assert out == set()

    def test_no_acks_keeps_everything(self):
        pos = np.array([[0.5, 0.5], [0.52, 0.5]])
        assert update_uncovered({0, 1}, set(), pos, R) == {0, 1}

    def test_covered_node_inferred(self):
        """A node ringed by ACKers is inferred served without its own ACK."""
        p = (0.5, 0.5)
        ring = [
            (p[0] + 0.05 * math.cos(2 * math.pi * i / 6), p[1] + 0.05 * math.sin(2 * math.pi * i / 6))
            for i in range(6)
        ]
        pos = np.array([list(p)] + [list(q) for q in ring])
        out = update_uncovered({0}, set(range(1, 7)), pos, R)
        assert out == set()

    def test_uncovered_node_remains(self):
        pos = np.array([[0.5, 0.5], [0.55, 0.5]])
        out = update_uncovered({0}, {1}, pos, R)
        assert out == {0}

    @settings(max_examples=40)
    @given(st.lists(points, min_size=2, max_size=8), st.data())
    def test_update_result_is_subset_and_sound(self, pts, data):
        pos = np.array(pts)
        ids = set(range(len(pts)))
        acked = set(data.draw(st.sets(st.sampled_from(sorted(ids)), max_size=len(ids))))
        out = update_uncovered(ids, acked, pos, R)
        assert out <= ids
        assert out.isdisjoint(acked)
        # Everything dropped (but not ACKed) must be truly covered.
        for p in ids - out - acked:
            assert truly_covered(pos[p], [pos[a] for a in acked], R)

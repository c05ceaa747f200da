"""Unit + property tests for circular-arc algebra."""


import pytest
from hypothesis import given, strategies as st

from repro.geometry.arcs import EPS, Arc, merge_intervals, normalize_deg
from tests.geometry.reference_cover import (
    ArcUnion,
    arc_contains,
    arc_from_endpoints,
    full_arc,
    is_full,
    non_wrapping_intervals,
)

angles = st.floats(min_value=-720.0, max_value=720.0, allow_nan=False)
extents = st.floats(min_value=1e-6, max_value=360.0, allow_nan=False)


class TestNormalize:
    @pytest.mark.parametrize(
        "raw,expected",
        [(0, 0), (360, 0), (-90, 270), (450, 90), (720, 0), (-360, 0)],
    )
    def test_values(self, raw, expected):
        assert normalize_deg(raw) == pytest.approx(expected)

    @given(angles)
    def test_always_in_range(self, a):
        n = normalize_deg(a)
        assert 0.0 <= n < 360.0

    @given(angles)
    def test_idempotent(self, a):
        assert normalize_deg(normalize_deg(a)) == pytest.approx(normalize_deg(a))


class TestArc:
    def test_from_endpoints_simple(self):
        arc = arc_from_endpoints(10, 50)
        assert arc.start == pytest.approx(10)
        assert arc.extent == pytest.approx(40)

    def test_from_endpoints_wrapping(self):
        arc = arc_from_endpoints(350, 10)
        assert arc.start == pytest.approx(350)
        assert arc.extent == pytest.approx(20)

    def test_equal_endpoints_is_full_circle(self):
        assert is_full(arc_from_endpoints(42, 42))

    def test_full(self):
        arc = full_arc()
        assert is_full(arc)
        for a in (0, 90, 359.9):
            assert arc_contains(arc, a)

    def test_contains_interior_and_endpoints(self):
        arc = arc_from_endpoints(30, 60)
        assert arc_contains(arc, 45) and arc_contains(arc, 30) and arc_contains(arc, 60)
        assert not arc_contains(arc, 90) and not arc_contains(arc, 0)

    def test_contains_wrapping(self):
        arc = arc_from_endpoints(350, 10)
        assert arc_contains(arc, 355) and arc_contains(arc, 5) and arc_contains(arc, 0)
        assert not arc_contains(arc, 180)

    def test_intervals_non_wrapping(self):
        assert non_wrapping_intervals(Arc(10, 20)) == [(10, 30)]

    def test_intervals_wrapping_splits(self):
        ivs = non_wrapping_intervals(Arc(350, 20))
        assert ivs == [(350, 360.0), (0.0, 10.0)]

    def test_invalid_extent(self):
        with pytest.raises(ValueError):
            Arc(0, 0)
        with pytest.raises(ValueError):
            Arc(0, 361)

    @given(angles, extents)
    def test_midpoint_always_contained(self, start, extent):
        arc = Arc(start, extent)
        assert arc_contains(arc, arc.start + extent / 2)

    @given(angles, st.floats(min_value=1.0, max_value=358.0))
    def test_antipode_of_midpoint_outside_small_arcs(self, start, extent):
        arc = Arc(start, extent)
        outside = arc.start + extent / 2 + 180.0
        if extent < 178.0:  # margin for the EPS slack
            assert not arc_contains(arc, outside)


class TestArcUnion:
    def test_empty_union_not_full(self):
        u = ArcUnion()
        assert not u.is_full_circle
        assert u.measure() == 0.0
        assert u.gaps() == [(0.0, 360.0)]

    def test_single_full_arc(self):
        u = ArcUnion([full_arc()])
        assert u.is_full_circle
        assert u.measure() == 360.0
        assert u.gaps() == []

    def test_two_halves_make_full(self):
        u = ArcUnion([Arc(0, 180), Arc(180, 180)])
        assert u.is_full_circle

    def test_three_thirds_make_full(self):
        u = ArcUnion([Arc(0, 120), Arc(120, 120), Arc(240, 120)])
        assert u.is_full_circle

    def test_gap_detected(self):
        u = ArcUnion([Arc(0, 120), Arc(120, 120)])
        assert not u.is_full_circle
        gaps = u.gaps()
        assert len(gaps) == 1
        lo, hi = gaps[0]
        assert lo == pytest.approx(240) and hi == pytest.approx(360)

    def test_wrap_around_coverage(self):
        u = ArcUnion([Arc(270, 180), Arc(90, 180)])
        assert u.is_full_circle

    def test_overlapping_arcs_measure(self):
        u = ArcUnion([Arc(0, 100), Arc(50, 100)])
        assert u.measure() == pytest.approx(150)

    def test_contains(self):
        u = ArcUnion([Arc(0, 90), Arc(180, 90)])
        assert u.contains(45) and u.contains(200)
        assert not u.contains(135) and not u.contains(300)

    @given(st.lists(st.tuples(angles, extents), min_size=1, max_size=8))
    def test_measure_bounds(self, raw):
        u = ArcUnion([Arc(s, e) for s, e in raw])
        m = u.measure()
        assert 0.0 < m <= 360.0
        # The union is at least as big as its largest member.
        assert m >= max(e for _, e in raw) - 1e-6

    @given(st.lists(st.tuples(angles, extents), min_size=1, max_size=8))
    def test_full_circle_implies_measure_360(self, raw):
        # Only one direction holds exactly: a union can measure
        # 360 - epsilon (a sliver gap) without being the full circle.
        u = ArcUnion([Arc(s, e) for s, e in raw])
        if u.is_full_circle:
            assert u.measure() == 360.0
        elif u.measure() < 360.0 - 1e-3:
            assert not u.is_full_circle

    @given(st.lists(st.tuples(angles, extents), min_size=1, max_size=6), angles)
    def test_contains_consistent_with_membership(self, raw, probe):
        u = ArcUnion([Arc(s, e) for s, e in raw])
        if u.contains(probe):
            assert any(arc_contains(Arc(s, e), probe) for s, e in raw)

    @given(st.lists(st.tuples(angles, extents), min_size=1, max_size=6), angles)
    def test_gap_points_not_contained(self, raw, _probe):
        u = ArcUnion([Arc(s, e) for s, e in raw])
        for lo, hi in u.gaps():
            if hi - lo > 1e-3:
                mid = (lo + hi) / 2
                assert not u.contains(mid)


#: Endpoints on a coarse grid, nudged by fractions of EPS, so intervals
#: touch, overlap and sit just inside or outside the merge slack.
endpoints = st.builds(
    lambda k, nudge: min(360.0, max(0.0, 45.0 * k + nudge * EPS)),
    st.integers(0, 8),
    st.sampled_from([-1.0, 0.0, 0.5, 1.0, 1.5, 2.0]),
)
intervals = st.tuples(endpoints, endpoints).map(lambda t: (min(t), max(t)))


class TestMergeIntervals:
    @given(st.lists(intervals), st.lists(intervals))
    def test_merging_a_merged_list_is_exact(self, first, more):
        """What lets the cover geometry keep each member's merged
        intervals and merge in one candidate at a time."""
        assert merge_intervals([*merge_intervals(list(first)), *more]) == merge_intervals(
            [*first, *more]
        )

    def test_gap_of_eps_joins_and_wider_gap_splits(self):
        assert merge_intervals([(0.0, 10.0), (10.0 + EPS, 20.0)]) == [(0.0, 20.0)]
        assert merge_intervals([(0.0, 10.0), (10.0 + 2 * EPS, 20.0)]) == [
            (0.0, 10.0),
            (10.0 + 2 * EPS, 20.0),
        ]

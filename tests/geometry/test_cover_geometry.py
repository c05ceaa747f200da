"""CoverGeometry against the reference ``ArcUnion`` geometry.

``repro.geometry`` answers every cover-set question through one
:class:`CoverGeometry`: cached per-pair intervals, members' merged
intervals grown one cover at a time, and a memo of solved member sets.
``tests/geometry/reference_cover.py`` keeps the straightforward version
that rebuilds an ``ArcUnion`` per question; the two must agree exactly.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import cover as cover_mod
from repro.geometry.cover import CoverGeometry, is_disk_covered, update_uncovered
from repro.geometry.mcs import forced_members, greedy_cover_set, minimum_cover_set

from tests.geometry import reference_cover as ref

#: Dyadic coordinates keep ``x + 0.25`` exact, so "exactly R apart" is
#: exact at R = 0.25 and within float noise of R at R = 0.2.
coord = st.one_of(
    st.integers(0, 32).map(lambda k: k / 64),
    st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
)
OFFSETS = {
    "same": (0.0, 0.0),  # co-located pair
    "east": (1.0, 0.0),  # exactly R due east: the arc wraps past 0/360
    "west": (-1.0, 0.0),
    "north": (0.0, 1.0),
    "near_east": (0.5, 0.0),  # closer, still centred on bearing 0
}


@st.composite
def layouts(draw):
    """``(positions, ids, radius)``: members at *ids*, NaN rows elsewhere
    (beacon-mode members whose location is unknown)."""
    radius = draw(st.sampled_from([0.2, 0.25]))
    pts = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=5))
    for base, kind in draw(
        st.lists(st.tuples(st.integers(0, len(pts) - 1), st.sampled_from(sorted(OFFSETS))), max_size=4)
    ):
        (x, y), (dx, dy) = pts[base], OFFSETS[kind]
        pts.append((x + dx * radius, y + dy * radius))
    n_unknown = draw(st.integers(0, 3))
    rows = draw(st.permutations(range(len(pts) + n_unknown)))
    positions = np.full((len(pts) + n_unknown, 2), np.nan)
    ids = sorted(rows[: len(pts)])
    for row, pt in zip(rows, pts):
        positions[row] = pt
    return positions, ids, radius


class TestMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(layouts(), st.data())
    def test_cover_sets_forced_and_update(self, layout, data):
        positions, ids, radius = layout
        geometry = CoverGeometry(positions, radius)
        kw = dict(geometry=geometry)
        assert forced_members(ids, positions, radius) == ref.forced_members(
            ids, positions, radius
        )
        assert greedy_cover_set(ids, positions, radius, **kw) == ref.greedy_cover_set(
            ids, positions, radius
        )
        assert minimum_cover_set(ids, positions, radius, **kw) == ref.minimum_cover_set(
            ids, positions, radius
        )
        # A shrinking working set on the same (now warm) geometry.
        subset = data.draw(st.sets(st.sampled_from(ids)))
        assert greedy_cover_set(subset, positions, radius, **kw) == ref.greedy_cover_set(
            subset, positions, radius
        )
        acked = data.draw(st.sets(st.sampled_from(ids)))
        assert update_uncovered(ids, acked, positions, radius, **kw) == ref.update_uncovered(
            ids, acked, positions, radius
        )

    @settings(max_examples=150, deadline=None)
    @given(layouts())
    def test_disk_test(self, layout):
        positions, ids, radius = layout
        p, covers = positions[ids[0]], [positions[q] for q in ids[1:]]
        ours = is_disk_covered(p, covers, radius)
        assert ours == ref.is_disk_covered(p, covers, radius)
        if ours:  # soundness on the boundary (true disk membership)
            assert not ref.uncovered_points(p, covers, radius)

    def test_exact_search_beyond_hypothesis_sizes(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            pos = 0.5 + 0.2 * (rng.random((11, 2)) - 0.5)
            ids = list(range(11))
            assert minimum_cover_set(ids, pos, 0.2) == ref.minimum_cover_set(ids, pos, 0.2)
            assert minimum_cover_set(ids, pos, 0.2, max_exact=5) == ref.minimum_cover_set(
                ids, pos, 0.2, max_exact=5
            )


class TestCache:
    def test_mutating_a_result_leaves_the_memo_intact(self):
        pos = 0.5 + 0.15 * (np.random.default_rng(2).random((8, 2)) - 0.5)
        ids = list(range(8))
        geometry = CoverGeometry(pos, 0.2)
        for solve in (greedy_cover_set, minimum_cover_set):
            first = solve(ids, pos, 0.2, geometry=geometry)
            expected = set(first)
            first.clear()
            first.add(99)
            assert solve(ids, pos, 0.2, geometry=geometry) == expected

    def test_memo_keys_on_the_member_set(self):
        pos = 0.5 + 0.15 * (np.random.default_rng(3).random((8, 2)) - 0.5)
        geometry = CoverGeometry(pos, 0.2)
        greedy_cover_set([3, 1, 2, 1], pos, 0.2, geometry=geometry)
        greedy_cover_set((1, 2, 3), pos, 0.2, geometry=geometry)
        assert list(geometry.greedy_sets) == [(1, 2, 3)]

    def test_each_pair_is_computed_once(self, monkeypatch):
        calls = []
        span = cover_mod._cover_span

        def counting(*args):
            calls.append(args[:4])
            return span(*args)

        monkeypatch.setattr(cover_mod, "_cover_span", counting)
        pos = 0.5 + 0.2 * (np.random.default_rng(4).random((9, 2)) - 0.5)
        geometry = CoverGeometry(pos, 0.2)
        greedy_cover_set(range(9), pos, 0.2, geometry=geometry)
        greedy_cover_set(range(5), pos, 0.2, geometry=geometry)
        update_uncovered(range(9), {0, 4}, pos, 0.2, geometry=geometry)
        assert len(calls) == 81
        assert len(set(calls)) == 81

    def test_geometry_of_other_positions_rejected(self):
        pos = np.array([[0.5, 0.5], [0.55, 0.5]])
        geometry = CoverGeometry(pos, 0.2)
        with pytest.raises(ValueError, match="other positions"):
            greedy_cover_set([0, 1], pos.copy(), 0.2, geometry=geometry)
        with pytest.raises(ValueError, match="other positions"):
            update_uncovered([0, 1], [0], pos, 0.25, geometry=geometry)

    def test_shape_checked(self):
        with pytest.raises(ValueError, match="shape"):
            CoverGeometry(np.zeros(4), 0.2)


class TestNonFiniteInputs:
    @pytest.mark.parametrize("radius", [math.nan, math.inf])
    def test_cover_sets_and_update_radius(self, radius):
        pos = np.array([[0.5, 0.5], [0.55, 0.5]])
        for call in (
            lambda: greedy_cover_set([0, 1], pos, radius),
            lambda: minimum_cover_set([0, 1], pos, radius),
            lambda: update_uncovered([0, 1], [0], pos, radius),
            lambda: is_disk_covered(pos[0], [pos[1]], radius),
        ):
            with pytest.raises(ValueError, match="radius must be positive and finite"):
                call()

    def test_named_nan_member_rejected(self):
        pos = np.array([[0.5, 0.5], [math.nan, 0.5], [0.52, 0.5]])
        with pytest.raises(ValueError, match="positions must be finite"):
            greedy_cover_set([0, 1, 2], pos, 0.2)
        with pytest.raises(ValueError, match="positions must be finite"):
            update_uncovered([0, 2], [1], pos, 0.2)
        with pytest.raises(ValueError, match="positions must be finite"):
            is_disk_covered(pos[0], [pos[1]], 0.2)

    def test_unnamed_nan_rows_are_never_read(self):
        pos = np.array([[0.5, 0.5], [math.nan, math.nan], [0.5, 0.5]])
        assert greedy_cover_set([0, 2], pos, 0.2) == {0}
        assert update_uncovered([0, 2], [0], pos, 0.2) == set()

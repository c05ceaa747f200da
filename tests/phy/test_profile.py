"""Unit tests for the PhyProfile rate-table API and its propagation hookup."""

import numpy as np
import pytest

from repro.phy.profile import PhyProfile
from repro.phy.propagation import UnitDiskPropagation

MILD = PhyProfile(signal_slots=1, data_slots=(5, 3), range_fractions=(1.0, 0.7))
AGGR = PhyProfile(signal_slots=1, data_slots=(5, 3, 2), range_fractions=(1.0, 0.65, 0.45))


class TestConstruction:
    def test_default_is_single_rate_table2(self):
        p = PhyProfile()
        assert p.signal_slots == 1
        assert p.data_slots == (5,)
        assert p.range_fractions == (1.0,)
        assert p.is_single_rate and p.n_rates == 1

    def test_lists_are_frozen_to_tuples(self):
        p = PhyProfile(data_slots=[5, 3], range_fractions=[1.0, 0.7])
        assert p.data_slots == (5, 3)
        assert p.range_fractions == (1.0, 0.7)
        assert hash(p) == hash(MILD)  # hashable, and value-equal to the tuple form

    def test_frozen(self):
        with pytest.raises(Exception):
            PhyProfile().signal_slots = 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(signal_slots=0),
            dict(data_slots=()),
            dict(data_slots=(5, 0), range_fractions=(1.0, 0.5)),
            dict(data_slots=(5, 3)),  # length mismatch with default fractions
            dict(data_slots=(5, 3), range_fractions=(0.9, 0.7)),  # base != 1.0
            dict(data_slots=(5, 3), range_fractions=(1.0, 0.0)),
            dict(data_slots=(5, 3), range_fractions=(1.0, 1.2)),
            dict(data_slots=(3, 5), range_fractions=(1.0, 0.7)),  # slower higher MCS
            dict(data_slots=(5, 3, 3), range_fractions=(1.0, 0.5, 0.7)),  # range grows
        ],
    )
    def test_invalid_tables_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PhyProfile(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(signal_slots=float("nan")),
            dict(signal_slots=float("inf")),
            dict(data_slots=(float("nan"),)),
            dict(data_slots=(float("inf"),)),
        ],
        ids=["signal-nan", "signal-inf", "data-nan", "data-inf"],
    )
    def test_non_finite_slots_rejected(self, kwargs):
        """Caught here, not as an invalid kernel delay (NaN) or an
        ``OverflowError`` (infinity) deep inside a run."""
        with pytest.raises(ValueError, match="slots"):
            PhyProfile(**kwargs)


class TestLookups:
    def test_data_airtime(self):
        assert PhyProfile().data_airtime() == 5
        assert AGGR.data_airtime(0) == 5
        assert AGGR.data_airtime(2) == 2
        with pytest.raises(ValueError):
            AGGR.data_airtime(3)
        with pytest.raises(ValueError):
            AGGR.data_airtime(-1)

    def test_power_thresholds_monotone(self):
        th = AGGR.power_thresholds(radius=0.2, eta=2.0)
        assert len(th) == 3
        assert th[0] == pytest.approx(0.2**-2.0)
        assert th[0] < th[1] < th[2]  # faster rates need more power

    def test_mcs_for_distance(self):
        r = 0.2
        assert AGGR.mcs_for_distance(0.0, r) == 2
        assert AGGR.mcs_for_distance(0.45 * r, r) == 2
        assert AGGR.mcs_for_distance(0.5 * r, r) == 1
        assert AGGR.mcs_for_distance(0.65 * r, r) == 1
        assert AGGR.mcs_for_distance(0.8 * r, r) == 0
        assert AGGR.mcs_for_distance(r, r) == 0
        assert AGGR.mcs_for_distance(1.01 * r, r) == -1

    def test_best_mcs_picks_fastest_reachable(self):
        assert AGGR.best_mcs(0) == 0
        assert AGGR.best_mcs(1) == 1
        assert AGGR.best_mcs(2) == 2
        assert AGGR.best_mcs(99) == 2  # clamped to the table

    def test_best_mcs_out_of_range_receiver_forces_base(self):
        assert AGGR.best_mcs(-1) == 0

    def test_best_mcs_ties_break_to_lowest_index(self):
        # A degenerate all-equal table must always pick MCS 0 -- the
        # bit-identity hinge of the no-op-profile property test.
        degenerate = PhyProfile(data_slots=(5, 5, 5), range_fractions=(1.0, 1.0, 1.0))
        for m in range(3):
            assert degenerate.best_mcs(m) == 0


class TestLinkMcs:
    def _prop(self):
        positions = np.array([[0.0, 0.5], [0.05, 0.5], [0.11, 0.5], [0.19, 0.5]])
        return UnitDiskPropagation(positions, radius=0.2)

    def test_matches_distance_rule(self):
        prop = self._prop()
        table = prop.link_mcs(AGGR)
        for s in range(prop.n_nodes):
            for r in range(prop.n_nodes):
                if s == r:
                    continue
                d = float(prop.distances[s, r])
                assert table[s][r] == AGGR.mcs_for_distance(d, prop.radius), (s, r)

    def test_out_of_range_is_minus_one(self):
        prop = UnitDiskPropagation(np.array([[0.0, 0.5], [0.9, 0.5]]), radius=0.2)
        assert prop.link_mcs(AGGR)[0][1] == -1

    def test_memoised_per_profile(self):
        prop = self._prop()
        assert prop.link_mcs(AGGR) is prop.link_mcs(AGGR)
        assert prop.link_mcs(MILD) is not prop.link_mcs(AGGR)
        # An equal-valued profile hits the same cache slot.
        clone = PhyProfile(
            signal_slots=1, data_slots=(5, 3, 2), range_fractions=(1.0, 0.65, 0.45)
        )
        assert prop.link_mcs(clone) is prop.link_mcs(AGGR)

    def test_mobility_invalidates_cache(self):
        prop = self._prop()
        before = prop.link_mcs(AGGR)
        assert before[0][1] == 2  # 0.05 apart: fastest tier
        moved = prop.positions.copy()
        moved[1] = [0.18, 0.5]  # now only the base rate decodes
        prop.update_positions(moved)
        after = prop.link_mcs(AGGR)
        assert after is not before
        assert after[0][1] == 0

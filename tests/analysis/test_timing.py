"""Tests for the closed-form medium-time models, validated against the
simulator on clean channels."""

import pytest

from repro.analysis.timing import (
    bmmm_multicast_time,
    bmw_multicast_time,
    expected_contention_cost,
    expected_multicast_time_with_retries,
    figure2_times,
    lamm_multicast_time,
)
from repro.core.batch import batch_round_airtime


class TestClosedForms:
    def test_contention_cost(self):
        # DIFS 2 + mean backoff (16-1)/2 + slot alignment.
        assert expected_contention_cost(2, 16) == 2 + 7.5 + 1

    def test_bmmm_equals_contention_plus_batch_airtime(self):
        c = expected_contention_cost()
        for n in (1, 4, 10):
            assert bmmm_multicast_time(n, c) == c + batch_round_airtime(n)

    def test_bmw_linear_in_n(self):
        c = 10.0
        assert bmw_multicast_time(4, c) == 4 * (c + 8)
        assert bmw_multicast_time(8, c) == 2 * bmw_multicast_time(4, c)

    def test_bmw_overhearing_cheaper(self):
        c = 10.0
        for n in (2, 5, 10):
            assert bmw_multicast_time(n, c, overhearing=True) < bmw_multicast_time(n, c)

    def test_lamm_saves_over_bmmm(self):
        c = 10.0
        assert lamm_multicast_time(10, 4, c) < bmmm_multicast_time(10, c)
        assert lamm_multicast_time(10, 10, c) == bmmm_multicast_time(10, c)

    def test_crossover_always_favors_bmmm_for_multiple_receivers(self):
        """BMMM < BMW whenever n >= 2 and the contention phase costs more
        than the extra RAK/ACK pair it replaces."""
        c = expected_contention_cost()
        for n in range(2, 20):
            assert bmmm_multicast_time(n, c) < bmw_multicast_time(n, c)

    def test_figure2_times_ordering(self):
        t = figure2_times(4)
        assert t["BMMM"] < t["BMW(overhear)"] < t["BMW"]

    def test_retry_bound_exceeds_single_round(self):
        c = 10.0
        single = bmmm_multicast_time(5, c)
        with_retries = expected_multicast_time_with_retries(5, 0.9, c)
        assert with_retries >= single

    def test_validation(self):
        with pytest.raises(ValueError):
            bmmm_multicast_time(0, 5.0)
        with pytest.raises(ValueError):
            bmw_multicast_time(0, 5.0)
        with pytest.raises(ValueError):
            lamm_multicast_time(3, 5, 5.0)
        with pytest.raises(ValueError):
            expected_contention_cost(0, 16)


class TestAgainstSimulator:
    def test_bmmm_exchange_matches_model_minus_contention(self):
        """On a clean star, the measured batch exchange (excluding the
        random contention) equals the closed form exactly."""
        from tests.conftest import air_log, make_star
        from repro.core.bmmm import BmmmMac
        from repro.mac.base import MessageKind

        for n in (2, 5):
            net = make_star(BmmmMac, n)
            air = air_log(net.env)
            net.mac(0).submit(MessageKind.BROADCAST)
            net.run(until=1000)
            txs = sorted(air(), key=lambda t: t.start)
            exchange = txs[-1].end - txs[0].start
            assert exchange == bmmm_multicast_time(n, 0.0)

    def test_mean_completion_time_close_to_model(self):
        """Across seeds, BMMM completion time on an uncontended star is
        the model with the expected contention cost, within backoff noise."""
        from statistics import mean
        from tests.conftest import run_one_broadcast
        from repro.core.bmmm import BmmmMac

        n = 4
        times = []
        for seed in range(12):
            net, req = run_one_broadcast(BmmmMac, n_receivers=n, seed=seed, until=1000)
            times.append(req.completion_time)
        model = bmmm_multicast_time(n, expected_contention_cost(2, 16))
        assert mean(times) == pytest.approx(model, rel=0.15)

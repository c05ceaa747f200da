"""Unit tests for the DS capture models."""

import math
import random

import numpy as np
import pytest

from repro.phy.capture import MonteCarloCapture, NoCapture, ZorziRaoCapture


class TestNoCapture:
    def test_single_frame_always_received(self):
        assert NoCapture().probability(1) == 1.0

    def test_any_collision_destroys(self):
        m = NoCapture()
        for k in (2, 3, 10, 100):
            assert m.probability(k) == 0.0

    def test_attempt_never_captures(self):
        m = NoCapture()
        rng = random.Random(0)
        assert not any(m.attempt(2, rng) for _ in range(100))

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            NoCapture().probability(0)


class TestZorziRaoCapture:
    def test_anchor_values_from_paper(self):
        """The paper quotes [23]: ~0.55 at k=2, ~0.3 at k=5, ->0.2."""
        m = ZorziRaoCapture()
        assert m.probability(2) == pytest.approx(0.55)
        assert m.probability(5) == pytest.approx(0.3, abs=0.02)
        assert m.probability(50) == pytest.approx(0.2, abs=0.01)

    def test_single_frame_always_received(self):
        assert ZorziRaoCapture().probability(1) == 1.0

    def test_monotone_decreasing(self):
        m = ZorziRaoCapture()
        probs = [m.probability(k) for k in range(1, 30)]
        assert all(a >= b for a, b in zip(probs, probs[1:]))

    def test_floor_is_asymptote(self):
        m = ZorziRaoCapture(floor=0.1)
        assert m.probability(1000) == pytest.approx(0.1, abs=1e-6)

    def test_attempt_statistics(self):
        m = ZorziRaoCapture()
        rng = random.Random(42)
        n = 20_000
        hits = sum(m.attempt(2, rng) for _ in range(n))
        assert hits / n == pytest.approx(0.55, abs=0.02)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ZorziRaoCapture(c2=0.1, floor=0.5)
        with pytest.raises(ValueError):
            ZorziRaoCapture(decay=0)
        with pytest.raises(ValueError):
            ZorziRaoCapture().probability(-1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"decay": math.nan},
            {"decay": math.inf},
            {"c2": math.nan},
            {"floor": math.nan},
        ],
        ids=["decay-nan", "decay-inf", "c2-nan", "floor-nan"],
    )
    def test_rejects_non_finite_parameters(self, kwargs):
        """A NaN decay used to make every ``C_k`` (k >= 2) NaN: ``attempt``
        then drew from the RNG and never captured."""
        with pytest.raises(ValueError):
            ZorziRaoCapture(**kwargs)


class TestMonteCarloCapture:
    def test_deterministic_given_seed(self):
        a = MonteCarloCapture(seed=7, samples=5000)
        b = MonteCarloCapture(seed=7, samples=5000)
        assert a.probability(3) == b.probability(3)

    def test_cached(self):
        m = MonteCarloCapture(samples=5000)
        assert m.probability(4) == m.probability(4)

    def test_single_frame_always_received(self):
        assert MonteCarloCapture(samples=100).probability(1) == 1.0

    def test_probability_in_unit_interval_and_decreasing_tendency(self):
        m = MonteCarloCapture(samples=20_000, seed=1)
        p2, p10 = m.probability(2), m.probability(10)
        assert 0.0 < p10 <= p2 < 1.0

    def test_higher_threshold_reduces_capture(self):
        lo = MonteCarloCapture(capture_ratio_db=6.0, samples=20_000, seed=2)
        hi = MonteCarloCapture(capture_ratio_db=12.0, samples=20_000, seed=2)
        assert hi.probability(3) < lo.probability(3)

    def test_rejects_bad_samples(self):
        with pytest.raises(ValueError):
            MonteCarloCapture(samples=0)

    @pytest.mark.parametrize("samples", [2.5, True, "100"], ids=["fraction", "bool", "str"])
    def test_rejects_samples_that_are_not_whole_numbers(self, samples):
        """``samples=2.5`` used to become 2, and ``True`` one sample."""
        with pytest.raises(ValueError):
            MonteCarloCapture(samples=samples)

    @pytest.mark.parametrize("seed", [2.5, True, -1], ids=["fraction", "bool", "negative"])
    def test_rejects_bad_seed(self, seed):
        """``seed=2.5`` used to become 2, ``True`` seed 1, and a negative
        seed failed only at the first ``probability`` call."""
        with pytest.raises(ValueError):
            MonteCarloCapture(samples=100, seed=seed)

    def test_accepts_numpy_integers(self):
        m = MonteCarloCapture(samples=np.int64(100), seed=np.uint32(7))
        assert (m.samples, m.seed) == (100, 7)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"capture_ratio_db": math.nan},
            {"capture_ratio_db": math.inf},
            {"eta": math.nan},
            {"eta": -math.inf},
        ],
        ids=["ratio-nan", "ratio-inf", "eta-nan", "eta-inf"],
    )
    def test_rejects_non_finite_parameters(self, kwargs):
        """A NaN threshold or path-loss exponent used to give ``C_k = 0``."""
        with pytest.raises(ValueError):
            MonteCarloCapture(samples=100, **kwargs)

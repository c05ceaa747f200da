"""Direct-sequence capture models (Zorzi & Rao [23]).

When ``k`` frames collide at a receiver, a DS radio may still decode the
strongest one.  The paper quotes reference [23] for the capture probability
``C_k``: "the 'capture' effect occurs with a probability at about 0.55 when
there are two competing nodes.  This probability quickly drops to 0.3 at the
presence of 5 nodes and then further drops to 0.2" (Section 3), and both the
BSMA analysis (Section 6, Table 1) and the BSMA simulation use these values.

We cannot access [23] offline, so two interchangeable backends are provided
(documented as substitution #2 in DESIGN.md):

* :class:`ZorziRaoCapture` -- the default: a smooth interpolation pinned to
  the three anchor values the paper itself quotes,
  ``C_1 = 1`` and ``C_k = 0.2 + 0.35 * exp(-(k - 2) / 2.5)`` for ``k >= 2``
  (so ``C_2 = 0.55``, ``C_5 ~= 0.305``, ``C_k -> 0.2``).
* :class:`MonteCarloCapture` -- a physically-derived estimate: ``k``
  transmitters placed uniformly at random in a disk around the receiver with
  power ``d**-eta`` and iid Rayleigh fading; capture occurs when the
  strongest frame's signal-to-interference ratio exceeds a threshold
  (10 dB per MACAW [3], quoted in Section 3 of the paper).

Both expose ``probability(k)`` (used by the Section 6 analysis) and
``attempt(k, rng)`` (used by the simulator's channel).
"""

from __future__ import annotations

import math
import numbers
from functools import lru_cache

import numpy as np

__all__ = ["CaptureModel", "NoCapture", "ZorziRaoCapture", "MonteCarloCapture"]


class CaptureModel:
    """Interface: probability that the strongest of ``k`` colliding frames
    is captured."""

    def probability(self, k: int) -> float:
        """``C_k`` -- capture probability with ``k`` concurrent signals."""
        raise NotImplementedError

    def attempt(self, k: int, rng) -> bool:
        """Sample one capture attempt (``rng`` is a ``random.Random``)."""
        p = self.probability(k)
        if p <= 0.0:
            return False
        if p >= 1.0:
            return True
        return rng.random() < p

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class NoCapture(CaptureModel):
    """All collisions destroy all frames (plain collision channel)."""

    def probability(self, k: int) -> float:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        return 1.0 if k == 1 else 0.0


class ZorziRaoCapture(CaptureModel):
    """Capture curve pinned to the anchor values the paper quotes from [23].

    ``C_1 = 1`` (a lone frame is always received),
    ``C_k = floor + (C_2 - floor) * exp(-(k - 2) / decay)`` for ``k >= 2``.

    With the defaults ``C_2 = 0.55``, ``floor = 0.2``, ``decay = 2.5`` this
    reproduces the quoted 0.55 / ~0.3 (k=5) / ->0.2 behaviour.
    """

    def __init__(self, c2: float = 0.55, floor: float = 0.2, decay: float = 2.5):
        # Chained range checks: NaN fails them, and so does an infinite decay.
        if not 0.0 <= floor <= c2 <= 1.0:
            raise ValueError(f"need 0 <= floor <= c2 <= 1, got floor={floor}, c2={c2}")
        if not 0 < decay < math.inf:
            raise ValueError(f"decay must be finite and positive, got {decay}")
        self.c2 = float(c2)
        self.floor = float(floor)
        self.decay = float(decay)

    def probability(self, k: int) -> float:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if k == 1:
            return 1.0
        return self.floor + (self.c2 - self.floor) * math.exp(-(k - 2) / self.decay)

    def __repr__(self) -> str:
        return f"ZorziRaoCapture(c2={self.c2}, floor={self.floor}, decay={self.decay})"


class MonteCarloCapture(CaptureModel):
    """Near-far + Rayleigh capture estimated by Monte Carlo.

    ``k`` interferers are dropped uniformly in a unit disk centred on the
    receiver; received power is ``d**-eta`` scaled by an iid unit-mean
    exponential (Rayleigh fading).  The strongest frame is captured when its
    power exceeds ``capture_ratio`` times the sum of the others
    (10 dB -> ratio 10, per the paper's Section 3 discussion of [3]).

    Estimates are cached per ``k`` and computed from a dedicated seeded
    generator, so ``probability(k)`` is deterministic for a given
    constructor seed.
    """

    def __init__(
        self,
        capture_ratio_db: float = 10.0,
        eta: float = 4.0,
        samples: int = 20_000,
        seed: int = 0x5EED,
    ):
        for name, value in (("samples", samples), ("seed", seed)):
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be a whole number, got {value!r}")
        if samples <= 0:
            raise ValueError(f"samples must be positive, got {samples}")
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        # Chained range checks: NaN fails them, and so do +-inf.
        if not -math.inf < capture_ratio_db < math.inf:
            raise ValueError(f"capture_ratio_db must be finite, got {capture_ratio_db}")
        if not -math.inf < eta < math.inf:
            raise ValueError(f"eta must be finite, got {eta}")
        self.z = 10.0 ** (capture_ratio_db / 10.0)
        self.eta = float(eta)
        self.samples = int(samples)
        self.seed = int(seed)
        self._probability = lru_cache(maxsize=None)(self._estimate)

    def probability(self, k: int) -> float:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if k == 1:
            return 1.0
        return self._probability(k)

    def _estimate(self, k: int) -> float:
        rng = np.random.default_rng((self.seed, k))
        # Uniform in a unit disk: r = sqrt(U).  Clip tiny radii to avoid
        # infinite powers skewing nothing but overflow warnings.
        r = np.sqrt(rng.random((self.samples, k))).clip(min=1e-6)
        power = r**-self.eta * rng.exponential(1.0, (self.samples, k))
        strongest = power.max(axis=1)
        rest = power.sum(axis=1) - strongest
        return float(np.mean(strongest > self.z * rest))

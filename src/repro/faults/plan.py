"""Frozen fault-plan configuration carried on ``SimulationSettings``.

Everything here is pure, hashable data: the plan participates in the
sweep engine's ``WorldCache`` schedule keys and in run manifests, so it
must be immutable and cheaply comparable.  Runtime state (Markov chains,
crash processes, perceived positions) lives in
:class:`repro.faults.inject.FaultInjector`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.obs.codec import normalise_fields


@dataclass(frozen=True)
class GilbertElliott:
    """Two-state Markov (Gilbert-Elliott) frame-error channel.

    Each receiver carries an independent chain over {GOOD, BAD} that
    steps once per slot; a frame ending while the chain is in state S is
    lost with probability ``loss_good`` / ``loss_bad``.  The chain is
    advanced lazily with the closed-form n-step marginal, so idle
    receivers cost nothing.

    The i.i.d. ``frame_error_rate`` on ``SimulationSettings`` is the
    degenerate case ``p_good_bad = p_bad_good`` with equal loss
    probabilities; this model adds memory (bursts) without changing the
    marginal loss rate.
    """

    p_good_bad: float = 0.0
    """Per-slot transition probability GOOD -> BAD."""

    p_bad_good: float = 1.0
    """Per-slot transition probability BAD -> GOOD (1/mean burst length)."""

    loss_good: float = 0.0
    """Frame loss probability while the chain is GOOD."""

    loss_bad: float = 1.0
    """Frame loss probability while the chain is BAD."""

    def __post_init__(self) -> None:
        normalise_fields(self)
        for name in ("p_good_bad", "p_bad_good", "loss_good", "loss_bad"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"GilbertElliott.{name} must be in [0, 1], got {v!r}")

    @classmethod
    def from_burst(
        cls,
        mean_burst: float,
        stationary_bad: float,
        *,
        loss_good: float = 0.0,
        loss_bad: float = 1.0,
    ) -> "GilbertElliott":
        """Build a chain from its mean BAD sojourn and stationary BAD share.

        ``mean_burst`` is the expected number of slots spent in BAD per
        visit (so ``p_bad_good = 1/mean_burst``); ``stationary_bad`` is
        the long-run fraction of slots in BAD, which fixes
        ``p_good_bad = stationary_bad / (1 - stationary_bad) * p_bad_good``.
        Holding ``stationary_bad`` fixed while growing ``mean_burst``
        keeps the marginal loss rate constant and concentrates the losses
        into longer bursts — the axis the degradation study sweeps.
        """
        if mean_burst < 1.0:
            raise ValueError(f"mean_burst must be >= 1 slot, got {mean_burst!r}")
        if not 0.0 <= stationary_bad < 1.0:
            raise ValueError(f"stationary_bad must be in [0, 1), got {stationary_bad!r}")
        p_bg = 1.0 / mean_burst
        p_gb = stationary_bad / (1.0 - stationary_bad) * p_bg
        if p_gb > 1.0:
            raise ValueError(
                f"mean_burst={mean_burst!r} is too short to sustain "
                f"stationary_bad={stationary_bad!r} (needs p_good_bad > 1)"
            )
        return cls(p_good_bad=p_gb, p_bad_good=p_bg, loss_good=loss_good, loss_bad=loss_bad)

    @property
    def stationary_bad(self) -> float:
        """Long-run fraction of slots spent in BAD (0 if the chain never leaves GOOD)."""
        denom = self.p_good_bad + self.p_bad_good
        return self.p_good_bad / denom if denom > 0.0 else 0.0

    @property
    def decay(self) -> float:
        """Second eigenvalue ``1 - p_gb - p_bg``: per-slot memory of the chain."""
        return 1.0 - self.p_good_bad - self.p_bad_good

    @property
    def is_noop(self) -> bool:
        """True when no frame can ever be lost, whatever the chain does."""
        if self.loss_good > 0.0:
            return False
        # BAD is unreachable when p_good_bad == 0 (chains start in stationary).
        return self.loss_bad <= 0.0 or self.p_good_bad <= 0.0


@dataclass(frozen=True)
class NodeChurn:
    """Crash/recover schedule: nodes go dark and later come back.

    While down, a node's radio is off — it neither transmits nor decodes
    anything (its MAC processes keep running and their frames are
    silently suppressed, modelling a radio blackout rather than a
    process kill).  Crashes arrive per node as a Poisson process with
    per-slot hazard ``crash_rate``; downtime is exponential with mean
    ``mean_downtime`` slots (floored at one slot).
    """

    crash_rate: float = 0.0
    """Per-node, per-slot crash hazard (expected crashes/slot while up)."""

    mean_downtime: float = 200.0
    """Mean slots a crashed node stays down before recovering."""

    def __post_init__(self) -> None:
        normalise_fields(self)
        if self.crash_rate < 0.0:
            raise ValueError(f"NodeChurn.crash_rate must be >= 0, got {self.crash_rate!r}")
        if self.mean_downtime <= 0.0:
            raise ValueError(
                f"NodeChurn.mean_downtime must be > 0, got {self.mean_downtime!r}"
            )

    @property
    def is_noop(self) -> bool:
        return self.crash_rate <= 0.0


@dataclass(frozen=True)
class FaultPlan:
    """Complete impairment configuration for one run.

    The default plan is all-zero and contractually free: with
    ``FaultPlan()`` (or any plan whose :attr:`is_noop` is true) metrics
    and counters are bit-identical to a build without the faults layer —
    pinned by ``tests/faults/test_noop_property.py``.
    """

    burst: GilbertElliott | None = None
    """Bursty frame-error channel, applied on top of ``frame_error_rate``."""

    churn: NodeChurn | None = None
    """Node crash/recover schedule."""

    location_sigma: float = 0.0
    """Stddev of Gaussian jitter on the positions protocols *perceive*
    (unit-square coordinates).  True positions still drive propagation."""

    receiver_give_up: int = 0
    """Per-receiver retry cap: after this many consecutive DATA rounds in
    which a polled receiver stays silent, BMMM/LAMM drop it from the
    batch and count ``faults.receiver_give_ups``.  0 = never give up
    (the paper's behaviour)."""

    def __post_init__(self) -> None:
        normalise_fields(self)
        # Written so NaN fails too: it would jitter every perceived
        # position into NaN.
        if not 0.0 <= self.location_sigma < math.inf:
            raise ValueError(
                f"FaultPlan.location_sigma must be finite and >= 0, got {self.location_sigma!r}"
            )
        if self.receiver_give_up < 0:
            raise ValueError(
                f"FaultPlan.receiver_give_up must be >= 0, got {self.receiver_give_up!r}"
            )

    @property
    def is_noop(self) -> bool:
        """True when the plan cannot change any run outcome.

        ``receiver_give_up`` alone is *not* a noop: it changes MAC
        behaviour even in a benign channel (a receiver can stay silent
        because of collisions).
        """
        return (
            (self.burst is None or self.burst.is_noop)
            and (self.churn is None or self.churn.is_noop)
            and self.location_sigma == 0.0
            and self.receiver_give_up == 0
        )

    @property
    def needs_injector(self) -> bool:
        """True when a :class:`FaultInjector` must be attached to the channel.

        Narrower than ``not is_noop``: ``receiver_give_up`` lives purely
        in the MAC config and needs no channel-side machinery.
        """
        return (
            (self.burst is not None and not self.burst.is_noop)
            or (self.churn is not None and not self.churn.is_noop)
            or self.location_sigma > 0.0
        )

    def with_(self, **changes: object) -> "FaultPlan":
        """Return a copy with ``changes`` applied (mirrors SimulationSettings)."""
        return replace(self, **changes)

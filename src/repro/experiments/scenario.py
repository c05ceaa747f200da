"""The unified experiment surface: one frozen :class:`Scenario` object.

A :class:`Scenario` bundles the three things every entry point needs --
settings (including the fault plan), protocol names and seeds -- and is
the one argument :func:`~repro.experiments.runner.run_once`,
:func:`repro.run` and :func:`~repro.experiments.sweep.run_sweep` take
(grids add a list of per-point settings).  Anything else raises
``TypeError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro.experiments.config import (
    PROTOCOLS,
    SIMULATED_PROTOCOLS,
    SimulationSettings,
)

__all__ = ["Scenario"]


def _as_protocol_tuple(value: Any) -> tuple[str, ...]:
    if isinstance(value, str):
        value = (value,)
    names = tuple(value)
    if not names:
        raise ValueError("Scenario needs at least one protocol")
    for name in names:
        if name not in PROTOCOLS:
            raise KeyError(
                f"unknown protocol {name!r}; choose from {sorted(PROTOCOLS)}"
            )
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate protocols in {names}")
    return names


def _as_seed_tuple(value: Any) -> tuple[int, ...]:
    if isinstance(value, int):
        value = (value,)
    seeds = tuple(int(s) for s in value)
    if not seeds:
        raise ValueError("Scenario needs at least one seed")
    return seeds


@dataclass(frozen=True)
class Scenario:
    """What to simulate: settings + protocols + seeds (+ scoring threshold).

    Accepted by every experiment entry point (``run``, ``run_once``,
    ``run_sweep``).  Frozen and normalised:
    ``protocols`` accepts a single name or an iterable of registry names,
    ``seeds`` a single int or any iterable of ints (e.g. ``range(100)``
    for the paper's "means of 100 runs").

    ``threshold`` overrides ``settings.threshold`` at scoring time only
    (the simulation itself is threshold-independent); ``None`` defers to
    the settings.
    """

    settings: SimulationSettings = field(default_factory=SimulationSettings)
    protocols: tuple[str, ...] = SIMULATED_PROTOCOLS
    seeds: tuple[int, ...] = (0,)
    threshold: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.settings, SimulationSettings):
            raise TypeError(
                f"Scenario.settings must be SimulationSettings, got {type(self.settings).__name__}"
            )
        object.__setattr__(self, "protocols", _as_protocol_tuple(self.protocols))
        object.__setattr__(self, "seeds", _as_seed_tuple(self.seeds))
        if self.threshold is not None and not 0.0 < self.threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {self.threshold!r}")

    # -- single-run conveniences ----------------------------------------------

    @property
    def protocol(self) -> str:
        """The single protocol (raises unless exactly one is configured)."""
        if len(self.protocols) != 1:
            raise ValueError(f"scenario has {len(self.protocols)} protocols, not 1")
        return self.protocols[0]

    @property
    def seed(self) -> int:
        """The single seed (raises unless exactly one is configured)."""
        if len(self.seeds) != 1:
            raise ValueError(f"scenario has {len(self.seeds)} seeds, not 1")
        return self.seeds[0]

    @property
    def scoring_threshold(self) -> float:
        return self.settings.threshold if self.threshold is None else self.threshold

    def with_(self, **changes: Any) -> "Scenario":
        """A modified copy (mirrors ``SimulationSettings.with_``)."""
        return replace(self, **changes)

    def digest(self) -> str:
        """Canonical stable hash of this scenario (settings + protocols +
        seeds + effective threshold) -- the identity the results store
        and manifests record.  Field-order-insensitive and stable across
        processes and releases of the digest schema; see
        :mod:`repro.store.digests`."""
        from repro.store.digests import scenario_digest

        return scenario_digest(self)

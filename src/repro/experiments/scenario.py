"""The unified experiment surface: one frozen :class:`Scenario` object.

A :class:`Scenario` bundles the three things every entry point needs --
settings (including the fault plan), protocol names and seeds -- and is
the one argument :func:`~repro.experiments.runner.run_once`,
:func:`repro.run` and :func:`~repro.experiments.sweep.run_sweep` take
(grids add a list of per-point settings).  Anything else raises
``TypeError``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace
from typing import Any

from repro.experiments.config import (
    PROTOCOLS,
    SIMULATED_PROTOCOLS,
    SimulationSettings,
)
from repro.workload.generator import check_count

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
    if isinstance(value, numbers.Integral):
        value = (value,)
    seeds = tuple(value)
    if not seeds:
        raise ValueError("Scenario needs at least one seed")
    # A seed names one RNG stream: 0.5 or True is not one, and a repeated
    # seed would count twice in every mean.
    for seed in seeds:
        check_count("seed", seed)
    seeds = tuple(int(s) for s in seeds)
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"duplicate seeds in {seeds}")
    return seeds


@dataclass(frozen=True)
class Scenario:
    """What to simulate: settings + protocols + seeds.

    Accepted by every experiment entry point (``run``, ``run_once``,
    ``run_sweep``).  Frozen and normalised:
    ``protocols`` accepts a single name or an iterable of registry names,
    ``seeds`` a single int or any iterable of distinct non-negative
    ints (e.g. ``range(100)`` for the paper's "means of 100 runs").
    Runs are scored at ``settings.threshold``.
    """

    settings: SimulationSettings = field(default_factory=SimulationSettings)
    protocols: tuple[str, ...] = SIMULATED_PROTOCOLS
    seeds: tuple[int, ...] = (0,)

    def __post_init__(self) -> None:
        if not isinstance(self.settings, SimulationSettings):
            raise TypeError(
                f"Scenario.settings must be SimulationSettings, got {type(self.settings).__name__}"
            )
        object.__setattr__(self, "protocols", _as_protocol_tuple(self.protocols))
        object.__setattr__(self, "seeds", _as_seed_tuple(self.seeds))

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

    def with_(self, **changes: Any) -> "Scenario":
        """A modified copy (mirrors ``SimulationSettings.with_``)."""
        return replace(self, **changes)

    def digest(self) -> str:
        """Canonical stable hash of this scenario (settings + protocols +
        seeds + scoring threshold) -- the identity the results store
        and manifests record.  Field-order-insensitive and stable across
        processes and releases of the digest schema; see
        :mod:`repro.store.digests`."""
        from repro.store.digests import scenario_digest

        return scenario_digest(self)

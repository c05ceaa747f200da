"""Run manifests: make every benchmark number attributable and diffable.

A :class:`RunManifest` records *where a result came from*: the exact
settings, seed, protocol, package version and interpreter, plus wall-clock
phase timings and simulated-slots-per-second throughput.  Simulation runs
get one via :meth:`repro.experiments.runner.RawRun.manifest`; CLI
invocations write one per experiment next to the JSON results
(``<name>.manifest.json``) so archived figures carry their provenance.
"""

from __future__ import annotations

import json
import platform
import sys
from dataclasses import asdict, dataclass, field, is_dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

from repro.obs.codec import build, lower
from repro.obs.records import write_json

__all__ = ["RunManifest", "settings_to_dict", "load_manifest"]


def settings_to_dict(settings: Any) -> dict | None:
    """JSON-safe dump of a settings dataclass or str-keyed dict: the
    untagged lowering (:func:`repro.obs.codec.lower`), which raises rather
    than stringify a field, and which
    :func:`repro.store.gate.settings_from_dict` inverts."""
    if settings is None:
        return None
    if isinstance(settings, dict) or is_dataclass(settings):
        return lower(settings, tagged=False)
    raise TypeError(f"cannot serialize settings of type {type(settings).__name__}")


@dataclass
class RunManifest:
    """Provenance record for one run or one CLI experiment."""

    #: Protocol name for single runs; None for multi-protocol experiments.
    protocol: str | None = None
    seed: int | None = None
    settings: dict | None = None
    package_version: str = ""
    python_version: str = field(default_factory=lambda: platform.python_version())
    platform: str = field(default_factory=lambda: sys.platform)
    created_at: str = field(
        default_factory=lambda: datetime.now(timezone.utc).isoformat(timespec="seconds")
    )
    wall_clock_s: float | None = None
    #: Per-phase wall-clock seconds (build/inject/simulate or CLI phases).
    timings: dict[str, float] = field(default_factory=dict)
    sim_slots: float | None = None
    #: Simulated slots per wall-clock second -- the headline throughput
    #: number future performance PRs benchmark against.
    slots_per_sec: float | None = None
    n_requests: int | None = None
    counters: dict[str, int] = field(default_factory=dict)
    #: Free-form extras (experiment name, seed count, CLI flags, ...).
    extra: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if not self.package_version:
            from repro import __version__

            self.package_version = __version__

    def to_dict(self) -> dict:
        return asdict(self)

    def save(self, path: str | Path) -> Path:
        return write_json(path, self.to_dict())


def load_manifest(path: str | Path) -> RunManifest:
    """Read a manifest back through the codec's inverse: a non-object or an
    unknown key raises (a manifest that cannot round-trip is not provenance)."""
    return build(RunManifest, json.loads(Path(path).read_text()), str(path))

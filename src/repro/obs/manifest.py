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

from repro.obs.records import write_json

__all__ = ["RunManifest", "settings_to_dict", "load_manifest"]


def _jsonable(value: Any, path: str) -> Any:
    """Recursively validate/convert one settings value.

    Only JSON-native scalars, lists/tuples, str-keyed dicts and (already
    ``asdict``-lowered) nested structures pass.  Anything else raises
    :class:`TypeError` naming the field -- stringifying unknown objects
    silently turns a provenance record into a lie (a ``FaultPlan`` rendered as
    ``"FaultPlan(...)"`` cannot be reloaded or diffed).
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v, f"{path}[{i}]") for i, v in enumerate(value)]
    if isinstance(value, dict):
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"{path}: dict key {key!r} is not a string")
        return {k: _jsonable(v, f"{path}.{k}") for k, v in value.items()}
    if is_dataclass(value) and not isinstance(value, type):
        return _jsonable(asdict(value), path)
    raise TypeError(
        f"{path}: cannot serialize {type(value).__name__!r} into a manifest -- "
        "settings fields must be JSON-native or dataclasses of JSON-native values"
    )


def settings_to_dict(settings: Any) -> dict | None:
    """JSON-safe dump of a settings object (dataclasses nested OK).

    ``SimulationSettings`` serializes completely, including the nested
    ``FaultPlan``/``GilbertElliott``/``NodeChurn`` legs (``asdict``
    recursion); an unserializable field raises a clear :class:`TypeError`
    instead of being silently stringified, so manifests never drop
    provenance.  The result round-trips through
    :func:`repro.store.gate.settings_from_dict`.
    """
    if settings is None:
        return None
    if is_dataclass(settings) and not isinstance(settings, type):
        name = type(settings).__name__
        return _jsonable(asdict(settings), name)
    if isinstance(settings, dict):
        return _jsonable(settings, "settings")
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
    """Read a manifest back; unknown keys are rejected loudly (a manifest
    that cannot round-trip is not provenance)."""
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: manifest must be a JSON object")
    known = {f for f in RunManifest.__dataclass_fields__}
    unknown = set(payload) - known
    if unknown:
        raise ValueError(f"{path}: unknown manifest keys {sorted(unknown)}")
    return RunManifest(**payload)

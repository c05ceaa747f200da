"""Canonical digests: the addresses of the content-addressed store.

A store row is keyed by ``(scenario_digest, protocol, seed,
code_fingerprint)``.  The first component must be a *stable* function of
the frozen configuration -- two processes (today or months apart) that
build the same :class:`~repro.experiments.config.SimulationSettings` must
derive the same hex string, and any change to any field must change it.
That rules out ``hash()`` (salted per process), ``repr`` (field order,
float formatting drift) and pickle (protocol/version dependent).  Instead
every dataclass is lowered to a canonical JSON document -- sorted keys,
explicit type tags, no silent stringification -- and SHA-256 hashed.

The second guard is :func:`code_fingerprint`: a digest over the
simulation-relevant source files of the installed package.  Results are
pure functions of ``(settings, protocol, seed, code)``; fingerprinting the
code means a store populated by an older build can never silently serve
stale cells to a newer one -- the key simply misses and the cell reruns.

Digest values are pinned literally in ``tests/store/test_digests.py``;
bump :data:`DIGEST_VERSION` (and the pins) whenever the canonical form
itself must change.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Any

__all__ = [
    "DIGEST_VERSION",
    "canonical_payload",
    "canonical_json",
    "digest_of",
    "settings_digest",
    "scenario_digest",
    "code_fingerprint",
    "git_commit",
]

#: Version tag mixed into every digest; bump when the canonical form changes.
#: v2: SimulationSettings grew the ``phy`` PhyProfile field (multi-rate PHY).
DIGEST_VERSION = 2


def canonical_payload(obj: Any, path: str = "settings") -> Any:
    """Lower *obj* to a canonical JSON-safe structure.

    Dataclasses become ``{"__type__": ClassName, <field>: ...}`` (the tag
    keeps structurally identical classes from colliding), tuples become
    lists, and dict keys must already be strings -- sorting happens at
    dump time.  Anything else (sets, numpy scalars, arbitrary objects)
    raises :class:`TypeError` naming the offending field, because a value
    we cannot canonicalise would silently fork the address space.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if obj != obj or obj in (float("inf"), float("-inf")):
            raise TypeError(f"{path}: non-finite float {obj!r} has no canonical JSON form")
        return obj
    if is_dataclass(obj) and not isinstance(obj, type):
        out: dict[str, Any] = {"__type__": type(obj).__name__}
        for f in fields(obj):
            out[f.name] = canonical_payload(getattr(obj, f.name), f"{path}.{f.name}")
        return out
    if isinstance(obj, (list, tuple)):
        return [canonical_payload(v, f"{path}[{i}]") for i, v in enumerate(obj)]
    if isinstance(obj, dict):
        for key in obj:
            if not isinstance(key, str):
                raise TypeError(f"{path}: dict key {key!r} is not a string")
        return {k: canonical_payload(v, f"{path}.{k}") for k, v in obj.items()}
    raise TypeError(
        f"{path}: cannot canonicalise {type(obj).__name__!r} -- only dataclasses, "
        "str/int/float/bool/None, lists/tuples and str-keyed dicts are digestable"
    )


def canonical_json(obj: Any) -> str:
    """The canonical serialisation: sorted keys, tight separators, no NaN."""
    return json.dumps(
        canonical_payload(obj), sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def digest_of(obj: Any, kind: str) -> str:
    """SHA-256 hex of *obj*'s canonical JSON, namespaced by *kind*."""
    doc = json.dumps(
        {"kind": kind, "v": DIGEST_VERSION, "payload": canonical_payload(obj)},
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


def settings_digest(settings, threshold: float | None = None) -> str:
    """The store address of one sweep point.

    *threshold* is the scoring override a sweep may carry; ``None`` means
    "the settings' own threshold", and the digest uses the *effective*
    value so an explicit override equal to the default addresses the same
    cells.
    """
    effective = settings.threshold if threshold is None else threshold
    return digest_of({"settings": settings, "threshold": effective}, kind="settings")


def scenario_digest(scenario) -> str:
    """Stable hash of a full :class:`~repro.experiments.scenario.Scenario`
    (settings + protocols + seeds + effective scoring threshold)."""
    return digest_of(
        {
            "settings": scenario.settings,
            "protocols": list(scenario.protocols),
            "seeds": list(scenario.seeds),
            "threshold": scenario.scoring_threshold,
        },
        kind="scenario",
    )


# --------------------------------------------------------------------------
# Code fingerprint
# --------------------------------------------------------------------------

#: Subpackages whose every ``.py`` file can change simulation results.
_SIM_RELEVANT_DIRS = (
    "analysis",
    "core",
    "faults",
    "geometry",
    "mac",
    "metrics",
    "obs",
    "phy",
    "protocols",
    "sim",
    "workload",
)

#: Individual experiment modules on the result path (the rest of
#: ``experiments`` -- figures, plotting, reports, CLI glue -- only
#: rearranges already-computed numbers).
_SIM_RELEVANT_FILES = (
    "experiments/config.py",
    "experiments/runner.py",
    "experiments/scenario.py",
    "experiments/sweep.py",
)


def _iter_source(root: Path):
    for rel in _SIM_RELEVANT_FILES:
        path = root / rel
        if path.is_file():
            yield rel, path
    for sub in _SIM_RELEVANT_DIRS:
        base = root / sub
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*.py")):
            yield str(path.relative_to(root)).replace("\\", "/"), path


_FINGERPRINT_CACHE: dict[str, str] = {}


def code_fingerprint(package_root: str | Path | None = None) -> str:
    """SHA-256 over the simulation-relevant source of the package.

    Hashes ``(relative path, file contents)`` pairs in sorted-path order,
    so renames, additions, deletions and edits all change the value.
    With no argument it fingerprints the *installed* ``repro`` package and
    memoises (source cannot change under a running process).
    """
    if package_root is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        cached = _FINGERPRINT_CACHE.get(str(root))
        if cached is not None:
            return cached
    else:
        root = Path(package_root).resolve()
    h = hashlib.sha256(f"code-fingerprint:v{DIGEST_VERSION}".encode())
    for rel, path in sorted(_iter_source(root)):
        h.update(rel.encode("utf-8"))
        h.update(b"\x00")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    digest = h.hexdigest()
    if package_root is None:
        _FINGERPRINT_CACHE[str(root)] = digest
    return digest


def git_commit() -> str | None:
    """The repository HEAD commit, or ``None`` outside a git checkout
    (e.g. a wheel install) -- bench records stamp it for attribution."""
    import repro

    root = Path(repro.__file__).resolve().parent
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    commit = out.stdout.strip()
    return commit if out.returncode == 0 and commit else None

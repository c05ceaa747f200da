"""Canonical digests: the addresses of the content-addressed store.

A store row is keyed by ``(scenario_digest, protocol, seed,
code_fingerprint)``.  The first component must be a *stable* function of
the frozen configuration -- two processes (today or months apart) that
build the same :class:`~repro.experiments.config.SimulationSettings` must
derive the same hex string, and any change to any field must change it.
That rules out ``hash()`` (salted per process), ``repr`` (field order,
float formatting drift) and pickle (protocol/version dependent).  Instead
every dataclass is lowered to a canonical JSON document -- sorted keys,
explicit type tags, no silent stringification (:mod:`repro.obs.codec`)
-- and SHA-256 hashed.

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
from pathlib import Path
from typing import Any

from repro.obs.codec import lower

__all__ = [
    "DIGEST_VERSION",
    "canonical_payload",
    "canonical_json",
    "digest_of",
    "settings_digest",
    "scenario_digest",
    "code_fingerprint",
    "git_commit",
    "code_stamp",
]

#: Version tag mixed into every digest; bump when the canonical form changes.
#: v2: SimulationSettings grew the ``phy`` PhyProfile field (multi-rate PHY).
DIGEST_VERSION = 2


def canonical_payload(obj: Any, path: str = "settings") -> Any:
    """The tagged lowering of *obj* (:func:`repro.obs.codec.lower`); a value
    it cannot canonicalise, which would fork the address space, raises."""
    return lower(obj, tagged=True, path=path)


def canonical_json(obj: Any) -> str:
    """The canonical serialisation: sorted keys, tight separators, no NaN."""
    return json.dumps(
        canonical_payload(obj), sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def digest_of(obj: Any, kind: str) -> str:
    """SHA-256 hex of *obj*'s canonical JSON, namespaced by *kind*."""
    doc = canonical_json({"kind": kind, "v": DIGEST_VERSION, "payload": obj})
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


def settings_digest(settings) -> str:
    """The store address of one sweep point.

    The scoring threshold is hashed twice (inside the settings and beside
    them) because that is the pinned canonical form: store addresses
    written before the threshold lived only on the settings stay valid.
    """
    return digest_of({"settings": settings, "threshold": settings.threshold}, kind="settings")


def scenario_digest(scenario) -> str:
    """Stable hash of a full :class:`~repro.experiments.scenario.Scenario`
    (settings + protocols + seeds + scoring threshold)."""
    return digest_of(
        {
            "settings": scenario.settings,
            "protocols": list(scenario.protocols),
            "seeds": list(scenario.seeds),
            "threshold": scenario.settings.threshold,
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


def code_stamp() -> dict[str, str | None]:
    """The provenance stamp BENCH and GATE records carry under ``"code"``."""
    return {"git_commit": git_commit(), "code_fingerprint": code_fingerprint()}

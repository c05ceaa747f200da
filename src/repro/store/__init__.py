"""``repro.store`` -- the content-addressed results store.

Sweep cells are pure functions of ``(settings, protocol, seed, code)``;
this package makes that purity durable:

* :mod:`repro.store.digests` -- canonical, field-order-insensitive hashes
  of scenarios/settings plus a fingerprint of the simulation-relevant
  source;
* :mod:`repro.store.db` -- the SQLite :class:`ResultStore` keyed by
  ``(scenario_digest, protocol, seed, code_fingerprint)``, committed
  per cell so interrupted campaigns resume;
* :mod:`repro.store.gate` -- the regression gate that reruns a stored
  baseline campaign and diffs metrics, counters and throughput.

See ``docs/store.md`` for the schema, digest semantics, eviction and the
gate's tolerance model.
"""

from repro.store.db import ResultStore, StoreError
from repro.store.digests import (
    code_fingerprint,
    code_stamp,
    git_commit,
    scenario_digest,
    settings_digest,
)
from repro.store.gate import GateTolerances, run_gate, settings_from_dict

__all__ = [
    "ResultStore",
    "StoreError",
    "code_fingerprint",
    "code_stamp",
    "git_commit",
    "scenario_digest",
    "settings_digest",
    "GateTolerances",
    "run_gate",
    "settings_from_dict",
]

"""The rate sweep: delivered throughput vs. reliability across MCS spreads.

The multi-rate question the :class:`~repro.phy.profile.PhyProfile` API
exists to ask: how much delivered throughput does rate adaptation buy,
and what does it cost in reliability, as the rate table's spread widens?
Each sweep point is the *same* Table-2 world under a different profile
-- from the paper's single-rate 5-slot DATA up to an aggressive 3-tier
table -- so a fixed-rate protocol (LAMM) and the rate-adaptive RAM face
identical workloads and the delta is pure rate policy.

``repro-mac rate-sweep`` drives this and writes ``BENCH_rate.json``: one
record per (profile, protocol) cell with the delivery rate, delivered
requests per kslot, completion time and the rate-machinery counters
(per-MCS round counts, channel rate losses), stamped with
``"code": code_stamp()`` like every other BENCH surface and written by
:func:`repro.experiments.sweep.save_bench`.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.config import SimulationSettings
from repro.experiments.sweep import SweepResult
from repro.phy.profile import PhyProfile
from repro.store.digests import code_stamp

__all__ = [
    "RATE_PROFILES",
    "RATE_SWEEP_PROTOCOLS",
    "rate_points",
    "rate_bench_record",
]

#: The MCS-spread axis, mildest first.  Fractions follow the usual
#: range/rate tradeoff shape (faster MCS needs more SNR, so less range):
#: "mild" adds one 3-slot tier reaching 70% of the cell radius,
#: "aggressive" adds a 2-slot tier reaching 45%.
RATE_PROFILES: dict[str, PhyProfile] = {
    "single": PhyProfile(),
    "mild": PhyProfile(signal_slots=1, data_slots=(5, 3), range_fractions=(1.0, 0.7)),
    "aggressive": PhyProfile(
        signal_slots=1, data_slots=(5, 3, 2), range_fractions=(1.0, 0.65, 0.45)
    ),
}

#: The head-to-head the sweep exists for: fixed-rate LAMM vs. RAM.
RATE_SWEEP_PROTOCOLS = ("LAMM", "RAM")


def rate_points(base: SimulationSettings, names: Sequence[str]) -> list[SimulationSettings]:
    """One sweep point per rate profile name (*base* with the profile
    swapped), in *names* order."""
    unknown = [n for n in names if n not in RATE_PROFILES]
    if unknown:
        raise KeyError(f"unknown rate profile(s) {unknown}; choose from {sorted(RATE_PROFILES)}")
    return [base.with_(phy=RATE_PROFILES[n]) for n in names]


#: Counters worth surfacing per cell (per-MCS rounds are matched by prefix).
_RATE_COUNTER_PREFIXES = ("ram.rounds_mcs", "rate_losses")


def rate_bench_record(
    result: SweepResult, profile_names: Sequence[str], name: str = "rate"
) -> dict:
    """The ``BENCH_rate.json`` payload: the throughput/reliability surface."""
    cells = []
    for idx, pname in enumerate(profile_names):
        prof = result.points[idx].phy
        for proto in result.protocols:
            mm = result.mean(idx, proto)
            horizon = result.points[idx].horizon
            per_run_requests = mm.n_requests / mm.n_runs if mm.n_runs else 0.0
            cells.append(
                {
                    "profile": pname,
                    "data_slots": list(prof.data_slots),
                    "range_fractions": list(prof.range_fractions),
                    "protocol": proto,
                    "delivery_rate": mm.delivery_rate,
                    "delivered_per_kslot": (
                        mm.delivery_rate * per_run_requests / horizon * 1000.0
                    ),
                    "avg_completion_time": mm.avg_completion_time,
                    "avg_contention_phases": mm.avg_contention_phases,
                    "n_runs": mm.n_runs,
                    "n_requests": mm.n_requests,
                    "counters": {
                        k: v
                        for k, v in sorted(mm.counters.items())
                        if any(k.startswith(p) for p in _RATE_COUNTER_PREFIXES)
                    },
                }
            )
    return {
        "name": name,
        "kind": "rate-sweep",
        "code": code_stamp(),
        "profiles": list(profile_names),
        "protocols": list(result.protocols),
        "seeds": list(result.seeds),
        "slots_per_sec": result.slots_per_sec,
        "cells": cells,
    }

"""Degradation study: how the protocols decay as faults grow.

The paper's reliability claims are evaluated in a benign world; this
experiment sweeps one fault axis at a time and watches delivery ratio and
contention phases fall off for BMW, BSMA, BMMM and LAMM:

* ``burst`` -- mean BAD sojourn of a Gilbert-Elliott channel, at a fixed
  stationary loss share (so longer values mean *burstier*, not lossier);
* ``churn`` -- per-node/slot crash hazard (nodes go dark and recover);
* ``sigma`` -- stddev of the Gaussian location error LAMM's geometry sees.

Each axis value becomes one sweep point (``settings.with_(faults=...)``,
see :func:`degradation_points`), and the grid runs through
:func:`~repro.experiments.sweep.run_sweep`, sharing topology builds across
fault levels (the fault plan lives on the *schedule* cache key only).
CLI surface: ``repro-mac faults``; results feed EXPERIMENTS.md's
"Degradation study" section.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.config import SimulationSettings
from repro.faults.plan import FaultPlan, GilbertElliott, NodeChurn

__all__ = [
    "FAULT_AXES",
    "BURST_SWEEP",
    "CHURN_SWEEP",
    "SIGMA_SWEEP",
    "fault_plan_for",
    "degradation_points",
]

#: Default values per axis; the leading 0 is the benign baseline point.
BURST_SWEEP: tuple[float, ...] = (0.0, 4.0, 16.0, 64.0)
CHURN_SWEEP: tuple[float, ...] = (0.0, 1e-4, 5e-4, 2e-3)
SIGMA_SWEEP: tuple[float, ...] = (0.0, 0.02, 0.05, 0.1)

FAULT_AXES: dict[str, tuple[float, ...]] = {
    "burst": BURST_SWEEP,
    "churn": CHURN_SWEEP,
    "sigma": SIGMA_SWEEP,
}


def fault_plan_for(
    axis: str,
    value: float,
    *,
    stationary_loss: float = 0.2,
    mean_downtime: float = 200.0,
    base: FaultPlan | None = None,
) -> FaultPlan:
    """The fault plan for one axis point, on top of *base*.

    ``axis="burst"`` interprets *value* as the Gilbert-Elliott mean burst
    length in slots (0 = no burst model), holding the stationary loss
    share at *stationary_loss* so only burstiness varies;
    ``axis="churn"`` as the per-node/slot crash rate (downtime mean fixed
    at *mean_downtime* slots); ``axis="sigma"`` as the location-error
    stddev.  *base* lets the caller pin other faults across the whole
    sweep (the CI smoke grid sweeps churn on top of a fixed burst).
    """
    plan = base if base is not None else FaultPlan()
    if axis == "burst":
        burst = None if value <= 0 else GilbertElliott.from_burst(value, stationary_loss)
        return plan.with_(burst=burst)
    if axis == "churn":
        churn = None if value <= 0 else NodeChurn(crash_rate=value, mean_downtime=mean_downtime)
        return plan.with_(churn=churn)
    if axis == "sigma":
        return plan.with_(location_sigma=float(value))
    raise KeyError(f"unknown fault axis {axis!r}; choose from {sorted(FAULT_AXES)}")


def degradation_points(
    settings: SimulationSettings,
    axis: str,
    values: Sequence[float] | None = None,
    *,
    stationary_loss: float = 0.2,
    mean_downtime: float = 200.0,
    base: FaultPlan | None = None,
) -> list[SimulationSettings]:
    """One sweep point per axis value (*settings* with the plan swapped)."""
    if values is None:
        values = FAULT_AXES[axis]
    base = base if base is not None else settings.faults
    return [
        settings.with_(
            faults=fault_plan_for(
                axis,
                v,
                stationary_loss=stationary_loss,
                mean_downtime=mean_downtime,
                base=base,
            )
        )
        for v in values
    ]

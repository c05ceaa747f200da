"""Run protocols under :class:`SimulationSettings` and aggregate metrics.

:func:`run_raw` is one simulation run; :func:`run_once` scores one.
"All the simulation results were the means of 100 runs of simulations with
different random seeds" (Section 7); :func:`run` averages
:class:`~repro.metrics.aggregate.RunMetrics` over the seed list the caller
chooses (the benchmarks default to fewer runs for wall-clock reasons and
record how many in their output).  Every multi-seed campaign, ``run``
included, goes through the sweep engine
(:func:`repro.experiments.sweep.run_sweep`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import mean, pstdev
from typing import Any, Iterable, Sequence, Type

from repro.experiments.config import SimulationSettings, protocol_class
from repro.experiments.scenario import Scenario
from repro.mac.base import MacBase, MacConfig, MacRequest
from repro.metrics.aggregate import RunMetrics, summarize_run
from repro.obs.counters import Counters, merge_counter_dicts
from repro.obs.events import Subscriber
from repro.obs.manifest import RunManifest, settings_to_dict
from repro.obs.profile import PhaseTimer
from repro.phy.capture import ZorziRaoCapture
from repro.phy.propagation import UnitDiskPropagation
from repro.sim.channel import ChannelStats
from repro.sim.network import Network
from repro.workload.cache import WorldParts
from repro.workload.generator import TrafficGenerator
from repro.workload.topology import uniform_square

__all__ = [
    "RawRun",
    "MeanMetrics",
    "build_network",
    "run_raw",
    "run",
    "run_once",
]


def _require_scenario(func: str, scenario) -> None:
    if not isinstance(scenario, Scenario):
        raise TypeError(f"{func}() needs a Scenario, got {type(scenario).__name__}")


@dataclass
class RawRun:
    """Everything needed to (re-)score one run, plus its provenance."""

    requests: list[MacRequest]
    stats: ChannelStats
    average_degree: float
    settings: SimulationSettings
    seed: int
    #: Observability counters collected during the run (totals + per-node).
    counters: Counters = field(default_factory=Counters)
    #: Wall-clock seconds per phase (``build`` / ``inject`` / ``simulate``).
    timings: dict[str, float] = field(default_factory=dict)
    #: Simulate-phase wall clock attributed to MAC phases by the kernel
    #: phase profiler (:mod:`repro.obs.profiler`); ``None`` unless the run
    #: was started with ``profile=True``.  Sums to ``timings["simulate"]``.
    mac_profile: dict[str, float] | None = None

    def metrics(self) -> RunMetrics:
        """This run scored at ``settings.threshold``."""
        return summarize_run(
            self.requests, self.stats, threshold=self.settings.threshold, counters=self.counters
        )

    def manifest(self, protocol: str | None = None) -> RunManifest:
        """Provenance record for this run (see :mod:`repro.obs.manifest`)."""
        # None means "not timed"; an untimed run has no phases at all.  A
        # recorded sum of 0.0 (sub-resolution fast run) is a legitimate
        # measurement and must survive so sweep manifests aggregate cleanly.
        wall = sum(self.timings.values()) if self.timings else None
        sim_slots = float(self.settings.horizon)
        simulate_s = self.timings.get("simulate", 0.0)
        extra: dict = {}
        if self.mac_profile is not None:
            extra["mac_profile"] = dict(self.mac_profile)
        return RunManifest(
            protocol=protocol,
            seed=self.seed,
            settings=settings_to_dict(self.settings),
            wall_clock_s=wall,
            timings=dict(self.timings),
            sim_slots=sim_slots,
            slots_per_sec=(sim_slots / simulate_s) if simulate_s > 0 else None,
            n_requests=len(self.requests),
            counters=dict(self.counters.total),
            extra=extra,
        )


@dataclass(frozen=True)
class MeanMetrics:
    """Seed-averaged metrics for one protocol at one sweep point."""

    delivery_rate: float
    delivery_rate_std: float
    avg_contention_phases: float
    avg_completion_time: float
    average_degree: float
    n_runs: int
    n_requests: int
    #: Observability counter totals summed over all seeds; identical
    #: whether the seeds ran serially or across the process pool (tested).
    counters: dict[str, int] = field(default_factory=dict)

    @staticmethod
    def from_runs(runs: Sequence[RunMetrics], degrees: Sequence[float]) -> "MeanMetrics":
        if not runs:
            raise ValueError("no runs to aggregate")
        rates = [r.delivery_rate for r in runs]
        return MeanMetrics(
            delivery_rate=mean(rates),
            delivery_rate_std=pstdev(rates) if len(rates) > 1 else 0.0,
            avg_contention_phases=mean(r.avg_contention_phases for r in runs),
            avg_completion_time=mean(r.avg_completion_time for r in runs),
            average_degree=mean(degrees),
            n_runs=len(runs),
            n_requests=sum(r.n_requests for r in runs),
            counters=merge_counter_dicts(r.counters for r in runs),
        )


def build_network(
    mac_cls: Type[MacBase],
    settings: SimulationSettings,
    seed: int,
    mac_kwargs: dict[str, Any] | None = None,
    propagation: "UnitDiskPropagation | None" = None,
) -> Network:
    """Construct the network for one run (placement seeded by *seed*).

    *propagation* supplies a prebuilt topology (the sweep engine's
    shared-world path); when omitted the placement and unit-disk sets are
    built fresh, bit-identically to what
    :meth:`repro.workload.cache.WorldCache.world` caches.
    """
    positions = (
        propagation.positions
        if propagation is not None
        else uniform_square(settings.n_nodes, seed=seed, side=settings.side)
    )
    return Network(
        positions,
        settings.radius,
        mac_cls,
        capture=ZorziRaoCapture() if settings.capture else None,
        frame_error_rate=settings.frame_error_rate,
        seed=seed,
        mac_config=MacConfig(
            contention=settings.contention,
            timeout_slots=settings.timeout_slots,
            receiver_give_up=settings.faults.receiver_give_up,
            phy=settings.phy,
        ),
        mac_kwargs=mac_kwargs,
        interference_factor=settings.interference_factor,
        propagation=propagation,
        faults=settings.faults,
    )


def run_raw(
    mac_cls: Type[MacBase],
    settings: SimulationSettings,
    seed: int,
    mac_kwargs: dict[str, Any] | None = None,
    *,
    subscribers: Iterable[Subscriber] = (),
    world: "WorldParts | None" = None,
    profile: bool = False,
) -> RawRun:
    """One full simulation run; returns raw material for scoring.

    The topology and the traffic schedule depend only on (*settings*,
    *seed*), so different protocols at the same seed face identical
    workloads.  *world* supplies those protocol-independent artifacts
    prebuilt (see :class:`repro.workload.cache.WorldCache`); the
    environment, channel, RNG streams and MAC instances are still
    constructed fresh here, so a cached run is bit-identical to a cold
    one (tested).  *subscribers* are attached to the network's event bus
    for the duration of the run (e.g. a
    :class:`~repro.obs.trace.JsonlTraceWriter`); observability events and
    subscribers never touch the RNG streams, so an observed run is
    bit-identical to a bare one.  *profile* attaches a
    :class:`~repro.obs.profiler.KernelPhaseProfiler` (another inert
    subscriber) and surfaces its attribution as ``RawRun.mac_profile``.
    """
    timer = PhaseTimer()
    with timer.phase("build"):
        net = build_network(
            mac_cls,
            settings,
            seed,
            mac_kwargs,
            propagation=world.propagation if world is not None else None,
        )
        for subscriber in subscribers:
            net.env.obs.subscribe(subscriber)
        profiler = None
        if profile:
            from repro.obs.profiler import KernelPhaseProfiler

            profiler = KernelPhaseProfiler().attach(net.env)
    with timer.phase("inject"):
        gen = (
            world.generator
            if world is not None
            else TrafficGenerator(
                settings.n_nodes,
                net.propagation.neighbors,
                horizon=settings.horizon,
                message_rate=settings.message_rate,
                mix=settings.mix,
                seed=seed,
            )
        )
        requests = gen.inject(net)
    with timer.phase("simulate"):
        net.run(until=settings.horizon)
    mac_profile = None
    if profiler is not None:
        mac_profile = dict(profiler.finish(timer.timings.get("simulate")))
    return RawRun(
        requests,
        net.channel.stats,
        net.average_degree(),
        settings,
        seed,
        counters=net.channel.counters,
        timings=timer.timings,
        mac_profile=mac_profile,
    )


def run_once(scenario: Scenario) -> RunMetrics:
    """One run of a single-protocol, single-seed scenario, e.g.
    ``run_once(Scenario(settings=..., protocols="BMMM", seeds=7))``,
    scored at ``settings.threshold``."""
    _require_scenario("run_once", scenario)
    cls, kwargs = protocol_class(scenario.protocol)
    return run_raw(cls, scenario.settings, scenario.seed, kwargs).metrics()


def run(scenario: Scenario) -> dict[str, MeanMetrics]:
    """Run every protocol of *scenario* on identical workloads.

    The canonical entry point for one-point experiments: returns
    ``{protocol: MeanMetrics}`` in the scenario's protocol order.  It is
    a one-point, in-process :func:`~repro.experiments.sweep.run_sweep`;
    topology and traffic depend only on (settings, seed), so all
    protocols face the same workloads.
    """
    from repro.experiments.sweep import run_sweep

    _require_scenario("run", scenario)
    return run_sweep(scenario, processes=1).grid()[0]

"""Network assembly: environment + channel + one MAC per node.

This is the top of the simulator substrate: given node positions, a radius
and a MAC class, :class:`Network` wires up the kernel, the unit-disk
channel and per-node MAC instances with independent deterministic RNG
streams, and exposes the pieces the workload generator and metrics layers
need.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Type

import numpy as np

from repro.mac.base import MacBase, MacConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.plan import FaultPlan
    from repro.mac.beacons import BeaconConfig
from repro.phy.capture import CaptureModel
from repro.phy.propagation import UnitDiskPropagation
from repro.sim.channel import Channel
from repro.sim.kernel import Environment

__all__ = ["Network"]


class Network:
    """A static ad-hoc network running one MAC protocol on every node.

    After :meth:`run`, ``channel.counters`` holds the frame and loss
    counts; the frames themselves are ``frame_tx`` events on ``env.obs``
    (see :func:`repro.obs.trace.transmissions_from_trace`).

    Parameters
    ----------
    positions:
        ``(N, 2)`` node coordinates (paper: uniform in the unit square).
    radius:
        Transmission radius (paper: 0.2).
    mac_cls:
        The MAC protocol class (a :class:`~repro.mac.base.MacBase`
        subclass) instantiated per node.
    capture:
        Optional DS capture model for the channel.
    frame_error_rate:
        iid frame loss probability on top of collisions.
    seed:
        Master seed; every node and the channel get independent
        deterministic substreams.
    mac_config:
        Shared :class:`MacConfig` (Table 2 defaults when omitted).
    mac_kwargs:
        Extra keyword arguments for ``mac_cls`` (e.g. LAMM's ``policy``).
    propagation:
        Optional prebuilt :class:`UnitDiskPropagation` to use instead of
        constructing one from *positions*/*radius* -- the sweep engine's
        shared-topology path (:mod:`repro.workload.cache`).  The caller
        guarantees it matches *positions*/*radius*; the network holds a
        reference, so mutating it (mobility) affects every network
        sharing it.
    faults:
        Optional :class:`~repro.faults.plan.FaultPlan`.  When it carries
        channel-side impairments (bursty loss, churn, location error) a
        :class:`~repro.faults.inject.FaultInjector` is attached to the
        channel; the ``receiver_give_up`` knob is wired separately through
        :class:`MacConfig` by the experiment runner.
    """

    def __init__(
        self,
        positions: np.ndarray,
        radius: float,
        mac_cls: Type[MacBase],
        capture: CaptureModel | None = None,
        frame_error_rate: float = 0.0,
        seed: int = 0,
        mac_config: MacConfig | None = None,
        mac_kwargs: dict[str, Any] | None = None,
        beacons: "BeaconConfig | None" = None,
        interference_factor: float = 1.0,
        propagation: UnitDiskPropagation | None = None,
        faults: "FaultPlan | None" = None,
    ):
        self.env = Environment()
        self.mac_config = mac_config or MacConfig()
        self.propagation = (
            propagation
            if propagation is not None
            else UnitDiskPropagation(positions, radius, interference_factor=interference_factor)
        )
        self.channel = Channel(
            self.env,
            self.propagation,
            capture=capture,
            frame_error_rate=frame_error_rate,
            rng=random.Random(f"{seed}:channel"),
            phy=self.mac_config.phy,
        )
        self.seed = seed
        #: Optional fault machinery (see repro.faults).  Only instantiated
        #: when the plan needs channel-side state, so benign runs carry no
        #: injector at all -- the bit-identity contract's cheap half.
        self.faults = None
        if faults is not None and faults.needs_injector:
            from repro.faults.inject import FaultInjector

            self.faults = FaultInjector(
                faults,
                n_nodes=self.propagation.n_nodes,
                seed=seed,
                env=self.env,
                counters=self.channel.counters,
            )
            self.channel.faults = self.faults
            self.channel.location_offset = self.faults.location_offset()
            self.faults.start_churn()
        # Heterogeneous networks (Section 4's coexistence claim): pass a
        # sequence of MAC classes, one per node.
        n = self.propagation.n_nodes
        if isinstance(mac_cls, (list, tuple)):
            if len(mac_cls) != n:
                raise ValueError(
                    f"got {len(mac_cls)} MAC classes for {n} nodes"
                )
            classes = list(mac_cls)
        else:
            classes = [mac_cls] * n
        self.macs: list[MacBase] = [
            classes[node_id](
                self.env,
                node_id,
                self.channel,
                random.Random(f"{seed}:node:{node_id}"),
                config=self.mac_config,
                **(mac_kwargs or {}),
            )
            for node_id in range(n)
        ]
        #: Optional per-node beacon services (neighbor/location discovery).
        self.beacon_services = []
        if beacons is not None:
            from repro.mac.beacons import BeaconService

            for mac in self.macs:
                service = BeaconService(mac, beacons)
                mac.beacons = service
                self.beacon_services.append(service)

    @property
    def n_nodes(self) -> int:
        return self.propagation.n_nodes

    def mac(self, node_id: int) -> MacBase:
        return self.macs[node_id]

    def run(self, until: float | None = None) -> None:
        self.env.run(until=until)
        self.channel.finalize_counters()

    def all_requests(self):
        """Every finished request across all nodes (for metrics)."""
        out = []
        for mac in self.macs:
            out.extend(mac.completed)
        return out

    def average_degree(self) -> float:
        return self.propagation.average_degree()

"""repro -- reproduction of *Reliable MAC Layer Multicast in IEEE 802.11
Wireless Networks* (Min-Te Sun, Lifei Huang, Anish Arora, Ten-Hwang Lai;
ICPP 2002).

The package provides:

* the paper's protocols, **BMMM** (:class:`repro.core.BmmmMac`) and
  **LAMM** (:class:`repro.core.LammMac`);
* the baselines it compares against: plain 802.11 multicast, Tang-Gerla
  [19], BSMA [20] and BMW [21] (:mod:`repro.protocols`);
* a slotted wireless-LAN discrete-event simulator built from scratch
  (:mod:`repro.sim`, :mod:`repro.phy`, :mod:`repro.mac`);
* the location-aware geometry LAMM needs -- cover angles, cover sets,
  minimum cover set (:mod:`repro.geometry`);
* the closed-form analysis of Section 6 (:mod:`repro.analysis`);
* workload generation, metrics, and per-figure experiment harnesses
  (:mod:`repro.workload`, :mod:`repro.metrics`, :mod:`repro.experiments`).

The stable public API is the Scenario surface (documented in
``docs/index.md``)::

    from repro import FaultPlan, Scenario, SimulationSettings, run, sweep

    settings = SimulationSettings(n_nodes=50, faults=FaultPlan(location_sigma=0.05))
    results = run(Scenario(settings=settings, protocols=("BMMM", "LAMM"), seeds=range(10)))
    grid = sweep(Scenario(settings=settings, protocols="LAMM", seeds=range(10)),
                 points=[settings.with_(n_nodes=n) for n in (40, 70, 100)])

Quickstart at the frame level::

    import numpy as np
    from repro import Network, BmmmMac, MessageKind

    positions = np.array([[0.5, 0.5], [0.55, 0.5], [0.5, 0.55]])
    net = Network(positions, radius=0.2, mac_cls=BmmmMac, seed=1)
    req = net.mac(0).submit(MessageKind.BROADCAST)
    net.run(until=200)
    assert req.status.value == "completed"
"""

from repro.core import BmmmMac, LammMac, LammPolicy, batch_round_airtime
from repro.experiments import (
    PROTOCOLS,
    Scenario,
    SimulationSettings,
    run,
    run_once,
    run_protocol,
    sweep,
)
from repro.faults import FaultPlan, GilbertElliott, NodeChurn
from repro.geometry import (
    cover_angle,
    greedy_cover_set,
    is_cover_set,
    is_disk_covered,
    minimum_cover_set,
    update_uncovered,
)
from repro.mac import ContentionParams, MacConfig, MacRequest, MessageKind, MessageStatus
from repro.metrics import RunMetrics, summarize_run
from repro.phy import MonteCarloCapture, NoCapture, ZorziRaoCapture
from repro.protocols import BmwMac, BsmaMac, PlainMulticastMac, TangGerlaMac
from repro.sim import Channel, Environment, Frame, FrameType, Network
from repro.store import ResultStore, code_fingerprint, scenario_digest
from repro.workload import TrafficGenerator, TrafficMix, uniform_square

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # contribution
    "BmmmMac",
    "LammMac",
    "LammPolicy",
    "batch_round_airtime",
    # baselines
    "PlainMulticastMac",
    "TangGerlaMac",
    "BsmaMac",
    "BmwMac",
    # simulator
    "Environment",
    "Network",
    "Channel",
    "Frame",
    "FrameType",
    # MAC plumbing
    "MacConfig",
    "MacRequest",
    "MessageKind",
    "MessageStatus",
    "ContentionParams",
    # PHY
    "ZorziRaoCapture",
    "MonteCarloCapture",
    "NoCapture",
    # geometry
    "cover_angle",
    "is_disk_covered",
    "is_cover_set",
    "minimum_cover_set",
    "greedy_cover_set",
    "update_uncovered",
    # workload & metrics & experiments
    "TrafficGenerator",
    "TrafficMix",
    "uniform_square",
    "RunMetrics",
    "summarize_run",
    # the API: one Scenario in, metrics out
    "Scenario",
    "SimulationSettings",
    "FaultPlan",
    "GilbertElliott",
    "NodeChurn",
    "PROTOCOLS",
    "run",
    "sweep",
    "run_once",
    "run_protocol",
    # the results store (durable memoisation + regression gate)
    "ResultStore",
    "scenario_digest",
    "code_fingerprint",
]

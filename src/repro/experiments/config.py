"""Simulation settings (Table 2) and the protocol registry shims.

Protocol classes register themselves via
:func:`repro.mac.registry.register_protocol`; importing this module pulls
in every protocol module (in the classic ordering) so the registry is
complete, and re-exports the historical ``PROTOCOLS`` /
``SIMULATED_PROTOCOLS`` / ``protocol_class`` surface as thin shims over
it.  New code should query :mod:`repro.mac.registry` directly for
capability flags (``needs_positions``, ``rate_adaptive``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Type

from repro.faults.plan import FaultPlan
from repro.mac.base import MacBase, MacConfig
from repro.mac.contention import ContentionParams
from repro.mac.registry import paper_protocols, protocol_info, registered_protocols
from repro.obs.codec import normalise_fields
from repro.phy.profile import PhyProfile
from repro.workload.generator import TrafficMix, check_count

# Importing the protocol modules registers them; the import order fixes
# the classic PROTOCOLS iteration order (802.11 first, paper four in the
# middle, extensions last).
import repro.protocols.plain  # noqa: F401,E402
import repro.protocols.tang_gerla  # noqa: F401,E402
import repro.protocols.bsma  # noqa: F401,E402
import repro.protocols.bmw  # noqa: F401,E402
import repro.core.bmmm  # noqa: F401,E402
import repro.core.lamm  # noqa: F401,E402
import repro.protocols.lacs  # noqa: F401,E402
import repro.protocols.leader  # noqa: F401,E402
import repro.protocols.ram  # noqa: F401,E402

__all__ = ["SimulationSettings", "PROTOCOLS", "SIMULATED_PROTOCOLS", "protocol_class"]


@dataclass(frozen=True)
class SimulationSettings:
    """One simulation's parameters; defaults reproduce Table 2.

    =======================  ==================
    Parameter                Table 2 value
    =======================  ==================
    Signal time              1 slot (phy profile)
    Data transmission time   5 slots (phy profile)
    Simulation time          10000 slots
    Time out                 100 slots
    Radius                   0.2
    Unicast ratio            0.2
    Multicast ratio          0.4
    Broadcast ratio          0.4
    Message generation rate  0.0005 /node/slot
    Reliability threshold    90%
    Nodes                    100 (unit square)
    =======================  ==================
    """

    n_nodes: int = 100
    side: float = 1.0
    radius: float = 0.2
    horizon: int = 10_000
    timeout_slots: float = 100.0
    message_rate: float = 0.0005
    mix: TrafficMix = field(default_factory=TrafficMix)
    threshold: float = 0.9
    #: DS capture enabled (the paper enables it "to ensure that BSMA works
    #: as designed").
    capture: bool = True
    frame_error_rate: float = 0.0
    #: Interference range as a multiple of decode range (paper model: 1.0;
    #: the interference ablation sweeps it upward).
    interference_factor: float = 1.0
    contention: ContentionParams = field(default_factory=ContentionParams)
    #: Impairments beyond the paper's benign world (bursty loss, churn,
    #: location error, retry caps); the default plan is all-zero and
    #: contractually free (see repro.faults).
    faults: FaultPlan = field(default_factory=FaultPlan)
    #: The PHY rate table and SNR->MCS mapping; the default single-rate
    #: profile is Table 2's 1-slot signal / 5-slot data world.
    phy: PhyProfile = field(default_factory=PhyProfile)

    def __post_init__(self) -> None:
        normalise_fields(self)
        MacConfig.check_timeout(self.timeout_slots)
        if not math.isfinite(self.timeout_slots):
            # MacConfig and MacBase.submit still take inf; a campaign point
            # cannot, since its settings digest needs a finite float.
            raise ValueError(
                f"timeout_slots must be finite, got {self.timeout_slots!r}: an infinite "
                "request lifetime has no canonical JSON form, so the point has no "
                "store address"
            )
        # Checked here, not first inside a (possibly remote) sweep worker.
        check_count("n_nodes", self.n_nodes)
        check_count("horizon", self.horizon)
        # Written so NaN fails every comparison: a NaN geometry would
        # otherwise simulate an empty (or mirrored) world without a word.
        for name in ("side", "radius"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if not math.isfinite(self.interference_factor):
            raise ValueError(
                f"interference_factor must be finite, got {self.interference_factor!r}"
            )
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {self.threshold!r}")

    def with_(self, **changes: Any) -> "SimulationSettings":
        """A modified copy (sweep helper)."""
        return replace(self, **changes)


#: The classic presentation order (802.11 first, the paper's four in the
#: middle, extensions last); registration order can differ when another
#: module imported a protocol before this one ran.
_CLASSIC_ORDER = ("802.11", "TangGerla", "BSMA", "BMW", "BMMM", "LAMM", "LACS", "LBP", "RAM")

#: Every protocol in this package (name -> (class, extra MAC kwargs)).
#: Shim over :mod:`repro.mac.registry`, kept for compatibility.
PROTOCOLS: dict[str, tuple[Type[MacBase], dict[str, Any]]] = {
    name: (protocol_info(name).cls, dict(protocol_info(name).mac_kwargs))
    for name in (
        *(n for n in _CLASSIC_ORDER if n in registered_protocols()),
        *(n for n in registered_protocols() if n not in _CLASSIC_ORDER),
    )
}

#: The four protocols the paper simulates, in its plotting order.
SIMULATED_PROTOCOLS = paper_protocols()


def protocol_class(name: str) -> tuple[Type[MacBase], dict[str, Any]]:
    """Resolve a registry name to (MAC class, extra constructor kwargs)."""
    info = protocol_info(name)
    return info.cls, dict(info.mac_kwargs)

"""The all-zero contract: a no-op ``FaultPlan`` is contractually *free*.

Acceptance criterion (d) of the faults subsystem: running with an
explicitly constructed but zero-effect plan must produce metrics AND
observability counters bit-identical to the defaults -- not merely
statistically close.  This holds because every fault draw comes from
dedicated ``{seed}:faults:*`` RNG streams and fault counters only exist
once incremented.
"""

import pytest

from repro.experiments.config import SIMULATED_PROTOCOLS, SimulationSettings, protocol_class
from repro.experiments.runner import run_raw
from repro.faults import FaultPlan, GilbertElliott, NodeChurn

from tests.faults.conftest import canon

BASE = SimulationSettings(n_nodes=20, horizon=800, message_rate=0.003)

#: Plans that engage the configuration surface without being able to
#: change any outcome.
ZERO_PLANS = [
    FaultPlan(),
    # A chain that churns between states but never loses a frame.
    FaultPlan(burst=GilbertElliott(p_good_bad=0.3, p_bad_good=0.5, loss_bad=0.0)),
    # BAD state configured lossy but unreachable.
    FaultPlan(burst=GilbertElliott(p_good_bad=0.0, loss_bad=1.0)),
    # Churn with zero hazard.
    FaultPlan(churn=NodeChurn(crash_rate=0.0, mean_downtime=50.0)),
    # Everything at once, all zeroed.
    FaultPlan(
        burst=GilbertElliott(),
        churn=NodeChurn(),
        location_sigma=0.0,
        receiver_give_up=0,
    ),
]


@pytest.mark.parametrize("plan", ZERO_PLANS, ids=lambda p: repr(p)[:60])
@pytest.mark.parametrize("protocol", SIMULATED_PROTOCOLS)
def test_noop_plan_is_bit_identical(plan, protocol):
    assert plan.is_noop
    mac_cls, kwargs = protocol_class(protocol)
    for seed in (0, 1):
        baseline = run_raw(mac_cls, BASE, seed, kwargs)
        faulted = run_raw(mac_cls, BASE.with_(faults=plan), seed, kwargs)
        assert canon(faulted.metrics()) == canon(baseline.metrics()), (protocol, seed)
        assert faulted.counters == baseline.counters, (protocol, seed)
        assert faulted.average_degree == baseline.average_degree


def test_noop_plan_attaches_no_machinery():
    from repro.core.bmmm import BmmmMac
    from repro.experiments.runner import build_network

    net = build_network(BmmmMac, BASE.with_(faults=ZERO_PLANS[1]), seed=0)
    assert net.faults is None
    assert net.channel.faults is None
    assert net.channel.location_offset is None


def test_active_plan_changes_outcomes():
    """Sanity for the property above: a *non*-noop plan at the same seed
    does move the metrics, so the bit-identity assertions have teeth."""
    mac_cls, kwargs = protocol_class("BMMM")
    plan = FaultPlan(burst=GilbertElliott.from_burst(16, 0.3))
    baseline = run_raw(mac_cls, BASE, 0, kwargs)
    faulted = run_raw(mac_cls, BASE.with_(faults=plan), 0, kwargs)
    assert canon(faulted.metrics()) != canon(baseline.metrics())
    assert faulted.counters.total["faults.burst_losses"] > 0

"""Location-error injection: protocols see jittered positions, the channel
propagates on the truth.

The interesting consequence is LAMM-specific: Theorem 3's coverage
inference is only sound when the geometry it reasons over matches
reality, so location error produces *coverage violations* -- receivers
declared covered by an UPDATE who never actually got the DATA.  These
are counted exactly (``lamm.coverage_violations``), satisfying the
acceptance criterion that sigma > 0 makes the counter fire on a seeded
scenario.
"""

import numpy as np
import pytest

from repro.experiments.config import SimulationSettings
from repro.experiments.runner import run_once
from repro.experiments.scenario import Scenario
from repro.faults import FaultInjector, FaultPlan

#: Probed scenario: sigma=0.08 (40% of the 0.2 radius) reliably produces
#: unsound inferences at seed 3 while the network stays functional.
JITTERY = SimulationSettings(
    n_nodes=40,
    horizon=2000,
    message_rate=0.004,
    faults=FaultPlan(location_sigma=0.08),
)


class TestLocationOffset:
    def test_sigma_zero_draws_no_offset(self):
        inj = FaultInjector(FaultPlan(), n_nodes=3, seed=0)
        assert inj.location_offset() is None

    def test_jitter_is_gaussian_scale(self):
        inj = FaultInjector(FaultPlan(location_sigma=0.05), n_nodes=500, seed=1)
        offsets = inj.location_offset()
        assert offsets.shape == (500, 2)
        assert offsets.std() == pytest.approx(0.05, rel=0.15)
        assert abs(offsets.mean()) < 0.01

    def test_jitter_deterministic_in_seed(self):
        plan = FaultPlan(location_sigma=0.05)
        a = FaultInjector(plan, 10, seed=4).location_offset()
        b = FaultInjector(plan, 10, seed=4).location_offset()
        c = FaultInjector(plan, 10, seed=5).location_offset()
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestSensedPositions:
    def test_network_splits_truth_from_belief(self):
        from repro.core.lamm import LammMac
        from repro.sim.network import Network
        from repro.workload.topology import uniform_square

        pos = uniform_square(12, seed=0)
        net = Network(
            pos, 0.2, LammMac, seed=0, faults=FaultPlan(location_sigma=0.05)
        )
        sensed = net.channel.sensed_positions()
        assert not np.array_equal(sensed, net.propagation.positions)
        # Truth drives propagation, untouched by the jitter.
        assert np.array_equal(net.propagation.positions, pos)

    def test_benign_network_senses_truth(self):
        from repro.core.lamm import LammMac
        from repro.sim.network import Network
        from repro.workload.topology import uniform_square

        net = Network(uniform_square(12, seed=0), 0.2, LammMac, seed=0)
        assert net.channel.sensed_positions() is net.propagation.positions


class TestSensedUnderMobility:
    def test_belief_moves_with_the_truth(self):
        """The jitter is drawn once and rides on the *current* truth: the
        belief error stays exactly the drawn offset while the nodes move.
        (The perceived map used to be drawn from the t=0 truth and never
        refreshed, so this scenario's belief error reached 0.88.)"""
        from repro.core.lamm import LammMac
        from repro.sim.network import Network
        from repro.workload.mobility import RandomWaypointMobility
        from repro.workload.topology import uniform_square

        plan = FaultPlan(location_sigma=0.01)
        net = Network(uniform_square(40, seed=1), 0.2, LammMac, seed=1, faults=plan)
        RandomWaypointMobility(net, speed=0.001, epoch=25)
        start = net.propagation.positions.copy()
        assert np.array_equal(net.channel.sensed_positions(), start + net.channel.location_offset)
        offset = net.channel.sensed_positions() - start
        for until in range(250, 2001, 250):
            net.run(until=until)
            truth = net.propagation.positions
            sensed = net.channel.sensed_positions()
            assert np.allclose(sensed - truth, offset, rtol=0.0, atol=1e-12)
            # One array per truth array, so LAMM keeps its geometry
            # between mobility epochs.
            assert net.channel.sensed_positions() is sensed
        assert np.abs(net.propagation.positions - start).max() > 0.5


class TestCoverageViolations:
    def test_sigma_produces_violations(self):
        m = run_once(Scenario(settings=JITTERY, protocols="LAMM", seeds=3))
        assert m.counters["lamm.coverage_violations"] >= 1

    def test_benign_lamm_never_violates(self):
        """Theorem 3 is exact in its own model: true geometry plus a pure
        collision channel (collision = loss for *everyone*).

        DS capture is outside that model: a cover-set ACKer can capture the
        DATA through the very interference that silences an inferred member,
        so its ACK vouches for a disk that was not actually interference-free
        and the inference leaks even with perfect locations.  The theorem
        check therefore runs with ``capture=False``; the capture leak itself
        is pinned by ``test_capture_can_leak_benign_inference`` below."""
        benign = JITTERY.with_(faults=FaultPlan(), capture=False)
        for seed in range(3):
            m = run_once(Scenario(settings=benign, protocols="LAMM", seeds=seed))
            assert "lamm.coverage_violations" not in m.counters

    def test_capture_can_leak_benign_inference(self):
        """The capture effect alone -- no faults at all -- can make Theorem
        3's inference unsound: the ACKer decodes through interference that
        a covered-but-unpolled member loses to.  Seed-pinned like the sigma
        probe above (seed 2 exhibits the leak: ACKer 18 captures the DATA
        that collides unrecoverably at inferred member 34)."""
        benign = JITTERY.with_(faults=FaultPlan())
        m = run_once(Scenario(settings=benign, protocols="LAMM", seeds=2))
        assert m.counters["captures"] > 0
        assert m.counters["lamm.coverage_violations"] >= 1

    def test_violations_deterministic(self):
        sc = Scenario(settings=JITTERY, protocols="LAMM", seeds=3)
        assert run_once(sc).counters == run_once(sc).counters

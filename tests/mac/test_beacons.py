"""Tests for the beacon service and neighbor tables."""

import numpy as np
import pytest

from repro.core.lamm import LammMac
from repro.mac.base import MessageKind, MessageStatus
from repro.mac.beacons import BeaconConfig, BeaconService, NeighborTable
from repro.protocols.plain import PlainMulticastMac
from repro.sim.frames import FrameType
from repro.sim.kernel import Environment
from repro.sim.network import Network

from tests.conftest import star_positions


class TestBeaconConfig:
    def test_defaults(self):
        c = BeaconConfig()
        assert c.period == 100.0 and c.lifetime > c.period

    def test_validation(self):
        with pytest.raises(ValueError):
            BeaconConfig(period=0)
        with pytest.raises(ValueError):
            BeaconConfig(jitter=200)
        with pytest.raises(ValueError):
            BeaconConfig(period=100, lifetime=50)


class TestNeighborTable:
    def test_update_and_query(self):
        env = Environment()
        t = NeighborTable(env, lifetime=50)
        t.update(3, (0.1, 0.2))
        assert t.neighbors() == frozenset({3})
        assert t.position(3) == (0.1, 0.2)

    def test_staleness_eviction(self):
        env = Environment()
        t = NeighborTable(env, lifetime=50)
        t.update(3, (0.1, 0.2))
        env.run(until=60)
        assert t.neighbors() == frozenset()
        assert t.position(3) is None

    def test_refresh_resets_clock(self):
        env = Environment()
        t = NeighborTable(env, lifetime=50)
        t.update(3, (0.1, 0.2))
        env.run(until=40)
        t.update(3, (0.3, 0.4))
        env.run(until=80)
        assert t.position(3) == (0.3, 0.4)

    def test_position_none_when_not_advertised(self):
        env = Environment()
        t = NeighborTable(env, lifetime=50)
        t.update(2, None)
        assert 2 in t.neighbors()
        assert t.position(2) is None
        assert t.known_positions() == {}

    def test_len(self):
        env = Environment()
        t = NeighborTable(env, lifetime=50)
        t.update(1, None)
        t.update(2, None)
        assert len(t) == 2


class TestBeaconService:
    def test_beacons_transmitted_periodically(self):
        net = Network(
            star_positions(2), 0.2, PlainMulticastMac, seed=1,
            beacons=BeaconConfig(period=50, jitter=5, lifetime=200),
        )
        net.run(until=500)
        assert net.channel.counters.get(FrameType.BEACON.sent_key) >= 3 * 8
        for svc in net.beacon_services:
            assert net.channel.counters.get(FrameType.BEACON.sent_key, node=svc.mac.node_id) >= 8

    def test_tables_learn_all_neighbors(self):
        net = Network(
            star_positions(3), 0.2, PlainMulticastMac, seed=1,
            beacons=BeaconConfig(period=50, jitter=5, lifetime=200),
        )
        net.run(until=300)
        for i in range(4):
            learned = net.beacon_services[i].table.neighbors()
            assert learned == net.propagation.neighbors[i]

    def test_learned_positions_are_correct(self):
        net = Network(
            star_positions(2), 0.2, PlainMulticastMac, seed=2,
            beacons=BeaconConfig(period=50, jitter=5, lifetime=200),
        )
        net.run(until=300)
        table = net.beacon_services[0].table
        for j in net.propagation.neighbors[0]:
            pos = table.position(j)
            assert pos is not None
            assert np.allclose(pos, net.propagation.positions[j])

    def test_location_can_be_disabled(self):
        net = Network(
            star_positions(2), 0.2, PlainMulticastMac, seed=2,
            beacons=BeaconConfig(period=50, jitter=5, lifetime=200, include_location=False),
        )
        net.run(until=300)
        table = net.beacon_services[0].table
        assert table.neighbors()
        assert table.known_positions() == {}


class TestLammWithBeacons:
    def test_requires_service(self):
        net = Network(
            star_positions(2), 0.2, LammMac, seed=1,
            mac_kwargs={"location_source": "beacons"},  # but no beacons=...
        )
        net.mac(0).submit(MessageKind.BROADCAST)
        with pytest.raises(RuntimeError, match="BeaconService"):
            net.run(until=300)

    def test_invalid_source_rejected(self):
        with pytest.raises(ValueError):
            Network(
                star_positions(2), 0.2, LammMac, seed=1,
                mac_kwargs={"location_source": "gps?"},
            )

    def test_completes_with_learned_locations(self):
        net = Network(
            star_positions(5), 0.2, LammMac, seed=3,
            mac_kwargs={"location_source": "beacons"},
            beacons=BeaconConfig(period=50, jitter=5, lifetime=400),
        )
        # Let two beacon rounds happen so locations are known.
        def later():
            yield net.env.timeout(150)
            req = net.mac(0).submit(MessageKind.BROADCAST, timeout=500)
            reqs.append(req)

        reqs = []
        net.env.process(later())
        net.run(until=1000)
        assert reqs[0].status is MessageStatus.COMPLETED
        assert reqs[0].acked == reqs[0].dests

    def test_cold_start_degrades_to_direct_polling(self):
        """Before any beacon is heard LAMM polls everyone directly (BMMM
        behaviour) and still completes reliably."""
        net = Network(
            star_positions(4), 0.2, LammMac, seed=4,
            mac_kwargs={"location_source": "beacons"},
            beacons=BeaconConfig(period=500, jitter=10, lifetime=1600),
        )
        req = net.mac(0).submit(MessageKind.BROADCAST, timeout=400)
        net.run(until=450)
        assert req.status is MessageStatus.COMPLETED
        assert req.inferred == set()  # nothing could be inferred
        assert req.acked == req.dests


class TestBeaconDeterminism:
    def test_beacon_networks_are_seed_deterministic(self):
        """Beacon timing must be a pure function of the network seed (a
        regression test: an earlier version seeded from object ids)."""
        def run():
            net = Network(
                star_positions(3), 0.2, PlainMulticastMac, seed=9,
                beacons=BeaconConfig(period=50, jitter=10, lifetime=200),
            )
            net.run(until=400)
            return [
                net.channel.counters.get(FrameType.BEACON.sent_key, node=svc.mac.node_id)
                for svc in net.beacon_services
            ]

        assert run() == run()

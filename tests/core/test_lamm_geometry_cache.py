"""LAMM's per-topology cover geometry is rebuilt whenever its positions
array changes.

The channel holds one :class:`~repro.geometry.cover.CoverGeometry` per
sensed-positions array.  Each cell below moves the array LAMM reads in a
different way -- mobility replaces the truth, a location-error fault puts a
perceived array in front of it (moving with the truth under mobility),
beacon mode builds a fresh array per round -- and must give the same
metrics and counters as a run whose ``repro.core.lamm`` geometry is the
uncached reference.
"""

import dataclasses

import pytest

from repro.core import lamm
from repro.core.lamm import LammMac
from repro.faults import FaultPlan
from repro.geometry import cover as cover_mod
from repro.mac.beacons import BeaconConfig
from repro.metrics.aggregate import summarize_run
from repro.sim.network import Network
from repro.workload.generator import TrafficGenerator
from repro.workload.mobility import RandomWaypointMobility
from repro.workload.topology import uniform_square

from tests.geometry import reference_cover

N, HORIZON, RATE, SEED = 80, 3000, 0.002, 3
EPOCH = 25
#: The cells whose nodes move.
MOBILE = ("mobility", "mobile_location_error")


def _cell(kind: str):
    kwargs = {}
    if kind in ("location_error", "mobile_location_error"):
        kwargs["faults"] = FaultPlan(location_sigma=0.05)
    if kind == "beacons":
        kwargs["beacons"] = BeaconConfig(period=100, jitter=10, lifetime=350)
        kwargs["mac_kwargs"] = {"location_source": "beacons"}
    net = Network(uniform_square(N, seed=SEED), 0.2, LammMac, seed=SEED, **kwargs)
    if kind in MOBILE:
        RandomWaypointMobility(net, speed=0.0005, epoch=EPOCH, seed=SEED)
    requests = TrafficGenerator(N, net.propagation.neighbors, HORIZON, RATE, seed=SEED).inject(net)
    net.run(until=HORIZON)
    counters = net.channel.counters
    metrics = summarize_run(requests, net.channel.stats, counters=counters)
    # Message ids come from a process-wide counter; drop them.
    metrics = dataclasses.replace(
        metrics,
        group_scores=[dataclasses.replace(s, msg_id=0) for s in metrics.group_scores],
        all_scores=[dataclasses.replace(s, msg_id=0) for s in metrics.all_scores],
    )
    return metrics, dict(counters.total), {n: dict(c) for n, c in counters.per_node.items()}


@pytest.mark.parametrize(
    "kind", ["mobility", "location_error", "mobile_location_error", "beacons"]
)
def test_cached_geometry_matches_reference(kind, monkeypatch):
    built = []
    init = cover_mod.CoverGeometry.__init__

    def counting_init(self, positions, radius):
        built.append(positions)
        init(self, positions, radius)

    monkeypatch.setattr(cover_mod.CoverGeometry, "__init__", counting_init)
    cached = _cell(kind)
    monkeypatch.undo()

    for name in ("greedy_cover_set", "minimum_cover_set", "update_uncovered"):
        monkeypatch.setattr(lamm, name, getattr(reference_cover, name))
    reference = _cell(kind)

    same_metrics, same_counters = cached[0] == reference[0], cached[1:] == reference[1:]
    assert same_metrics and same_counters
    # The cell exercised what it is meant to: coverage inference ran, and
    # the geometry followed each new positions array (mobility, with or
    # without location error: at most one per epoch; beacons: one per
    # round; location error alone: the one perceived map).
    assert cached[1]["lamm.inferred"] > 0
    distinct = len({id(p) for p in built})
    assert distinct == len(built)
    if kind == "location_error":
        assert len(built) == 1
    else:
        assert len(built) > 10
    if kind in MOBILE:
        assert len(built) <= HORIZON // EPOCH + 1

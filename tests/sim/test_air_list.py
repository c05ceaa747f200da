"""The channel-wide air list against the per-radio overlap lists.

The channel decides every frame's collisions once, from one start-ordered
list of the transmissions on the air: ``_finish`` collects the frame's
rivals and each receiver checks half-duplex, the preamble and ``k`` by set
membership over them.  :class:`~tests.sim.reference_channel.ReferenceChannel`
keeps the old verdict, rescanned per receiver from per-radio lists.  The
two must agree on everything observable: metrics, counters, DATA receipts,
final NAV state and the observability event stream.

A rival-free frame skips ``_receive_at``: ``_finish`` serves its receivers
in one loop (``Channel._deliver_clean``).  The tests below count the
frames that loop serves, so they prove it ran, and pin each condition
that sends a frame back to ``_receive_at``.
"""

from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings as hsettings, strategies as st

from repro.experiments.config import SimulationSettings
from repro.experiments.ratesweep import RATE_PROFILES
from repro.faults import FaultPlan, NodeChurn
from repro.mac.registry import registered_protocols
from repro.phy.profile import PhyProfile
from repro.phy.propagation import UnitDiskPropagation
from repro.sim.channel import Channel, Transmission
from repro.sim.frames import Frame, FrameType, GROUP_ADDR
from repro.sim.kernel import Environment

from tests.sim.reference_channel import ReferenceChannel
from tests.sim.test_bystander_lane import churn_plans, reception_paths, simulate

PROFILES = [
    PhyProfile(),
    PhyProfile(signal_slots=1, data_slots=(5, 3), range_fractions=(1.0, 0.7)),
    PhyProfile(signal_slots=2, data_slots=(8, 4, 2), range_fractions=(1.0, 0.75, 0.5)),
]


def assert_same(name, settings, seed, **kwargs):
    fast = simulate(name, settings, seed, **kwargs)
    ref = simulate(name, settings, seed, channel_cls=ReferenceChannel, **kwargs)
    for key in fast:
        assert fast[key] == ref[key], key
    return fast


def test_air_list_equals_overlap_lists():
    """The property below, with the frames the rival-free loop served
    counted over all drawn examples."""
    with reception_paths() as (loop, _):
        air_list_property()
    assert loop


@hsettings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    name=st.sampled_from(registered_protocols()),
    n_nodes=st.integers(6, 30),
    side=st.sampled_from([0.5, 1.0]),
    seed=st.integers(0, 10_000),
    rate=st.sampled_from([0.002, 0.005, 0.01]),
    capture=st.booleans(),
    fer=st.sampled_from([0.0, 0.05, 0.2]),
    interference=st.sampled_from([1.0, 1.3, 2.0]),
    phy=st.sampled_from(PROFILES),
    faults=churn_plans,
)
def air_list_property(
    name, n_nodes, side, seed, rate, capture, fer, interference, phy, faults
):
    settings = SimulationSettings(
        n_nodes=n_nodes,
        side=side,
        horizon=500,
        message_rate=rate,
        capture=capture,
        frame_error_rate=fer,
        interference_factor=interference,
        phy=phy,
        faults=faults,
    )
    assert_same(name, settings, seed)


@pytest.mark.parametrize(
    "name, phy, faults",
    [
        ("BSMA", PROFILES[0], FaultPlan()),
        ("RAM", PROFILES[1], FaultPlan(churn=NodeChurn(crash_rate=0.002, mean_downtime=40.0))),
        ("BMW", PROFILES[2], FaultPlan(churn=NodeChurn(crash_rate=0.002, mean_downtime=40.0))),
    ],
)
def test_busy_cells_match_overlap_lists(name, phy, faults):
    """Dense, busy cells where every verdict path fires: collisions,
    captures, half-duplex losses, rate losses (multi-rate RAM) and
    crashed receivers."""
    settings = SimulationSettings(
        n_nodes=30,
        side=0.5,
        horizon=800,
        message_rate=0.01,
        frame_error_rate=0.05,
        interference_factor=1.3,
        phy=phy,
        faults=faults,
    )
    out = assert_same(name, settings, seed=2)
    totals = out["counters"][0]
    assert totals["collisions"] > 0 and totals["captures"] > 0
    assert totals["half_duplex_losses"] > 0 and totals["frame_errors"] > 0
    if name == "RAM":
        assert totals["rate_losses"] > 0
    if faults.churn is not None:
        assert totals["faults.rx_dropped"] > 0


def test_rival_free_loop_with_frame_errors_matches_overlap_lists():
    """A fixed cell at ``fer=0.2``: the loop's frame-error draws and
    losses agree with the reference's."""
    settings = SimulationSettings(
        n_nodes=20, side=0.5, horizon=600, message_rate=0.005, frame_error_rate=0.2
    )
    with reception_paths() as (loop, per_receiver):
        out = assert_same("BMMM", settings, seed=5)
    assert loop and per_receiver
    assert out["counters"][0]["frame_errors"] > 0


@pytest.mark.parametrize(
    "name, settings, served_by_loop",
    [
        # A churn plan attaches the fault machinery: no frame takes the loop.
        (
            "BMMM",
            SimulationSettings(
                n_nodes=20,
                side=0.5,
                horizon=600,
                message_rate=0.005,
                faults=FaultPlan(churn=NodeChurn(crash_rate=0.002, mean_downtime=40.0)),
            ),
            lambda tx: False,
        ),
        # Multi-rate RAM: only base-rate frames take the loop.
        (
            "RAM",
            SimulationSettings(
                n_nodes=20, side=0.5, horizon=600, message_rate=0.005, phy=RATE_PROFILES["mild"]
            ),
            lambda tx: tx.frame.mcs == 0,
        ),
    ],
    ids=["churn", "mcs"],
)
def test_fallback_cells_match_overlap_lists(name, settings, served_by_loop):
    with reception_paths() as (loop, per_receiver):
        assert_same(name, settings, seed=6)
    assert per_receiver
    assert all(served_by_loop(tx) for tx in loop)
    if settings.faults.churn is None:
        assert loop and any(tx.frame.mcs for tx in per_receiver)


def _fallback(channel_cls, case):
    """Three stations, 0 and 1 close; 2 in range of both, but beyond the
    reach of the ``mild`` profile's MCS 1.  For ``"moved"``, 2 starts far
    away and moves into range while 0's DATA is on the air.  Returns (frames on the per-receiver
    path, frames on the loop, deliveries, DATA receipts, counter totals)."""
    env = Environment()
    near = np.array([[0.5, 0.5], [0.55, 0.5], [0.5, 0.68]])
    positions = np.array([*near[:2], [0.9, 0.9]]) if case == "moved" else near
    phy = RATE_PROFILES["mild"] if case == "mcs" else None
    ch = channel_cls(env, UnitDiskPropagation(positions, 0.2), phy=phy)
    radios = [ch.attach(i) for i in range(3)]
    log = []
    for radio in radios:
        radio.add_listener(lambda f, c, rid=radio.node_id: log.append((env.now, rid, f.ftype, c)))
    group = frozenset({1, 2})
    if case == "mcs":
        data = Frame(FrameType.DATA, 0, GROUP_ADDR, group=group, msg_id=7, airtime_slots=3, mcs=1)
    else:
        data = Frame(FrameType.DATA, 0, GROUP_ADDR, group=group, msg_id=7)
    ch.transmit(radios[0], data)
    if case == "rival":
        rts = Frame(FrameType.RTS, src=2, ra=1)
        env.timeout(1).callbacks.append(lambda _e: ch.transmit(radios[2], rts))
    if case == "moved":
        env.timeout(2).callbacks.append(lambda _e: ch.propagation.update_positions(near))
    # A rival-free control frame afterwards, for contrast.
    ack = Frame(FrameType.ACK, src=1, ra=0)
    env.timeout(8).callbacks.append(lambda _e: ch.transmit(radios[1], ack))
    with reception_paths() as (loop, per_receiver):
        env.run(until=12)
    return (
        [tx.frame.ftype for tx in per_receiver],
        [tx.frame.ftype for tx in loop],
        log,
        asdict(ch.stats),
        ch.finalize_counters().total,
    )


@pytest.mark.parametrize("case", ["rival", "mcs", "moved"])
def test_fallback_frames_take_receive_at(case):
    """A rival on the air, a frame above the base rate, and a receiver
    that moved into range after the preamble each send the DATA frame
    through ``_receive_at``; the verdicts match the reference."""
    on_receive_at, on_loop, log, stats, totals = _fallback(Channel, case)
    assert FrameType.DATA in on_receive_at and FrameType.DATA not in on_loop
    assert on_loop == [FrameType.ACK]
    assert (log, stats, totals) == _fallback(ReferenceChannel, case)[2:]
    if case == "mcs":
        assert totals["rate_losses"] == 1 and stats["data_receipts"] == {7: {1}}
    if case == "moved":
        assert totals["preamble_misses"] == 1 and stats["data_receipts"] == {7: {1}}


@pytest.mark.parametrize("name", ["BMMM", "LAMM", "BSMA"])
def test_mobility_matches_overlap_lists(name):
    """Nodes move every 3 slots, fast enough that stations enter decode
    range while frames are on the air and miss their preambles."""
    settings = SimulationSettings(n_nodes=30, side=0.6, horizon=800, message_rate=0.005)
    missed = []
    receive_at = Channel._receive_at

    def counting(self, radio, tx):
        if radio.node_id not in tx.hearers:
            missed.append(tx)
        receive_at(self, radio, tx)

    with mock.patch.object(Channel, "_receive_at", counting):
        out = assert_same(name, settings, seed=4, mobility_speed=0.004)
    assert out["moves"] > 200
    assert missed and out["counters"][0]["collisions"] > 0
    # assert_same compared the count with the reference channel's.
    assert out["counters"][0]["preamble_misses"] > 0


def _mid_flight_attach(channel_cls):
    """Nodes 0-2 attached; node 3, in range of everyone, attached while
    node 0's DATA is on the air.  Returns (deliveries at 3, DATA receipts,
    counter totals)."""
    env = Environment()
    positions = np.array([[0.5, 0.5], [0.55, 0.5], [0.45, 0.5], [0.5, 0.55]])
    ch = channel_cls(env, UnitDiskPropagation(positions, 0.2))
    radios = [ch.attach(i) for i in range(3)]
    log = []

    def attach_late():
        late = ch.attach(3)
        late.add_listener(lambda f, c: log.append((env.now, f.ftype, f.src, c)))
        assert not late.is_busy  # it never sensed the DATA's carrier
        # An RTS to the late node overlapping node 0's DATA.
        ch.transmit(radios[2], Frame(FrameType.RTS, src=2, ra=3))

    data = Frame(FrameType.DATA, src=0, ra=GROUP_ADDR, group=frozenset({1, 3}), msg_id=7)
    ch.transmit(radios[0], data)
    env.timeout(2).callbacks.append(lambda _e: attach_late())
    env.run(until=10)
    return log, asdict(ch.stats), ch.finalize_counters().total


def test_radio_attached_mid_flight():
    """The late radio neither hears the frame already on the air nor is
    collided by it: the RTS reaches it clean, the DATA never does."""
    log, stats, totals = _mid_flight_attach(Channel)
    assert log == [(3, FrameType.RTS, 2, True)]
    # Node 1 heard the DATA collide with the RTS; node 3 is not in it.
    assert stats["data_receipts"] == {}
    assert totals["collisions"] == 2  # node 1: DATA and RTS (capture off)
    assert totals["preamble_misses"] == 1  # node 3: the DATA
    assert (log, stats, totals) == _mid_flight_attach(ReferenceChannel)


class TestReferencePrune:
    """The reference's list pruning (formerly ``Channel._prune``)."""

    def test_stale_short_behind_fresh_long_head_is_pruned(self):
        env = Environment()
        ch = ReferenceChannel(env, UnitDiskPropagation(np.array([[0.5, 0.5], [0.55, 0.5]]), 0.2))
        radios = [ch.attach(i) for i in range(2)]
        data = Frame(FrameType.DATA, src=0, ra=GROUP_ADDR, group=frozenset({1}))
        ch.transmit(radios[0], data)
        # A second DATA in flight at t=10 keeps the horizon at 10 - 5 = 5.
        env.timeout(8).callbacks.append(lambda _e: ch.transmit(radios[0], data))
        env.run(until=10)
        rts = Frame(FrameType.RTS, src=1, ra=0)
        head = Transmission(data, 0, 3.0, 8.0)
        stale = Transmission(rts, 1, 4.0, 5.0)
        fresh = [Transmission(rts, 1, 5.0 + i, 6.0 + i) for i in range(6)]
        txs = [head, stale, *fresh]
        ch._prune(txs)
        assert txs == [head, *fresh]
        short = [stale]
        ch._prune(short)  # below PRUNE_MIN_LEN: left alone
        assert short == [stale]

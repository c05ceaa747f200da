"""Storm verdicts against the per-radio overlap lists.

A *storm* is a set of frames sharing one ``(start, end)`` (BSMA's
receivers all answer a broadcast RTS in the same slot).  The channel lists
the frames overlapping an instant once and works out each receiver's
verdict inputs once per instant: half-duplex, ``k``, the top received
power and how many senders tie at it (``Channel._finish``).
:class:`~tests.sim.reference_channel.ReferenceChannel` rescans each
receiver's own lists per frame.  The property below drives both with the
same hand-placed storms and compares deliveries, DATA receipts, per-node
counters, the event stream and the RNG state.

The drawn worlds cover storms of 2-12 frames, co-located stations (their
frames tie at every receiver; a receiver on the same spot hears them at
infinite power), receivers that transmit inside a storm, storms that
share a start or an end with another storm, capture on and off, and
frame errors.  ``test_storm_shapes_are_covered`` counts over all drawn
examples that each of those shapes occurred and mattered.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import asdict

import numpy as np
from hypothesis import HealthCheck, given, settings as hsettings, strategies as st

from repro.phy.capture import ZorziRaoCapture
from repro.phy.propagation import UnitDiskPropagation
from repro.sim.channel import LOSS_KEYS, Channel
from repro.sim.frames import Frame, FrameType, GROUP_ADDR
from repro.sim.kernel import Environment

from tests.sim.reference_channel import ReferenceChannel

#: Station spots: each pair but (3, 5), (3, 4) and (2, 5) within RADIUS,
#: so some storms have hidden senders.  Stations drawn onto one spot are
#: co-located.
SPOTS = [(0.50, 0.50), (0.55, 0.50), (0.50, 0.56), (0.44, 0.47), (0.58, 0.58), (0.62, 0.45)]
RADIUS = 0.15
TYPES = [FrameType.CTS, FrameType.NAK, FrameType.RTS, FrameType.DATA]

#: Shapes seen over the drawn examples (see test_storm_shapes_are_covered).
SEEN: Counter = Counter()


@st.composite
def worlds(draw):
    n = draw(st.integers(2, 12))
    spots = draw(st.lists(st.integers(0, len(SPOTS) - 1), min_size=n, max_size=n))
    # (start, airtime, senders): every sender of a storm starts at `start`.
    storms = draw(
        st.lists(
            st.tuples(
                st.integers(0, 6),
                st.sampled_from([1, 2, 5]),
                st.lists(st.integers(0, n - 1), min_size=2, max_size=12, unique=True),
            ),
            min_size=1,
            max_size=4,
        )
    )
    # Lone frames, some of them sent by a storm's receivers mid-storm.
    lone = draw(
        st.lists(
            st.tuples(st.integers(0, 8), st.sampled_from([1, 2, 5]), st.integers(0, n - 1)),
            max_size=4,
        )
    )
    sends = [(start, air, s) for start, air, senders in storms for s in senders]
    sends += lone
    frames = []
    for i, (start, air, sender) in enumerate(sends):
        ftype = draw(st.sampled_from(TYPES))
        if ftype is FrameType.DATA:
            group = frozenset(range(n)) - {sender}
            frame = Frame(ftype, src=sender, ra=GROUP_ADDR, group=group, msg_id=i,
                          airtime_slots=air)
        else:
            frame = Frame(ftype, src=sender, ra=draw(st.integers(0, n - 1)),
                          duration=draw(st.integers(0, 3)), airtime_slots=air)
        frames.append((start, sender, frame))
    return {
        "positions": [SPOTS[s] for s in spots],
        "frames": frames,
        "capture": draw(st.booleans()),
        "fer": draw(st.sampled_from([0.0, 0.3])),
        "seed": draw(st.integers(0, 2**16)),
    }


def run(channel_cls, world):
    """Play *world* on a fresh *channel_cls*; returns everything observable.

    A frame whose sender is still on the air at its start is skipped (on
    both channels alike)."""
    env = Environment()
    propagation = UnitDiskPropagation(np.array(world["positions"]), RADIUS)
    capture = ZorziRaoCapture() if world["capture"] else None
    ch = channel_cls(env, propagation, capture=capture, frame_error_rate=world["fer"],
                     rng=random.Random(world["seed"]))
    radios = [ch.attach(i) for i in range(propagation.n_nodes)]
    deliveries = []
    for radio in radios:
        radio.add_listener(
            lambda f, c, rid=radio.node_id: deliveries.append((env.now, rid, f.uid, c))
        )
    events = []
    env.obs.subscribe(lambda e: events.append((e.etype, e.time, e.node, e.data)))

    def send(sender, frame):
        if not radios[sender].is_transmitting:
            ch.transmit(radios[sender], frame)

    for start, sender, frame in world["frames"]:
        env.timeout(start).callbacks.append(lambda _e, s=sender, f=frame: send(s, f))
    env.run(until=20)
    counters = ch.finalize_counters()
    return {
        "deliveries": deliveries,
        "stats": asdict(ch.stats),
        "total": counters.total,
        "per_node": counters.per_node,
        "events": events,
        "rng": ch.rng.getstate(),
    }


def note_shapes(world, out):
    """Count which storm shapes *world* exercised."""
    total = out["total"]
    starts = Counter((start, f.airtime) for start, _, f in world["frames"])
    SEEN["storm"] += max(starts.values()) >= 2
    SEEN["storm_of_12"] += max(starts.values()) >= 12
    positions = world["positions"]
    storm_spots = Counter(
        (start, f.airtime, positions[s]) for start, s, f in world["frames"]
    )
    SEEN["co_located_senders"] += max(storm_spots.values()) >= 2 and total.get("collisions", 0) > 0
    SEEN["half_duplex"] += total.get("half_duplex_losses", 0) > 0
    SEEN["captures"] += total.get("captures", 0) > 0
    SEEN["frame_errors"] += total.get("frame_errors", 0) > 0
    SEEN["capture_off_collisions"] += not world["capture"] and total.get("collisions", 0) > 0


@hsettings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(world=worlds())
def storm_property(world):
    fast = run(Channel, world)
    ref = run(ReferenceChannel, world)
    for key in fast:
        assert fast[key] == ref[key], key
    note_shapes(world, fast)


def test_storm_shapes_are_covered():
    """The property, with the shapes it exercised counted."""
    SEEN.clear()
    storm_property()
    for shape in (
        "storm",
        "storm_of_12",
        "co_located_senders",
        "half_duplex",
        "captures",
        "frame_errors",
        "capture_off_collisions",
    ):
        assert SEEN[shape], shape


def test_co_located_senders_tie_at_infinite_power():
    """Three stations on one spot, one receiver elsewhere: at the station
    sharing the senders' spot both frames arrive at infinite power, and
    with an always-capturing model neither is captured (they tie); the
    far receiver sees the same tie at finite power."""
    world = {
        "positions": [SPOTS[0], SPOTS[0], SPOTS[0], SPOTS[1]],
        "frames": [
            (0, 0, Frame(FrameType.CTS, src=0, ra=3)),
            (0, 1, Frame(FrameType.NAK, src=1, ra=3)),
        ],
        "capture": True,
        "fer": 0.0,
        "seed": 1,
    }
    out = run(Channel, world)
    assert out == run(ReferenceChannel, world)
    assert out["deliveries"] == []
    assert out["total"]["collisions"] == 4  # two frames at stations 2 and 3
    assert "captures" not in out["total"]


def test_loss_keys_absent_without_losses():
    """A run with no collision, capture or half-duplex loss leaves all
    three keys out of the totals and every node's counters."""
    world = {
        "positions": [SPOTS[0], SPOTS[1], SPOTS[2]],
        "frames": [
            (0, 0, Frame(FrameType.RTS, src=0, ra=1, duration=3)),
            (2, 1, Frame(FrameType.CTS, src=1, ra=0, duration=2)),
            (4, 2, Frame(FrameType.DATA, src=2, ra=GROUP_ADDR, group=frozenset({0, 1}),
                         msg_id=1, airtime_slots=5)),
        ],
        "capture": True,
        "fer": 0.0,
        "seed": 1,
    }
    out = run(Channel, world)
    assert len(out["deliveries"]) == 6
    for key in LOSS_KEYS:
        assert key not in out["total"]
        assert all(key not in counts for counts in out["per_node"].values())

"""Additional channel edge cases: triple collisions, retry receipts,
memory bounds, capture ordering."""

import random

import numpy as np
import pytest

from repro.phy.capture import ZorziRaoCapture
from repro.phy.propagation import UnitDiskPropagation
from repro.sim.channel import Channel
from repro.sim.frames import Frame, FrameType, GROUP_ADDR
from repro.sim.kernel import Environment


def make(positions, **kw):
    env = Environment()
    prop = UnitDiskPropagation(np.asarray(positions, float), 0.2)
    ch = Channel(env, prop, **kw)
    return env, ch, [ch.attach(i) for i in range(prop.n_nodes)]


def at(env, t, fn):
    env.timeout(t).callbacks.append(lambda _e: fn())


class TestTripleCollision:
    def test_three_way_collision_capture_uses_k3(self):
        """With three overlapping frames the capture draw uses C_3; a
        model with C_2=1 but lower C_3 sometimes fails."""
        cap = ZorziRaoCapture(c2=1.0, floor=0.0, decay=0.5)  # C_3 ~ 0.135
        captured = 0
        trials = 200
        for seed in range(trials):
            env, ch, radios = make(
                [[0.5, 0.5], [0.52, 0.5], [0.6, 0.5], [0.58, 0.44]],
                capture=cap,
                rng=random.Random(seed),
            )
            log = []
            radios[0].add_listener(lambda f, c: log.append(f))
            for i in (1, 2, 3):
                ch.transmit(radios[i], Frame(FrameType.RTS, src=i, ra=0))
            env.run(until=5)
            captured += len(log)
        assert 0 < captured < trials  # neither always nor never
        assert captured / trials == pytest.approx(cap.probability(3), abs=0.08)

    def test_staggered_triple_overlap(self):
        """Chained partial overlaps: A[0,5) B[4,9) C[8,13): A and C do not
        overlap, but B collides with both; A and C survive at a receiver
        only if... they each overlap B, so all three are lost without
        capture."""
        env, ch, radios = make(
            [[0.5, 0.5], [0.52, 0.5], [0.6, 0.5], [0.58, 0.44]]
        )
        log = []
        radios[0].add_listener(lambda f, c: log.append(f))
        mk = lambda i: Frame(FrameType.DATA, src=i, ra=GROUP_ADDR, group=frozenset({0}))
        ch.transmit(radios[1], mk(1))
        at(env, 4, lambda: ch.transmit(radios[2], mk(2)))
        at(env, 8, lambda: ch.transmit(radios[3], mk(3)))
        env.run(until=20)
        assert log == []


class TestReceiptsAcrossRetries:
    def test_retry_accumulates_receipts(self):
        """The same msg_id transmitted twice merges receiver sets."""
        env, ch, radios = make([[0.5, 0.5], [0.62, 0.5], [0.38, 0.5]])
        d = lambda: Frame(
            FrameType.DATA, src=0, ra=GROUP_ADDR, group=frozenset({1, 2}), msg_id=42
        )
        # First try: node 1 jammed by its own transmission.
        ch.transmit(radios[1], Frame(FrameType.RTS, src=1, ra=0))
        ch.transmit(radios[0], d())
        at(env, 10, lambda: ch.transmit(radios[0], d()))
        env.run(until=30)
        assert ch.stats.data_receipts[42] == {1, 2}


class TestMemoryBounds:
    def test_air_list_stays_bounded(self):
        """Continuous traffic must not grow the air list without bound
        (the pruning horizon)."""
        env, ch, radios = make([[0.5, 0.5], [0.55, 0.5]])
        for i in range(500):
            at(env, 2 * i, lambda i=i: ch.transmit(radios[0], Frame(FrameType.RTS, src=0, ra=1, seq=i)))
        env.run(until=1100)
        # Unpruned, the list would hold all 500 frames.
        assert ch.finalize_counters().get(FrameType.RTS.sent_key) == 500
        assert 0 < len(ch.air) < 20


class TestCaptureOrdering:
    def test_capture_of_earlier_weaker_frame_never_happens(self):
        """The weaker frame is lost even when it started first."""
        always = ZorziRaoCapture(c2=1.0, floor=1.0)
        env, ch, radios = make(
            [[0.5, 0.5], [0.52, 0.5], [0.6, 0.5]], capture=always
        )
        log = []
        radios[0].add_listener(lambda f, c: log.append(f))
        # Far (weak) node 2 starts a DATA first; near node 1 interrupts.
        ch.transmit(radios[2], Frame(FrameType.DATA, src=2, ra=GROUP_ADDR, group=frozenset({0})))
        at(env, 1, lambda: ch.transmit(radios[1], Frame(FrameType.RTS, src=1, ra=0)))
        env.run(until=10)
        assert [f.src for f in log] == [1]

    def test_sender_counts_in_overlap_even_if_it_cannot_receive(self):
        """A receiver's own (half-duplex-lost) frame still interferes with
        others at third parties."""
        env, ch, radios = make([[0.5, 0.5], [0.55, 0.5], [0.45, 0.5]])
        log2 = []
        radios[2].add_listener(lambda f, c: log2.append(f))
        # 0 and 1 transmit simultaneously; node 2 hears both -> collision.
        ch.transmit(radios[0], Frame(FrameType.RTS, src=0, ra=1))
        ch.transmit(radios[1], Frame(FrameType.RTS, src=1, ra=0))
        env.run(until=5)
        assert log2 == []

"""Tests for the exposed-terminal relief (future-work extension)."""

import numpy as np

from repro.mac.base import MessageKind, MessageStatus
from repro.mac.exposed import concurrent_transmission_safe
from repro.protocols.lacs import LacsMulticastMac
from repro.protocols.plain import PlainMulticastMac
from repro.sim.channel import Transmission
from repro.sim.frames import Frame, FrameType, GROUP_ADDR
from repro.sim.network import Network

from tests.conftest import air_log

R = 0.2

#: The classic exposed-terminal layout: two independent pairs.
#: B(1) <- A(0) ... C(2) -> D(3); A and C hear each other, but A cannot
#: reach D and C cannot reach B.
EXPOSED = np.array(
    [
        [0.30, 0.5],  # A (sender 1)
        [0.15, 0.5],  # B (receiver of A)
        [0.45, 0.5],  # C (sender 2, hears A)
        [0.60, 0.5],  # D (receiver of C)
    ]
)


def locate_from(positions):
    return lambda i: (float(positions[i][0]), float(positions[i][1]))


def group_data(src, group):
    return Frame(FrameType.DATA, src=src, ra=GROUP_ADDR, group=frozenset(group))


class TestSafetyPredicate:
    def test_exposed_pair_is_safe(self):
        tx = Transmission(group_data(0, {1}), 0, 0, 5)
        assert concurrent_transmission_safe(2, {3}, [tx], R, locate_from(EXPOSED))

    def test_reaching_their_receiver_is_unsafe(self):
        # C's receiver is B itself -> C would collide at B.
        tx = Transmission(group_data(0, {1}), 0, 0, 5)
        assert not concurrent_transmission_safe(2, {1}, [tx], R, locate_from(EXPOSED))

    def test_their_sender_reaching_my_receiver_is_unsafe(self):
        # Suppose C wants to reach a node right next to A.
        pos = np.vstack([EXPOSED, [[0.32, 0.5]]])  # node 4 beside A
        tx = Transmission(group_data(0, {1}), 0, 0, 5)
        assert not concurrent_transmission_safe(2, {4}, [tx], R, locate_from(pos))

    def test_non_data_frame_is_unsafe(self):
        rts = Frame(FrameType.RTS, src=0, ra=1)
        tx = Transmission(rts, 0, 0, 1)
        assert not concurrent_transmission_safe(2, {3}, [tx], R, locate_from(EXPOSED))

    def test_unicast_data_is_unsafe(self):
        """Individually-addressed data expects an ACK: never override."""
        data = Frame(FrameType.DATA, src=0, ra=1)
        tx = Transmission(data, 0, 0, 5)
        assert not concurrent_transmission_safe(2, {3}, [tx], R, locate_from(EXPOSED))

    def test_unknown_location_is_unsafe(self):
        tx = Transmission(group_data(0, {1}), 0, 0, 5)
        locate = lambda i: None if i == 1 else locate_from(EXPOSED)(i)
        assert not concurrent_transmission_safe(2, {3}, [tx], R, locate)


class TestLacsMac:
    def _run(self, mac_cls, seed=1):
        net = Network(EXPOSED, R, mac_cls, seed=seed)
        air = air_log(net.env)
        # A streams to B; C streams to D at the same time.
        reqs_a = [net.mac(0).submit(MessageKind.MULTICAST, frozenset({1}), timeout=800)
                  for _ in range(8)]
        reqs_c = [net.mac(2).submit(MessageKind.MULTICAST, frozenset({3}), timeout=800)
                  for _ in range(8)]
        net.run(until=1000)
        return net, air(), reqs_a, reqs_c

    def test_plain_mac_serializes(self):
        """Baseline CSMA: C defers to A's audible data frames."""
        net, air, reqs_a, reqs_c = self._run(PlainMulticastMac)
        overlapping = self._concurrent_data(air)
        assert overlapping == 0

    def test_lacs_transmits_concurrently_and_everyone_receives(self):
        net, air, reqs_a, reqs_c = self._run(LacsMulticastMac)
        assert self._concurrent_data(air) > 0, "expected spatial reuse"
        # Soundness: all messages still delivered to their receivers.
        for req in reqs_a + reqs_c:
            if req.status is MessageStatus.COMPLETED:
                got = net.channel.stats.data_receipts.get(req.msg_id, set())
                assert req.dests <= got

    def test_lacs_counts_overrides(self):
        net, *_ = self._run(LacsMulticastMac)
        assert net.mac(2).contender.overrides > 0

    @staticmethod
    def _concurrent_data(air):
        """Count pairs of overlapping DATA transmissions from A and C."""
        datas = [t for t in air if t.frame.ftype is FrameType.DATA]
        count = 0
        for i, a in enumerate(datas):
            for b in datas[i + 1 :]:
                if a.sender != b.sender and a.overlaps(b):
                    count += 1
        return count

    def test_lacs_on_random_topology_no_worse_than_plain(self):
        """Soundness at scale: enabling the override must not reduce the
        per-hop delivery fraction on random topologies."""
        from repro.workload.generator import TrafficGenerator, TrafficMix
        from repro.metrics.aggregate import summarize_run

        for seed in range(3):
            fractions = {}
            for mac_cls in (PlainMulticastMac, LacsMulticastMac):
                rng = np.random.default_rng(seed)
                pos = rng.random((40, 2))
                net = Network(pos, R, mac_cls, seed=seed)
                gen = TrafficGenerator(
                    40, net.propagation.neighbors, horizon=2000,
                    message_rate=0.004,
                    mix=TrafficMix(unicast=0.0, multicast=0.5, broadcast=0.5),
                    seed=seed,
                )
                reqs = gen.inject(net)
                net.run(until=2000)
                m = summarize_run(reqs, net.channel.stats, threshold=0.9)
                fractions[mac_cls.name] = m.avg_delivered_fraction
            assert fractions["LACS"] >= fractions["802.11"] - 0.03, (
                f"seed {seed}: override hurt delivery {fractions}"
            )


class TestActiveTransmissions:
    def test_only_frames_on_the_air_and_audible_here(self):
        """The override weighs exactly the in-flight frames audible at
        the station: not its own, not a far sender's, not finished ones."""
        far = np.vstack([EXPOSED, [[0.95, 0.5]]])  # E(4): out of C's range
        net = Network(far, R, LacsMulticastMac, seed=1)
        ch, radios = net.channel, net.channel.radios
        seen = {}

        def look(label):
            seen[label] = net.mac(2).contender._active_transmissions()

        def at(t, fn):
            net.env.timeout(t).callbacks.append(lambda _e: fn())

        ch.transmit(radios[0], group_data(0, {1}))  # A: [0, 5], heard by C
        ch.transmit(radios[4], group_data(4, {3}))  # E: [0, 5], not heard by C
        at(1, lambda: ch.transmit(radios[2], group_data(2, {3})))  # C itself: [1, 6]
        at(1, lambda: ch.transmit(radios[3], Frame(FrameType.RTS, src=3, ra=2)))  # D: [1, 2]
        at(1.5, lambda: look("mid"))
        at(5.5, lambda: look("late"))
        net.run(until=10)
        # Four frames: below PRUNE_MIN_LEN, so the air list still holds them all.
        a, e, c, d = ch.air
        assert (a.sender, e.sender, c.sender, d.sender) == (0, 4, 2, 3)
        assert seen["mid"] == [a, d]
        assert seen["late"] == []


#!/usr/bin/env python3
"""Cluster-head schedule dissemination: BMW vs BMMM vs LAMM.

A dense cluster (think sensor cluster or a video-conference cell, one of
the paper's motivating workloads): a head node periodically multicasts a
schedule/keyframe to its 14 members while the members generate their own
unicast chatter.  Every schedule must reach *every* member -- exactly the
reliable-multicast primitive the paper builds.

This is the regime where LAMM shines: the members are packed, so a small
cover set answers for the whole group and LAMM polls far fewer stations
than BMMM, which in turn uses one contention phase where BMW burns one per
member.

Run:  python examples/cluster_schedule_dissemination.py
"""

from statistics import mean

import numpy as np

from repro import BmmmMac, BmwMac, LammMac, MessageKind, Network
from repro.mac.base import MessageStatus
from repro.sim.frames import FrameType

N_MEMBERS = 14
N_SCHEDULES = 20
PERIOD = 200  # slots between schedule multicasts
SEEDS = range(3)


def cluster_positions(seed: int) -> np.ndarray:
    """Head at the centre, members packed within 0.06 of it (radius 0.2)."""
    rng = np.random.default_rng(seed)
    members = 0.5 + 0.06 * (rng.random((N_MEMBERS, 2)) - 0.5)
    return np.vstack([[0.5, 0.5], members])


def run(mac_cls, seed: int):
    net = Network(cluster_positions(seed), 0.2, mac_cls, seed=seed)
    head = net.mac(0)
    members = frozenset(range(1, N_MEMBERS + 1))

    # Member chatter: each member sends a few unicasts to random members.
    rng = np.random.default_rng((seed, 1))
    def chatter():
        for _ in range(60):
            yield net.env.timeout(int(rng.integers(20, 80)))
            src = int(rng.integers(1, N_MEMBERS + 1))
            dst = int(rng.integers(1, N_MEMBERS + 1))
            if src != dst:
                net.mac(src).submit(MessageKind.UNICAST, frozenset({dst}))

    net.env.process(chatter())

    # The head's periodic schedule multicasts.
    reqs = []
    def schedules():
        for _ in range(N_SCHEDULES):
            reqs.append(head.submit(MessageKind.MULTICAST, members, timeout=PERIOD))
            yield net.env.timeout(PERIOD)

    net.env.process(schedules())
    net.run(until=N_SCHEDULES * PERIOD + 500)

    done = [r for r in reqs if r.status is MessageStatus.COMPLETED]
    delivered_all = [
        r for r in reqs if members <= net.channel.stats.data_receipts.get(r.msg_id, set())
    ]
    sent = net.channel.counters
    control = sum(sent.get(t.sent_key) for t in (FrameType.RTS, FrameType.CTS, FrameType.RAK, FrameType.ACK))
    return {
        "completed": len(done) / len(reqs),
        "fully_delivered": len(delivered_all) / len(reqs),
        "mean_time": mean(r.completion_time for r in done) if done else float("nan"),
        "phases": mean(r.contention_phases for r in reqs),
        "control_frames": control,
    }


def main() -> None:
    print(
        f"head multicasting {N_SCHEDULES} schedules to {N_MEMBERS} packed members "
        f"under member chatter ({len(list(SEEDS))} seeds)\n"
    )
    header = f"{'MAC':<8}{'completed':>11}{'delivered':>11}{'mean time':>11}{'phases':>8}{'ctl frames':>12}"
    print(header)
    print("-" * len(header))
    stats = {}
    for mac_cls in (BmwMac, BmmmMac, LammMac):
        rows = [run(mac_cls, s) for s in SEEDS]
        agg = {k: mean(r[k] for r in rows) for k in rows[0]}
        stats[mac_cls.name] = agg
        print(
            f"{mac_cls.name:<8}{agg['completed']:>11.1%}{agg['fully_delivered']:>11.1%}"
            f"{agg['mean_time']:>11.1f}{agg['phases']:>8.2f}{agg['control_frames']:>12.0f}"
        )

    print(
        "\nBMW pays ~one contention phase per member, so most schedules miss"
        "\ntheir deadline (and its frame count is low only because it gives"
        "\nup early); BMMM batches the whole group into one phase; LAMM"
        "\nadditionally polls only a cover set of the packed members, cutting"
        "\ncontrol frames and completion time further (Sections 4-5)."
    )
    assert stats["BMMM"]["phases"] < stats["BMW"]["phases"]
    assert stats["LAMM"]["control_frames"] < stats["BMMM"]["control_frames"]


if __name__ == "__main__":
    main()

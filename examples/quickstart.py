#!/usr/bin/env python3
"""Quickstart: one reliable multicast with BMMM.

Builds a 10-node ad-hoc network, sends a single reliable broadcast from
node 0 with the paper's Batch Mode Multicast MAC, and shows what happened
on the air -- frame by frame.

Run:  python examples/quickstart.py
"""

from repro import BmmmMac, MessageKind, Network, uniform_square
from repro.obs.trace import TraceRecorder, format_timeline, transmissions_from_trace

def main() -> None:
    # 10 nodes uniform in a half-unit square (dense enough that node 0 has
    # neighbors), transmission radius 0.2 -- Table 2's geometry, scaled.
    positions = uniform_square(10, seed=42, side=0.5)
    net = Network(
        positions,
        radius=0.2,
        mac_cls=BmmmMac,
        seed=42,
    )
    # Every frame put on the air is a ``frame_tx`` event: record them.
    recorder = net.env.obs.subscribe(TraceRecorder())

    sender = net.mac(0)
    print(f"node 0 at {positions[0].round(2)} has neighbors {sorted(sender.neighbors)}")

    # One reliable broadcast to every neighbor.
    req = sender.submit(MessageKind.BROADCAST)
    net.run(until=500)

    print(f"\nstatus             : {req.status.value}")
    print(f"contention phases  : {req.contention_phases}")
    print(f"batch rounds       : {req.rounds}")
    print(f"completion time    : {req.completion_time} slots")
    print(f"ACKed receivers    : {sorted(req.acked)}")

    delivered = net.channel.stats.data_receipts.get(req.msg_id, set())
    print(f"ground-truth rx    : {sorted(delivered & req.dests)}")
    assert req.dests <= delivered, "BMMM completed => everyone has the frame"

    print("\non-air timeline (slot: frame):")
    print(format_timeline(transmissions_from_trace(recorder.events)))


if __name__ == "__main__":
    main()

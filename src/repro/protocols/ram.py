"""RAM -- leader-based Rate-Adaptive Multicast (Seok & Turletti style).

Multi-rate extension of the LAMM machinery: the sender still prunes its
working set with cover-set geometry, but each DATA round is transmitted
at the fastest MCS of the :class:`~repro.phy.profile.PhyProfile` rate
table that the *worst* receiver of the round can sustain.

Rate rule
---------
Seok & Turletti's RAM elects the receiver with the worst channel as the
*leader* of the multicast group; the sender's RTS/CTS exchange with that
leader establishes the transmission rate, so every other member (closer,
hence with more SNR headroom) decodes a fortiori.  Here the leader
election is positional: the farthest member of the round's *remaining
working set* -- not merely of the polled cover set -- bounds the rate:

* the polled cover set is a subset of the remaining set, so "the rate
  the worst polled receiver can sustain" holds a fortiori;
* un-polled members must still *decode* the DATA frame for LAMM-style
  coverage inference (Theorem 3) to stay sound -- rating only the polled
  cover would let a far, never-polled member sit forever outside decode
  range of the fast DATA (a livelock until timeout);
* members with unknown locations force the base rate (MCS 0), exactly as
  they force direct polling in LAMM.

The interaction the protocol exists to exhibit: as ACKs and coverage
inference shrink the working set, its diameter shrinks too, so later
retransmission rounds run at *faster* rates -- cover-set pruning and rate
adaptation reinforce each other.

Distances come from *sensed* positions (the same location source LAMM
uses), so a location-error fault can overestimate the sustainable rate;
the channel's rate gate then drops the frame at the victim and the
``ram.coverage_violations`` counter records any unsound inference, just
like LAMM under location error.
"""

from __future__ import annotations

import numpy as np

from repro.core.lamm import LammMac
from repro.mac.registry import register_protocol

__all__ = ["RamMac"]


@register_protocol("RAM", needs_positions=True, rate_adaptive=True)
class RamMac(LammMac):
    """Rate-adaptive multicast: LAMM pruning + worst-receiver rate rule."""

    name = "RAM"
    _counter_prefix = "ram"

    def _choose_mcs(self, known, unknown, positions, radius) -> int:
        phy = self.config.phy
        counters = self.channel.counters
        if unknown or not known:
            # A member we cannot place must be assumed at the cell edge.
            mcs = 0
        else:
            own = self.channel.propagation.positions[self.node_id]
            deltas = positions[sorted(known)] - own
            worst = float(np.max(np.hypot(deltas[:, 0], deltas[:, 1])))
            # Sensed positions can place a member beyond the decode radius
            # (location error); mcs_for_distance returns -1 there and
            # best_mcs clamps it back to the base rate.
            mcs = phy.best_mcs(phy.mcs_for_distance(worst, radius))
        counters.inc(f"ram.rounds_mcs{mcs}", node=self.node_id)
        if self.env.obs.ram_rate:
            self.env.obs.emit(
                "ram_rate",
                node=self.node_id,
                mcs=mcs,
                airtime=phy.data_airtime(mcs),
                members=len(known) + len(unknown),
            )
        return mcs

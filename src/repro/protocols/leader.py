"""LBP -- Leader-Based multicast Protocol (Kuri & Kasera [13]).

Reference [13] of the paper ("Reliable Multicast in Multi-Access Wireless
LANs", ACM/Kluwer Wireless Networks 2001) proposes the leader-based ACK
scheme that later became the basis of IEEE 802.11aa's GCR-BlockAck
ancestor: one receiver is elected *leader* and behaves like a unicast
peer, while the rest stay silent on success and deliberately jam on
failure.

Protocol, as reproduced here:

1. the sender contends, then transmits an RTS addressed to the leader;
2. the leader replies CTS; the other group members stay silent;
3. the sender transmits the group-addressed DATA frame;
4. the leader, if it decoded the data, replies ACK after SIFS; any
   *non-leader* member that CTS-heard the exchange but missed the data
   transmits a NAK in the same slot -- deliberately colliding with the
   leader's ACK so the sender hears garbage and retransmits;
5. no ACK (or a garbled one) sends the sender back to contention.

Reliability sits between BSMA and BMW: failures at the leader or at any
NAK-capable member trigger recovery, but a member that never heard the RTS
cannot NAK, and NAK-vs-ACK collision detection is imperfect under capture
(the sender may capture the leader's ACK and miss the NAK -- faithfully
modelled by the shared capture channel).  The leader is chosen as the
nearest member (best capture odds for its control frames), recomputed per
message.

This protocol is *not* part of the paper's evaluation; it is included as
the obvious contemporary alternative design point for the test/benchmark
suite (the paper lists it as related work).
"""

from __future__ import annotations

from repro.mac.base import MacBase, MacRequest, MessageStatus
from repro.mac.registry import register_protocol
from repro.sim.frames import Frame, FrameType

__all__ = ["LeaderBasedMac"]


@register_protocol("LBP", needs_positions=True)
class LeaderBasedMac(MacBase):
    """Leader-based reliable multicast (Kuri & Kasera [13])."""

    name = "LBP"

    def _elect_leader(self, dests: frozenset[int]) -> int:
        """Nearest member: strongest control frames at the sender."""
        prop = self.channel.propagation
        return min(dests, key=lambda d: (prop.distances[self.node_id, d], d))

    def serve_group(self, req: MacRequest):
        t = self.config.t_signal
        leader = self._elect_leader(req.dests)
        attempt = 0
        while True:
            req.contention_phases += 1
            yield from self.contender.contention_phase(attempt)
            if req.expired(self.env.now):
                return MessageStatus.TIMED_OUT
            if self.radio.is_transmitting:
                continue

            self.nav.sending = True
            try:
                # RTS reserves CTS + DATA + the ACK/NAK slot.  It is
                # addressed to the leader but carries the group so members
                # know to arm their NAK watchdogs.
                rts = self.control(
                    FrameType.RTS,
                    ra=leader,
                    duration=t + self.config.t_data + t,
                    seq=req.seq,
                    msg_id=req.msg_id,
                    group=req.dests,
                )
                yield self.radio.transmit(rts)
                cts = yield self.radio.expect(
                    lambda f: f.ftype is FrameType.CTS
                    and f.src == leader
                    and f.ra == self.node_id,
                    timeout=t,
                )
                if cts is None:
                    attempt += 1
                    continue
                yield self.radio.transmit(self.make_data(req, duration=t))
                req.rounds += 1
                # The ACK/NAK slot: a clean leader ACK means success; a
                # NAK, or silence, or an ACK/NAK collision means retry.
                reply = yield self.radio.expect(
                    lambda f: f.ra == self.node_id
                    and f.seq == req.seq
                    and f.ftype in (FrameType.ACK, FrameType.NAK),
                    timeout=t,
                )
                if reply is not None and reply.ftype is FrameType.ACK:
                    req.acked.add(leader)
                    return MessageStatus.COMPLETED
                attempt += 1
            finally:
                self.nav.sending = False
            if req.expired(self.env.now):
                return MessageStatus.TIMED_OUT

    # -- receiver side -----------------------------------------------------------

    def on_rts(self, rts: Frame) -> None:
        """Leader answers CTS; other members arm the NAK watchdog."""
        if rts.ra == self.node_id:
            if self.nav.blocks_response_to(rts.src):
                return
            cts = self.control(
                FrameType.CTS,
                ra=rts.src,
                duration=max(rts.duration - self.config.t_signal, 0),
                seq=rts.seq,
                msg_id=rts.msg_id,
            )
            self._respond(cts)
            self.env.process(
                self._leader_ack(rts.src, rts.seq, rts.msg_id),
                name=f"lbp-ack-{self.node_id}",
            )
        elif self.node_id in rts.group:
            # Non-leader member: watch for the data; NAK into the ACK slot
            # if it never arrives.
            self.env.process(
                self._nak_watchdog(rts.src, rts.seq, rts.msg_id),
                name=f"lbp-nak-{self.node_id}",
            )

    @property
    def _reply_delay(self) -> int:
        """Slots from hearing the RTS to the ACK/NAK slot: CTS + DATA
        (profile-derived; Table 2: 1 + 5)."""
        return self.config.t_signal + self.config.t_data

    def _leader_ack(self, sender: int, seq: int, msg_id):
        yield self.env.timeout(self._reply_delay)
        if self.data_from.get(sender) != seq:
            return  # data missed: stay silent (members will NAK)
        if self.radio.is_transmitting:
            return
        ack = self.control(FrameType.ACK, ra=sender, duration=0, seq=seq, msg_id=msg_id)
        self.radio.transmit(ack)

    def _nak_watchdog(self, sender: int, seq: int, msg_id):
        yield self.env.timeout(self._reply_delay)
        if self.data_from.get(sender) == seq:
            return  # got the data: stay silent
        if self.radio.is_transmitting:
            return
        nak = self.control(FrameType.NAK, ra=sender, duration=0, seq=seq, msg_id=msg_id)
        self.radio.transmit(nak)

    def on_rak(self, rak: Frame) -> None:  # pragma: no cover - LBP has no RAK
        pass

"""BMW -- Broadcast Medium Window [21] (paper Section 2.2).

BMW treats a broadcast as one reliable DCF-style unicast round per
neighbor.  Per the paper's description the sender keeps NEIGHBOR, SEND
BUFFER and RECEIVE BUFFER lists; for each neighbor in turn it contends,
sends an RTS carrying the upcoming sequence number, and the polled receiver
answers with a CTS that either (a) reports it already holds every frame up
to and including that sequence number -- suppressing the data transmission
-- or (b) asks for the missing frames, which the sender then transmits and
waits for an ACK.  Every station updates its RECEIVE BUFFER from *any*
decoded data frame, so later CTS exchanges are frequently suppressed.

This is the "at least n contention phases per multicast" baseline whose
cost motivates BMMM (Sections 3 and 4, Figure 2).

Simplification (DESIGN.md substitution #5): the simulated workload issues
one data frame per MAC request and the MAC serves requests FIFO, so the
CTS's missing-frame list degenerates to have/need for the current sequence
number; the RECEIVE BUFFER is the ``received_data`` set every MAC keeps.
"""

from __future__ import annotations

from repro.mac.base import MacBase, MacRequest, MessageStatus
from repro.mac.registry import register_protocol
from repro.sim.frames import Frame, FrameType

__all__ = ["BmwMac"]

#: CTS ``info`` values: receiver already holds the frame / still needs it.
HAVE = "have"
NEED = "need"


@register_protocol("BMW", paper_rank=1)
class BmwMac(MacBase):
    """BMW: per-neighbor reliable unicast rounds with overhearing.

    ``overhearing=False`` disables the RECEIVE-BUFFER suppression so every
    receiver is served with its own DATA/ACK exchange -- the worst-case
    timeline Figure 2 of the paper depicts.
    """

    name = "BMW"

    def __init__(self, *args, overhearing: bool = True, **kwargs):
        super().__init__(*args, **kwargs)
        self.overhear_group_data = overhearing

    def serve_group(self, req: MacRequest):
        t = self.config.t_signal
        # Serve the NEIGHBOR list in deterministic (address) order.
        for dest in sorted(req.dests):
            attempt = 0
            served = False
            while not served:
                req.contention_phases += 1
                yield from self.contender.contention_phase(attempt)
                if req.expired(self.env.now):
                    return MessageStatus.TIMED_OUT
                if self.radio.is_transmitting:
                    continue

                self.nav.sending = True
                try:
                    rts = self.control(
                        FrameType.RTS,
                        ra=dest,
                        duration=t + self.config.t_data + t,
                        seq=req.seq,
                        msg_id=req.msg_id,
                    )
                    yield self.radio.transmit(rts)
                    cts = yield self.radio.expect(
                        lambda f: f.ftype is FrameType.CTS
                        and f.src == dest
                        and f.ra == self.node_id,
                        timeout=t,
                    )
                    if cts is None:
                        attempt += 1
                        self._note_retry(req, "no_cts", attempt)
                        continue
                    if cts.info == HAVE:
                        # Receiver already holds the frame (overheard an
                        # earlier round): suppress the data transmission.
                        req.acked.add(dest)
                        served = True
                        continue
                    # Data is addressed to `dest` but carries the intended
                    # group so fellow receivers can overhear and cache it.
                    data = Frame(
                        FrameType.DATA,
                        src=self.node_id,
                        ra=dest,
                        duration=t,
                        seq=req.seq,
                        group=req.dests,
                        msg_id=req.msg_id,
                        airtime_slots=self.config.t_data,
                    )
                    yield self.radio.transmit(data)
                    req.rounds += 1
                    ack = yield self.radio.expect(
                        lambda f: f.ftype is FrameType.ACK
                        and f.src == dest
                        and f.ra == self.node_id,
                        timeout=t,
                    )
                    if ack is not None:
                        req.acked.add(dest)
                        served = True
                    else:
                        attempt += 1
                        self._note_retry(req, "no_ack", attempt)
                finally:
                    self.nav.sending = False
                if not served and req.expired(self.env.now):
                    return MessageStatus.TIMED_OUT
        return MessageStatus.COMPLETED

    # -- receiver side -----------------------------------------------------------

    def on_rts(self, rts: Frame) -> None:
        """Answer with a CTS reporting have/need for the polled sequence
        number (the RECEIVE BUFFER check of [21])."""
        if self.nav.blocks_response_to(rts.src):
            return
        have = (rts.src, rts.seq) in self.received_data
        cts = self.control(
            FrameType.CTS,
            ra=rts.src,
            duration=max(rts.duration - self.config.t_signal, 0),
            seq=rts.seq,
            msg_id=rts.msg_id,
            info=HAVE if have else NEED,
        )
        self._respond(cts)

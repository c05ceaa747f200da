"""BSMA -- Broadcast Support Multiple Access [20] (paper Section 2.2).

Tang-Gerla's broadcast RTS/CTS, augmented with a NAK rule:

1. after transmitting the data frame the sender listens for
   ``WAIT_FOR_NAK``;
2. a receiver that answered the RTS with a CTS but then failed to get the
   data frame within ``WAIT_FOR_DATA`` transmits a NAK;
3. hearing any NAK sends the sender back to contention to retransmit the
   data; hearing none completes the broadcast.

Section 3's critique is faithfully reproduced by construction: CTS frames
from multiple receivers collide (only capture saves one), NAK frames from
multiple receivers collide too, and a broadcast can "complete" while
receivers are still missing the data -- BSMA is not logically reliable.
"""

from __future__ import annotations

from repro.mac.base import MacBase, MacRequest, MessageStatus
from repro.mac.registry import register_protocol
from repro.sim.frames import Frame, FrameType, GROUP_ADDR

__all__ = ["BsmaMac"]


@register_protocol("BSMA", paper_rank=2)
class BsmaMac(MacBase):
    """BSMA: broadcast RTS/CTS plus NAK-based recovery."""

    name = "BSMA"

    @property
    def wait_for_data(self) -> int:
        """Receiver-side wait between its CTS and the expected end of DATA:
        one signal slot for the sender to process the CTS window, plus the
        base-rate DATA airtime (profile-derived; Table 2: 1 + 5)."""
        return self.config.t_signal + self.config.t_data

    def serve_group(self, req: MacRequest):
        t = self.config.t_signal
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
                # RTS reserves CTS + DATA + the NAK window.
                rts = self.control(
                    FrameType.RTS,
                    ra=GROUP_ADDR,
                    duration=t + self.config.t_data + t,
                    seq=req.seq,
                    msg_id=req.msg_id,
                    group=req.dests,
                )
                yield self.radio.transmit(rts)
                cts = yield self.radio.expect(
                    lambda f: f.ftype is FrameType.CTS and f.ra == self.node_id,
                    timeout=t,
                )
                if cts is None:
                    attempt += 1
                    self._note_retry(req, "no_cts", attempt)
                    continue
                yield self.radio.transmit(self.make_data(req, duration=t))
                req.rounds += 1
                nak = yield self.radio.expect(
                    lambda f: f.ftype is FrameType.NAK
                    and f.ra == self.node_id
                    and f.seq == req.seq,
                    timeout=t,
                )
                if nak is None:
                    # No problem reported: the sender declares success --
                    # whether or not everyone actually has the data.
                    return MessageStatus.COMPLETED
                attempt += 1
                self._note_retry(req, "nak", attempt)
            finally:
                self.nav.sending = False
            if req.expired(self.env.now):
                return MessageStatus.TIMED_OUT

    # -- receiver side ---------------------------------------------------------

    def on_rts(self, rts: Frame) -> None:
        """Answer the broadcast RTS with a CTS, then start the NAK watchdog
        (additional rule 2 of [20])."""
        if self.nav.blocks_response_to(rts.src):
            return
        cts = self.control(
            FrameType.CTS,
            ra=rts.src,
            duration=max(rts.duration - self.config.t_signal, 0),
            seq=rts.seq,
            msg_id=rts.msg_id,
        )
        if self._respond(cts):
            self.env.process(
                self._nak_watchdog(rts.src, rts.seq, rts.msg_id),
                name=f"bsma-nak-{self.node_id}",
            )

    def _nak_watchdog(self, sender: int, seq: int, msg_id: int | None):
        """Transmit a NAK if the promised data frame never arrives."""
        yield self.env.timeout(self.wait_for_data)
        if (sender, seq) in self.received_data:
            return
        if self.radio.is_transmitting:
            return
        nak = self.control(FrameType.NAK, ra=sender, duration=0, seq=seq, msg_id=msg_id)
        self.radio.transmit(nak)

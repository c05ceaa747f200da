"""Tang & Gerla's broadcast MAC [19] (paper Section 2.2).

The sender contends, transmits one *group-addressed* RTS, and waits
``WAIT_FOR_CTS``.  Every intended receiver that is not yielding answers
with a CTS after a SIFS -- all in the same slot, so with more than one
receiver the CTS frames collide at the sender and only direct-sequence
capture can save one of them (the reliability flaw Section 3 dissects).
If *any* CTS is heard the sender transmits the data frame and is done;
otherwise it backs off and re-contends.

There is no ACK and no NAK: like plain 802.11, the sender never learns
whether the data arrived ("these protocols do not know whether every
intended receiver has received the data" -- Section 3).
"""

from __future__ import annotations

from repro.mac.base import MacBase, MacRequest, MessageStatus
from repro.mac.registry import register_protocol
from repro.sim.frames import FrameType, GROUP_ADDR

__all__ = ["TangGerlaMac"]


@register_protocol("TangGerla")
class TangGerlaMac(MacBase):
    """MAC-layer broadcast support from [19]: broadcast RTS / colliding CTS."""

    name = "TangGerla"

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
                # The broadcast RTS reserves CTS + DATA.
                rts = self.control(
                    FrameType.RTS,
                    ra=GROUP_ADDR,
                    duration=t + self.config.t_data,
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
                    # All CTS frames collided (or none was sent): back off.
                    attempt += 1
                    continue
                yield self.radio.transmit(self.make_data(req, duration=0))
                req.rounds += 1
                return MessageStatus.COMPLETED
            finally:
                self.nav.sending = False

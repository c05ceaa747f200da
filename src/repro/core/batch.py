"""``Batch_Mode_Procedure`` -- Figure 3 of the paper.

One batch round serves a receiver set ``S`` with a *single* contention
phase:

1. the sender executes the contention phase;
2. for each :math:`p_i \\in S` (in order) it transmits an RTS naming
   :math:`p_i` with Duration
   :math:`(\\|S\\|-i) T_{RTS} + (\\|S\\|-i+1) T_{CTS} + T_{DATA}
   + \\|S\\| (T_{RAK} + T_{ACK})`
   and waits :math:`T_{CTS}` for that receiver's CTS;
3. if at least one CTS arrived, it transmits the DATA frame, then polls
   each :math:`p_i \\in S` with a RAK and waits :math:`T_{ACK}` for the ACK;
4. it reports :math:`S_{ACK}`, the set of receivers whose ACK it heard.

Because the sender's RTS/RAK polls follow each other with gaps strictly
shorter than DIFS, no neighbor can pass its own contention phase while a
batch is in progress -- the medium-occupancy property Section 4 highlights.

The procedure is protocol-agnostic: BMMM calls it with the full intended
receiver set, LAMM with a cover set of it (the DATA frame is always
addressed to the full set so non-polled receivers decode it too).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.mac.base import MacBase, MacRequest
from repro.sim.frames import FrameType

__all__ = ["BatchOutcome", "BatchResult", "batch_mode_procedure", "batch_round_airtime", "rts_duration", "rak_duration"]


class BatchOutcome(Enum):
    """How one batch round ended (drives the sender protocols' loops)."""

    #: DATA was transmitted; ``acked`` holds :math:`S_{ACK}`.
    DATA_SENT = "data_sent"
    #: No CTS was received; the caller must back off and retry.
    NO_CTS = "no_cts"
    #: The request's deadline passed before DATA could be sent.
    EXPIRED = "expired"
    #: The radio was busy with our own SIFS response; retry immediately.
    RADIO_BUSY = "radio_busy"


@dataclass
class BatchResult:
    outcome: BatchOutcome
    acked: frozenset[int] = frozenset()
    #: Receivers whose CTS the sender heard (diagnostics).
    cts_from: frozenset[int] = frozenset()


def rts_duration(n: int, i: int, t_signal: int = 1, t_data: int = 5) -> int:
    """Duration field of the *i*-th RTS (1-based) in a batch of *n*
    receivers -- the exact formula of Figure 3.  The slot timings default
    to Table 2's single-rate values; rate-adaptive callers pass the DATA
    airtime of the MCS actually chosen."""
    if not 1 <= i <= n:
        raise ValueError(f"need 1 <= i <= n, got i={i}, n={n}")
    return (
        (n - i) * t_signal  # remaining RTS frames
        + (n - i + 1) * t_signal  # remaining CTS frames (incl. this one's)
        + t_data
        + n * (t_signal + t_signal)  # RAK + ACK per receiver
    )


def rak_duration(n: int, i: int, t_signal: int = 1) -> int:
    """Duration field of the *i*-th RAK (1-based): the rest of the ACK
    phase."""
    if not 1 <= i <= n:
        raise ValueError(f"need 1 <= i <= n, got i={i}, n={n}")
    return (n - i) * 2 * t_signal + t_signal


def batch_round_airtime(n: int, t_signal: int = 1, t_data: int = 5) -> int:
    """Medium time of one collision-free batch round for *n* receivers,
    excluding contention: n RTS + n CTS + DATA + n RAK + n ACK slots.
    (Figure 2's BMMM timeline.)"""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return 2 * n * t_signal + t_data + 2 * n * t_signal


def batch_mode_procedure(
    mac: MacBase, req: MacRequest, polled: list[int], attempt: int, mcs: int = 0
):
    """Run one batch round (generator; drive with the MAC's environment).

    Parameters
    ----------
    mac:
        The sending node's MAC (provides radio, contender, clock).
    req:
        The request being served; ``req.dests`` is the full intended set
        the DATA frame is addressed to.
    polled:
        The ordered receiver set handed to the RTS/RAK polls -- ``S`` for
        BMMM, the cover set ``S'`` for LAMM.
    attempt:
        Backoff stage for the contention phase.
    mcs:
        MCS index for the DATA frame (RAM's rate adaptation); the RTS
        Durations reserve the chosen rate's DATA airtime.  0 (the base
        rate) reproduces the fixed-rate procedure exactly.

    Returns a :class:`BatchResult` (via the generator's return value).
    """
    if not polled:
        raise ValueError("batch procedure needs at least one receiver")
    env = mac.env
    obs = env.obs
    t = mac.config.t_signal
    t_data = mac.config.phy.data_airtime(mcs)
    n = len(polled)

    req.contention_phases += 1
    yield from mac.contender.contention_phase(attempt)
    if req.expired(env.now):
        return BatchResult(BatchOutcome.EXPIRED)
    if mac.radio.is_transmitting:
        return BatchResult(BatchOutcome.RADIO_BUSY)

    mac.channel.counters.inc("batch_rounds", node=mac.node_id)
    if obs.batch_round_start:
        obs.emit(
            "batch_round_start",
            node=mac.node_id,
            msg_id=req.msg_id,
            polled=list(polled),
            attempt=attempt,
        )

    def _finish(result: BatchResult) -> BatchResult:
        if obs.batch_round_end:
            obs.emit(
                "batch_round_end",
                node=mac.node_id,
                msg_id=req.msg_id,
                outcome=result.outcome.value,
                acked=sorted(result.acked),
                cts_from=sorted(result.cts_from),
            )
        return result

    mac.nav.sending = True
    try:
        # --- RTS/CTS phase -------------------------------------------------
        cts_from: set[int] = set()
        for i, p in enumerate(polled, start=1):
            rts = mac.control(
                FrameType.RTS,
                ra=p,
                duration=rts_duration(n, i, t_signal=t, t_data=t_data),
                seq=req.seq,
                msg_id=req.msg_id,
            )
            yield mac.radio.transmit(rts)
            cts = yield mac.radio.expect(
                lambda f, p=p: f.ftype is FrameType.CTS and f.src == p and f.ra == mac.node_id,
                timeout=t,
            )
            if cts is not None:
                cts_from.add(p)

        if not cts_from:
            return _finish(BatchResult(BatchOutcome.NO_CTS))
        if req.expired(env.now):
            # The deadline passed during the RTS/CTS phase: the upper layer
            # has given up; do not burn medium time on the data frame.
            return _finish(BatchResult(BatchOutcome.EXPIRED, cts_from=frozenset(cts_from)))

        # --- DATA ----------------------------------------------------------
        # The data frame is addressed to the *full* intended set; its
        # Duration covers the whole RAK/ACK phase.
        yield mac.radio.transmit(mac.make_data(req, duration=n * 2 * t, mcs=mcs))
        req.rounds += 1

        # --- RAK/ACK phase ---------------------------------------------------
        mac.channel.counters.inc("rak_polls", node=mac.node_id, n=n)
        acked: set[int] = set()
        for i, p in enumerate(polled, start=1):
            rak = mac.control(
                FrameType.RAK,
                ra=p,
                duration=rak_duration(n, i, t_signal=t),
                seq=req.seq,
                msg_id=req.msg_id,
            )
            yield mac.radio.transmit(rak)
            ack = yield mac.radio.expect(
                lambda f, p=p: f.ftype is FrameType.ACK and f.src == p and f.ra == mac.node_id,
                timeout=t,
            )
            if ack is not None:
                acked.add(p)
        return _finish(BatchResult(BatchOutcome.DATA_SENT, frozenset(acked), frozenset(cts_from)))
    finally:
        mac.nav.sending = False

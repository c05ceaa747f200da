"""Common MAC machinery: requests, queues, receiver dispatch, DCF unicast.

Every protocol in this package (802.11 plain multicast, Tang-Gerla, BSMA,
BMW, LBP, LACS, BMMM, LAMM) is a subclass of :class:`MacBase` overriding
:meth:`MacBase.serve_group` -- the handler for one multicast/broadcast
request -- and a handful of receiver-side hooks.  Unicast traffic (20% of
the paper's simulated mix) is served by the shared IEEE 802.11 DCF engine
(:meth:`MacBase.serve_unicast`: CSMA/CA + RTS/CTS/DATA/ACK with binary
exponential backoff), exactly as the paper assumes: its protocols "co-exist
with the other IEEE 802.11 protocols".

Timing conventions (see ``contention.py`` for the slot model):

* slot timings come from the :class:`~repro.phy.profile.PhyProfile` on
  :class:`MacConfig`; the default profile is Table 2's single-rate world
  (control frames 1 slot, DATA 5 slots);
* SIFS is sub-slot: a response starts on the very slot boundary where the
  eliciting frame's reception completes;
* a station mid-procedure (between its own RTS and the final ACK) does not
  answer other stations' polls -- it is busy with its own exchange -- but
  still records overheard DATA and honours Duration fields for future
  contention.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from enum import Enum

from repro.mac.contention import Contender, ContentionParams
from repro.mac.nav import Nav
from repro.phy.profile import PhyProfile
from repro.sim.channel import Channel
from repro.sim.frames import Frame, FrameType, GROUP_ADDR
from repro.sim.kernel import Environment

__all__ = ["MessageKind", "MessageStatus", "MacRequest", "MacConfig", "MacBase"]


class MessageKind(Enum):
    """Upper-layer request type (Table 2's traffic mix categories)."""

    UNICAST = "unicast"
    MULTICAST = "multicast"
    BROADCAST = "broadcast"


class MessageStatus(Enum):
    """Lifecycle of a MAC request."""

    QUEUED = "queued"
    IN_SERVICE = "in_service"
    #: The protocol finished serving the request before its deadline.
    COMPLETED = "completed"
    #: The deadline passed while queued or mid-service (Table 2 "Time Out").
    TIMED_OUT = "timed_out"
    #: Retry limit exhausted (unicast DCF only; group protocols retry until
    #: the deadline).
    ABANDONED = "abandoned"


_next_msg_id = iter(range(1, 1 << 62)).__next__


@dataclass
class MacRequest:
    """One upper-layer send request handed to a node's MAC.

    The paper assumes "the request indicates the set of neighbors required
    to reach all the members of the intended multicast group" (Section 2);
    ``dests`` is that set.
    """

    src: int
    kind: MessageKind
    dests: frozenset[int]
    arrival: float
    deadline: float
    seq: int
    #: Section 4: "A multicast request can specify if it needs a reliable
    #: service or not from the upper layer to select the appropriate
    #: multicast MAC protocol to use."  Reliable MACs (BMMM/LAMM) serve
    #: ``reliable=False`` group requests with the plain 802.11 procedure.
    reliable: bool = True
    msg_id: int = field(default_factory=_next_msg_id)

    # -- filled in by the MAC while serving --------------------------------
    status: MessageStatus = MessageStatus.QUEUED
    service_start: float | None = None
    finish_time: float | None = None
    #: Contention phases executed on behalf of this message.
    contention_phases: int = 0
    #: Batch rounds (BMMM/LAMM) or per-neighbor rounds (BMW) used.
    rounds: int = 0
    #: Receivers the *protocol* believes were served (ACKed, or inferred by
    #: LAMM's coverage argument).  Ground truth lives in the channel stats.
    acked: set[int] = field(default_factory=set)
    #: Subset of ``acked`` whose reception LAMM *inferred* from coverage
    #: (Theorem 3) rather than observed via an ACK.
    inferred: set[int] = field(default_factory=set)
    #: Receivers the sender dropped after the per-receiver retry cap
    #: (``MacConfig.receiver_give_up``) -- empty with the cap disabled.
    gave_up: set[int] = field(default_factory=set)

    def expired(self, now: float) -> bool:
        return now >= self.deadline

    @property
    def completion_time(self) -> float | None:
        """Slots from arrival to completion (None unless COMPLETED)."""
        if self.status is not MessageStatus.COMPLETED or self.finish_time is None:
            return None
        return self.finish_time - self.arrival


@dataclass(frozen=True)
class MacConfig:
    """Protocol-independent MAC parameters (Table 2 defaults)."""

    contention: ContentionParams = field(default_factory=ContentionParams)
    #: Per-message lifetime in slots (Table 2 "Time Out" = 100).
    timeout_slots: float = 100.0
    #: Retry limit for the unicast DCF engine.
    unicast_retry_limit: int = 7
    #: Per-receiver retry cap for the batch protocols (BMMM/LAMM): after
    #: this many *consecutive* DATA rounds in which a polled receiver
    #: stayed silent, the sender drops it from the batch and counts
    #: ``faults.receiver_give_ups``.  0 = never give up (paper behaviour).
    #: Wired from ``FaultPlan.receiver_give_up`` by the experiment runner.
    receiver_give_up: int = 0
    #: The PHY rate table in force; the default is Table 2's single-rate
    #: world.  Wired from ``SimulationSettings.phy`` by the experiment
    #: runner; :class:`~repro.sim.network.Network` hands the same profile
    #: to the channel so MAC timing and decode rules always agree.
    phy: PhyProfile = field(default_factory=PhyProfile)

    def __post_init__(self) -> None:
        self.check_timeout(self.timeout_slots)

    @staticmethod
    def check_timeout(timeout: float) -> float:
        """Validate a request lifetime in slots and return it.

        A negative lifetime times every request out on arrival, and NaN
        never expires any (``now >= nan`` is False), silently turning off
        Table 2's timeout; both raise ``ValueError``.  ``inf`` is valid.
        """
        if not timeout >= 0:
            raise ValueError(f"timeout must be >= 0 slots (inf allowed), got {timeout!r}")
        return timeout

    @property
    def t_signal(self) -> int:
        """Control-frame airtime in slots (rate adaptation is DATA-only)."""
        return self.phy.signal_slots

    @property
    def t_data(self) -> int:
        """Base-rate DATA airtime in slots; rate-adaptive senders pass an
        explicit MCS to :meth:`PhyProfile.data_airtime` instead."""
        return self.phy.data_slots[0]


class MacBase:
    """Base class wiring one node's MAC to the channel.

    Subclasses implement :meth:`serve_group` (a generator serving one
    multicast/broadcast request) and may override the receiver-side hooks
    :meth:`on_rts`, :meth:`on_rak`, :meth:`on_nak`, :meth:`on_data`.
    """

    #: Human-readable protocol name (subclasses override).
    name = "base"
    #: Whether intended receivers cache DATA frames merely overheard (BMW's
    #: RECEIVE BUFFER behaviour; True for every protocol here, but BMW can
    #: disable it to reproduce Figure 2's no-suppression timeline).
    overhear_group_data = True

    def __init__(
        self,
        env: Environment,
        node_id: int,
        channel: Channel,
        rng: random.Random,
        config: MacConfig | None = None,
    ):
        self.env = env
        self.node_id = node_id
        self.channel = channel
        self.rng = rng
        self.config = config or MacConfig()
        self.radio = channel.attach(node_id)
        self.nav = Nav(env, node_id=node_id)
        self.contender = Contender(env, self.radio, self.nav, rng, self.config.contention)

        self.queue: deque[MacRequest] = deque()
        self._queue_event = env.event()
        self._seq = iter(range(1, 1 << 62)).__next__
        #: (src, seq) pairs of every DATA frame this node has decoded.
        self.received_data: set[tuple[int, int]] = set()
        #: Latest DATA seq decoded per source (drives RAK/NAK responses).
        self.data_from: dict[int, int] = {}
        #: Finished requests, for metrics collection.
        self.completed: list[MacRequest] = []

        # A subclass that reimplements _on_frame sees every frame through
        # it; otherwise the bystander rule is the NAV's own set().
        own_dispatch = type(self)._on_frame is MacBase._on_frame
        self.radio.add_listener(self._on_frame, bystander=self.nav.set if own_dispatch else None)
        self.process = env.process(self._main_loop(), name=f"mac-{node_id}")

    # -- neighbor / topology helpers --------------------------------------------

    @property
    def neighbors(self) -> frozenset[int]:
        return self.channel.neighbors(self.node_id)

    def positions(self):
        """Positions as this MAC *believes* them (see
        :meth:`Channel.sensed_positions`): ground truth unless a
        location-error fault jitters the protocols' map."""
        return self.channel.sensed_positions()

    def radius(self) -> float:
        return self.channel.propagation.radius

    # -- upper-layer interface ----------------------------------------------------

    def submit(
        self,
        kind: MessageKind,
        dests: frozenset[int] | None = None,
        timeout: float | None = None,
        reliable: bool = True,
    ) -> MacRequest:
        """Enqueue a send request.

        For BROADCAST, *dests* defaults to the current neighbor set; for
        MULTICAST it must be a non-empty subset of the neighbors.
        ``reliable=False`` asks for the stock fire-and-forget 802.11
        multicast even on a reliable MAC (Section 4's coexistence).
        """
        if kind is MessageKind.BROADCAST and dests is None:
            dests = self.neighbors
        if dests is None:
            raise ValueError("dests required for unicast/multicast")
        dests = frozenset(dests)
        if kind is MessageKind.UNICAST and len(dests) != 1:
            raise ValueError(f"unicast needs exactly one destination, got {len(dests)}")
        if not dests:
            raise ValueError("empty destination set")
        if not dests <= self.neighbors:
            raise ValueError(f"destinations {dests - self.neighbors} are not neighbors")
        if timeout is None:
            horizon = self.config.timeout_slots
        else:
            horizon = MacConfig.check_timeout(timeout)
        req = MacRequest(
            src=self.node_id,
            kind=kind,
            dests=dests,
            arrival=self.env.now,
            deadline=self.env.now + horizon,
            seq=self._seq(),
            reliable=reliable,
        )
        self.queue.append(req)
        obs = self.env.obs
        if obs.request_submitted:
            obs.emit(
                "request_submitted",
                node=self.node_id,
                msg_id=req.msg_id,
                kind=kind.value,
                n_dests=len(dests),
                deadline=req.deadline,
                reliable=reliable,
            )
        if not self._queue_event.triggered:
            self._queue_event.succeed()
        return req

    # -- main service loop -----------------------------------------------------------

    def _main_loop(self):
        while True:
            while not self.queue:
                yield self._queue_event
                self._queue_event = self.env.event()
            req = self.queue.popleft()
            if req.expired(self.env.now):
                self._finalize(req, MessageStatus.TIMED_OUT)
                continue
            req.status = MessageStatus.IN_SERVICE
            req.service_start = self.env.now
            try:
                if req.kind is MessageKind.UNICAST:
                    status = yield from self.serve_unicast(req)
                elif not req.reliable:
                    # Coexistence (Section 4): the upper layer opted out of
                    # reliability, so use the stock 802.11 multicast even
                    # on a reliable MAC.
                    status = yield from self.serve_group_unreliable(req)
                else:
                    status = yield from self.serve_group(req)
            finally:
                self.nav.sending = False
            self._finalize(req, status)

    def _finalize(self, req: MacRequest, status: MessageStatus) -> None:
        # "times out before completion" (Section 7): a service that drags
        # past the request's deadline does not count as completed, even if
        # the final exchange eventually succeeded -- the upper layer has
        # already given up on it.
        if status is MessageStatus.COMPLETED and self.env.now > req.deadline:
            status = MessageStatus.TIMED_OUT
        req.status = status
        req.finish_time = self.env.now
        self.completed.append(req)
        obs = self.env.obs
        if obs.request_done:
            obs.emit(
                "request_done",
                node=self.node_id,
                msg_id=req.msg_id,
                kind=req.kind.value,
                status=status.value,
                contention_phases=req.contention_phases,
                rounds=req.rounds,
                n_acked=len(req.acked),
                n_inferred=len(req.inferred),
            )

    # -- frame construction helpers -----------------------------------------------------

    def make_data(self, req: MacRequest, duration: int, mcs: int = 0) -> Frame:
        ra = next(iter(req.dests)) if req.kind is MessageKind.UNICAST else GROUP_ADDR
        return Frame(
            FrameType.DATA,
            src=self.node_id,
            ra=ra,
            duration=duration,
            seq=req.seq,
            group=req.dests,
            msg_id=req.msg_id,
            airtime_slots=self.config.phy.data_airtime(mcs),
            mcs=mcs,
        )

    def control(
        self,
        ftype: FrameType,
        ra: int,
        duration: int,
        seq: int | None = None,
        msg_id: int | None = None,
        info=None,
        group: frozenset[int] = frozenset(),
    ) -> Frame:
        return Frame(
            ftype,
            src=self.node_id,
            ra=ra,
            duration=duration,
            seq=seq,
            msg_id=msg_id,
            info=info,
            group=group,
            airtime_slots=self.config.phy.signal_slots,
        )

    def _respond(self, frame: Frame) -> bool:
        """Transmit a SIFS response if physically possible."""
        if self.radio.is_transmitting:
            return False
        self.radio.transmit(frame)
        return True

    def _note_retry(self, req: MacRequest, stage: str, attempt: int) -> None:
        """Count (and, when observed, publish) one sender-side retry.

        *stage* names what failed: ``"no_cts"``, ``"no_ack"``,
        ``"no_progress"`` or a protocol-specific tag like ``"nak"``.
        """
        self.channel.counters.inc("retries", node=self.node_id)
        obs = self.env.obs
        if obs.retry:
            obs.emit(
                "retry",
                node=self.node_id,
                msg_id=req.msg_id,
                stage=stage,
                attempt=attempt,
            )

    def _giveup_candidates(
        self, fails: dict[int, int], polled: list[int], acked: set[int]
    ) -> set[int]:
        """Update per-receiver consecutive-silence counts after one DATA
        round and return the receivers that just hit the give-up cap.

        *fails* is the caller's per-request scoreboard; only DATA rounds
        count (a NO_CTS round says nothing about individual receivers,
        since contention or NAV can silence all of them at once).  An ACK
        resets a receiver's count.  With ``receiver_give_up == 0`` this
        is a no-op returning the empty set.
        """
        cap = self.config.receiver_give_up
        if cap <= 0:
            return set()
        dropped: set[int] = set()
        for p in polled:
            if p in acked:
                fails.pop(p, None)
            else:
                count = fails.get(p, 0) + 1
                fails[p] = count
                if count >= cap:
                    dropped.add(p)
        return dropped

    def _note_give_up(self, req: MacRequest, dropped: set[int]) -> None:
        """Account for receivers abandoned under the retry cap."""
        req.gave_up |= dropped
        self.channel.counters.inc(
            "faults.receiver_give_ups", node=self.node_id, n=len(dropped)
        )
        obs = self.env.obs
        if obs.receiver_give_up:
            obs.emit(
                "receiver_give_up",
                node=self.node_id,
                msg_id=req.msg_id,
                receivers=sorted(dropped),
            )

    # -- receiver side -------------------------------------------------------------------

    def _on_frame(self, frame: Frame, clean: bool) -> None:
        if frame.ftype is FrameType.DATA:
            # A station records a DATA frame when it is the addressee *or*
            # merely an intended receiver overhearing it -- BMW relies on
            # such overhearing to suppress retransmissions (its RECEIVE
            # BUFFER is updated by every decoded data frame).
            if frame.addressed_to(self.node_id) or (
                self.overhear_group_data and self.node_id in frame.group
            ):
                self.received_data.add((frame.src, frame.seq))
                self.data_from[frame.src] = frame.seq
                self.on_data(frame, clean)
            elif frame.duration:
                self.nav.set(frame.duration, frame.exchange_owner)
            return

        # Group-addressed RTS frames (Tang-Gerla / BSMA broadcast RTS) are
        # "intended for" every member of the group.
        if frame.addressed_to(self.node_id):
            if self.nav.sending:
                # Mid-exchange: our own sender procedure owns the radio.
                return
            if frame.ftype is FrameType.RTS:
                self.on_rts(frame)
            elif frame.ftype is FrameType.RAK:
                self.on_rak(frame)
            elif frame.ftype is FrameType.NAK:
                self.on_nak(frame)
            # CTS/ACK addressed to us outside a sender procedure: stale.
            return

        # Figure 3's last receiver rule: a frame not intended for this
        # station makes it yield for the frame's Duration (Nav.set ignores
        # it while this station's own sender procedure owns the radio).
        # The channel calls Nav.set itself for frames naming this station
        # neither in RA nor in the group (see Radio.add_listener).
        if frame.duration:
            self.nav.set(frame.duration, frame.exchange_owner)

    # Receiver hooks ----------------------------------------------------------

    def on_rts(self, rts: Frame) -> None:
        """Default DCF behaviour: answer with CTS unless yielding to a
        different exchange."""
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

    def on_rak(self, rak: Frame) -> None:
        """BMMM/LAMM receiver rule (Figure 3): ACK if we hold the data frame
        this RAK polls for and we are not yielding to a different exchange."""
        if self.nav.blocks_response_to(rak.src):
            return
        if self.data_from.get(rak.src) != rak.seq:
            return
        ack = self.control(
            FrameType.ACK,
            ra=rak.src,
            duration=max(rak.duration - self.config.t_signal, 0),
            seq=rak.seq,
            msg_id=rak.msg_id,
        )
        self._respond(ack)

    def on_nak(self, nak: Frame) -> None:  # pragma: no cover - BSMA only
        pass

    def on_data(self, data: Frame, clean: bool) -> None:
        """Unicast DATA addressed to us: always ACK (CSMA/CA step 5)."""
        if data.ra == self.node_id:
            ack = self.control(FrameType.ACK, ra=data.src, duration=0, seq=data.seq, msg_id=data.msg_id)
            self._respond(ack)

    # -- shared DCF unicast engine -----------------------------------------------------

    def serve_unicast(self, req: MacRequest):
        """IEEE 802.11 DCF unicast: CSMA/CA + RTS/CTS/DATA/ACK with BEB."""
        dest = next(iter(req.dests))
        t = self.config.t_signal
        attempt = 0
        while attempt <= self.config.unicast_retry_limit:
            req.contention_phases += 1
            yield from self.contender.contention_phase(attempt)
            if req.expired(self.env.now):
                return MessageStatus.TIMED_OUT
            if self.radio.is_transmitting:
                continue  # our own SIFS response won the slot; re-contend

            self.nav.sending = True
            try:
                # RTS reserves CTS + DATA + ACK.
                nav_rts = t + self.config.t_data + t
                yield self.radio.transmit(
                    self.control(FrameType.RTS, ra=dest, duration=nav_rts, seq=req.seq, msg_id=req.msg_id)
                )
                cts = yield self.radio.expect(
                    lambda f: f.ftype is FrameType.CTS and f.src == dest and f.ra == self.node_id,
                    timeout=t,
                )
                if cts is None:
                    attempt += 1
                    self._note_retry(req, "no_cts", attempt)
                    continue
                yield self.radio.transmit(self.make_data(req, duration=t))
                ack = yield self.radio.expect(
                    lambda f: f.ftype is FrameType.ACK and f.src == dest and f.ra == self.node_id,
                    timeout=t,
                )
                if ack is not None:
                    req.acked.add(dest)
                    return MessageStatus.COMPLETED
                attempt += 1
                self._note_retry(req, "no_ack", attempt)
            finally:
                self.nav.sending = False
            if req.expired(self.env.now):
                return MessageStatus.TIMED_OUT
        return MessageStatus.ABANDONED

    # -- shared unreliable multicast (stock 802.11 basic access) ---------------------------

    def serve_group_unreliable(self, req: MacRequest):
        """The stock IEEE 802.11 multicast: one contention phase, one
        group-addressed DATA frame, no recovery.  Used for group requests
        with ``reliable=False`` on any MAC, and as
        :class:`~repro.protocols.plain.PlainMulticastMac`'s only service."""
        while True:
            req.contention_phases += 1
            yield from self.contender.contention_phase(0)
            if req.expired(self.env.now):
                return MessageStatus.TIMED_OUT
            if self.radio.is_transmitting:
                continue  # our own SIFS response owns this slot; re-contend
            yield self.radio.transmit(self.make_data(req, duration=0))
            req.rounds += 1
            # Fire-and-forget: the sender has no way to learn the outcome.
            return MessageStatus.COMPLETED

    # -- protocol-specific group service -------------------------------------------------

    def serve_group(self, req: MacRequest):
        """Serve one multicast/broadcast request.  Subclasses override."""
        raise NotImplementedError
        yield  # pragma: no cover - makes this a generator

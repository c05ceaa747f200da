"""The slotted broadcast channel: propagation, collisions, capture.

This is the heart of the simulator substrate.  Semantics (matching the
paper's Section 7 setup):

* Time is slotted; transmissions start at the current time and occupy
  ``frame.airtime`` slots.
* A transmission by ``u`` is audible at every node within the transmission
  radius (unit-disk; interference range = transmission range, the model
  under which Theorems 1/3 hold).
* A receiver decodes a frame iff, over the frame's whole airtime,

  1. the receiver was never itself transmitting (half-duplex), and
  2. either the frame was the *only* audible transmission overlapping it
     ("received without collision" -- the clean flag), or the radio has
     direct-sequence capture, this frame was strictly the strongest among
     all overlapping audible frames, and a Bernoulli draw with probability
     ``C_k`` succeeds (``k`` = number of overlapping frames) -- Section 3's
     discussion of [19]/[20] and reference [23].

* Independently, a clean or captured frame may still be lost with
  probability ``frame_error_rate`` (the "transmission errors" component of
  the analysis parameter ``q`` in Section 6).

Reception outcomes are decided when the frame's airtime ends, at scheduler
priority :data:`PRIORITY_DELIVERY`, so same-slot protocol timeouts observe
them (see ``kernel.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.obs.counters import Counters
from repro.phy.capture import CaptureModel, NoCapture
from repro.phy.profile import PhyProfile
from repro.phy.propagation import UnitDiskPropagation
from repro.sim.frames import Frame, FrameType
from repro.sim.kernel import Environment, Event, PRIORITY_DELIVERY
from repro.sim.radio import Radio

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.faults.inject import FaultInjector
    from repro.geometry.cover import CoverGeometry

__all__ = ["Transmission", "Channel", "ChannelStats", "PRUNE_MIN_LEN", "LOSS_KEYS"]

#: The air list is left unpruned while shorter than this: scanning a
#: handful of provably-stale entries is cheaper than compacting the list
#: on every transmit.
PRUNE_MIN_LEN = 8

#: Reception losses counted per receiver, in its radio's slice of the
#: per-node counters; :meth:`Channel.finalize_counters` sums the totals.
LOSS_KEYS = ("collisions", "captures", "half_duplex_losses", "preamble_misses")


@dataclass(slots=True, eq=False)
class Transmission:
    """One frame in flight.

    Compared by identity: two frames in flight are never the same
    transmission (and reception's membership tests stay C-level).
    """

    frame: Frame
    sender: int
    start: float
    end: float
    #: The stations this frame is audible at: the sender's interference
    #: neighbourhood when it started (the propagation's own frozenset, not
    #: a copy).  Frame ``t`` is audible at radio ``r`` iff ``r`` is in
    #: ``t.hearers``; a radio attached while ``t`` is on the air is
    #: removed from it (see :meth:`Channel.attach`).
    hearers: frozenset[int] = frozenset()
    #: Counter key cached once per transmission instead of being chased
    #: through frame.ftype at every receiver (the reception hot path).
    dkey: str = field(init=False, repr=False)
    #: The frame's exchange owner, passed to every bystander's yield
    #: rule; None when its Duration is zero (such a frame yields nothing).
    owner: int | None = field(init=False, repr=False)

    def __post_init__(self):
        frame = self.frame
        self.dkey = frame.ftype.delivered_key
        self.owner = frame.exchange_owner if frame.duration else None

    def overlaps(self, other: "Transmission") -> bool:
        return self.start < other.end and other.start < self.end


@dataclass
class ChannelStats:
    """Ground-truth DATA receipts for scoring and theorem checks.

    Frame and loss counts live in :attr:`Channel.counters`; the frames
    themselves go out on the event bus as ``frame_tx`` events.
    """

    #: msg_id -> every station that decoded the DATA frame (any retry,
    #: capture included; bystanders overhearing it count too -- intersect
    #: with the request's intended set when scoring).
    data_receipts: dict[int, set[int]] = field(default_factory=dict)
    #: msg_id -> stations that received the DATA frame *without collision*.
    clean_data_receipts: dict[int, set[int]] = field(default_factory=dict)

    def note_delivered(self, frame: Frame, receiver: int, clean: bool) -> None:
        if frame.ftype is FrameType.DATA and frame.msg_id is not None:
            self.data_receipts.setdefault(frame.msg_id, set()).add(receiver)
            if clean:
                self.clean_data_receipts.setdefault(frame.msg_id, set()).add(receiver)


class Channel:
    """Shared wireless medium for a static topology.

    Each frame put on the air is counted once, per node, in
    :attr:`counters` (``frames_sent.<FT>``), and goes out on the event bus
    as a ``frame_tx`` event: the channel keeps no log of past frames.
    :attr:`stats` holds the per-message DATA receipts scoring reads.

    Parameters
    ----------
    env:
        The simulation environment.
    propagation:
        Precomputed unit-disk topology (positions, radius, powers).
    capture:
        DS capture model; default :class:`NoCapture` (a pure collision
        channel).  The paper's simulations enable Zorzi-Rao capture "to
        ensure that BSMA works as designed".
    frame_error_rate:
        iid per-(frame, receiver) loss probability applied on top of
        collision resolution.
    rng:
        Source for capture and frame-error draws (``random.Random``).
    phy:
        The :class:`~repro.phy.profile.PhyProfile` in force.  With a
        multi-rate profile, a frame transmitted at MCS ``m > 0`` is only
        decodable at receivers whose link sustains ``m`` (see
        :meth:`UnitDiskPropagation.link_mcs`); it still interferes at
        every audible receiver.  The default single-rate profile never
        takes the check.
    """

    def __init__(
        self,
        env: Environment,
        propagation: UnitDiskPropagation,
        capture: CaptureModel | None = None,
        frame_error_rate: float = 0.0,
        rng: random.Random | None = None,
        phy: PhyProfile | None = None,
    ):
        if not 0.0 <= frame_error_rate < 1.0:
            raise ValueError(f"frame_error_rate must be in [0, 1), got {frame_error_rate}")
        self.env = env
        self.propagation = propagation
        self.capture = capture if capture is not None else NoCapture()
        self.frame_error_rate = frame_error_rate
        self.phy = phy if phy is not None else PhyProfile()
        self.rng = rng if rng is not None else random.Random(0)
        self.radios: dict[int, Radio] = {}
        self.stats = ChannelStats()
        #: Always-on per-run/per-node counters (see repro.obs.counters);
        #: MAC layers increment this through ``mac.channel.counters``.
        #: Frame keys are pre-seeded to zero so the per-frame hot paths
        #: below can use a plain ``+= 1`` (frame types that never appear
        #: on the air therefore report explicit zeros).
        self.counters = Counters()
        for ft in FrameType:
            self.counters.total[ft.sent_key] = 0
            self.counters.total[ft.delivered_key] = 0
        # The environment's bus never changes; cache it for the hot paths.
        self._obs = env.obs
        #: Optional fault machinery (repro.faults); attached by Network when
        #: the settings carry a plan that needs it.  None keeps the benign
        #: hot paths at one attribute load + branch per frame.
        self.faults: "FaultInjector | None" = None
        #: Each node's fixed location error (location-error fault), added
        #: to the current truth by :meth:`sensed_positions`; None means
        #: perception == truth.
        self.location_offset: "np.ndarray | None" = None
        # The sensed array and the truth array it was built from: rebuilt
        # only when mobility replaces ``propagation.positions``, so LAMM
        # keeps one cover geometry per mobility epoch.
        self._sensed: "np.ndarray | None" = None
        self._sensed_truth: "np.ndarray | None" = None
        #: LAMM's cover angles over the sensed positions array it was
        #: built on (:meth:`repro.core.lamm.LammMac._cover_geometry`),
        #: shared by every node; None until a LAMM sender asks.
        self.cover_geometry: "CoverGeometry | None" = None
        #: The air list: every transmission that may still overlap a frame
        #: in flight, in start order (pruned in :meth:`transmit`).  Each
        #: frame's collisions are decided from it once, in :meth:`_finish`.
        self.air: list[Transmission] = []
        # Airtimes are heterogeneous: multi-rate profiles mix short and
        # long DATA frames freely (and users can define longer types).
        # Track the longest airtime among frames *still in flight* (a
        # multiset keyed by airtime) so the prune horizon tightens again
        # once a long frame lands, instead of ratcheting wider for the
        # rest of the run.  Floor of 1.0 keeps the horizon strictly
        # behind ``now`` even on a silent channel.
        self._max_airtime = 1.0
        self._airtime_counts: dict[float, int] = {}
        # The storm record (see _finish): the instant's (start, end), the
        # power table it was ranked on (replaced when nodes move), the
        # frames on the air overlapping [start, end), and each receiver's
        # verdict inputs, filled on its first frame of the instant.
        self._storm_start: float | None = None
        self._storm_end: float | None = None
        self._storm_rows: "list[list[float]] | None" = None
        self._overlap: list[Transmission] = []
        self._verdicts: dict[int, tuple[bool, int, float, int]] = {}

    # -- attachment -----------------------------------------------------------

    def attach(self, node_id: int) -> Radio:
        """Create (or return) the radio for *node_id*.

        A radio attached while frames are on the air hears none of them
        (it missed their preambles) and is not collided by them: it is
        taken out of their ``hearers``.  That copies the frozenset of each
        such frame, which only this rare path pays.
        """
        if not 0 <= node_id < self.propagation.n_nodes:
            raise ValueError(f"node id {node_id} outside topology")
        if node_id not in self.radios:
            for t in self.air:
                if node_id in t.hearers:
                    t.hearers = t.hearers - {node_id}
            # Hearers changed: no storm record survives.
            self._storm_rows = None
            radio = Radio(self, node_id)
            # The radio's slice of the per-node counters, cached (and its
            # frame keys pre-seeded) so the per-frame hot paths below are
            # two plain dict increments instead of a Counters.inc call
            # (measured on bench_scaling).
            radio._counts = self.counters.per_node.setdefault(node_id, {})
            for ft in FrameType:
                radio._counts.setdefault(ft.sent_key, 0)
                radio._counts.setdefault(ft.delivered_key, 0)
            self.radios[node_id] = radio
        return self.radios[node_id]

    def neighbors(self, node_id: int) -> frozenset[int]:
        return self.propagation.neighbors[node_id]

    def sensed_positions(self) -> "np.ndarray":
        """Positions as protocol/beacon code should see them.

        Equal to the ground-truth ``propagation.positions`` unless a
        location-error fault is active, in which case each node's current
        coordinates carry its fixed Gaussian :attr:`location_offset`.
        Propagation, collisions and delivery always use the truth; only
        *beliefs* (LAMM's cover geometry, beacon payloads) go through
        here.
        """
        truth = self.propagation.positions
        if self.location_offset is None:
            return truth
        if self._sensed_truth is not truth:
            self._sensed = truth + self.location_offset
            self._sensed_truth = truth
        return self._sensed

    def finalize_counters(self) -> Counters:
        """Fold the run-wide frame and loss totals into ``counters.total``.

        The per-frame hot paths only maintain per-node attribution (one
        dict increment each); the ``frames_sent.*`` and
        ``frames_delivered.*`` totals are summed over the nodes, and so
        are the :data:`LOSS_KEYS` (``collisions``, ``captures``,
        ``half_duplex_losses``, ``preamble_misses``), each written only
        when nonzero: a loss
        that never happened leaves its key absent.  Idempotent;
        :class:`~repro.sim.network.Network` calls it after every
        ``run()``, so code reading ``channel.counters`` after a
        simulation sees complete totals.
        """
        total = self.counters.total
        per_node = self.counters.per_node.values()
        for ft in FrameType:
            for key in (ft.sent_key, ft.delivered_key):
                total[key] = sum(counts.get(key, 0) for counts in per_node)
        for key in LOSS_KEYS:
            n = sum(counts.get(key, 0) for counts in per_node)
            if n:
                total[key] = n
        return self.counters

    # -- transmission ----------------------------------------------------------

    def transmit(self, radio: Radio, frame: Frame) -> Event:
        """Start transmitting *frame* from *radio* now."""
        if radio.is_transmitting:
            raise RuntimeError(
                f"node {radio.node_id} attempted to transmit {frame} while already transmitting"
            )
        faults = self.faults
        if faults is not None and radio.node_id in faults.down:
            # Crashed node: its MAC processes keep running, but the radio is
            # dark -- the frame never reaches the air (no ``frames_sent``
            # count, no ``frame_tx`` event, no carrier sense at anyone).
            # The sender still experiences the airtime.
            self.counters.inc("faults.tx_suppressed", node=radio.node_id)
            obs = self._obs
            if obs.fault_tx_suppressed:
                obs.emit(
                    "fault_tx_suppressed",
                    node=radio.node_id,
                    ftype=frame.ftype.value,
                    uid=frame.uid,
                )
            return self.env.timeout(frame.airtime, value=None, priority=PRIORITY_DELIVERY)
        now = self.env.now
        airtime = frame.airtime
        end = now + airtime
        sender = radio.node_id
        tx = Transmission(frame, sender, now, end, self.propagation.interferers[sender])
        counts = self._airtime_counts
        counts[airtime] = counts.get(airtime, 0) + 1
        if airtime > self._max_airtime:
            self._max_airtime = airtime
        # Per-node only; finalize_counters() sums the run-wide totals.
        radio._counts[frame.ftype.sent_key] += 1
        obs = self._obs
        if obs.frame_tx:
            # Keywords go straight into the payload, no dict re-packed
            # through ``**``, except the optional "group" and "mcs" keys,
            # which follow "end" (the trace's byte order).
            group = frame.group
            if group or frame.mcs:
                extra = {"group": sorted(group)} if group else {}
                if frame.mcs:
                    extra["mcs"] = frame.mcs
                obs.emit(
                    "frame_tx", node=sender, ftype=frame.ftype.value, src=frame.src,
                    ra=frame.ra, dur=frame.duration, seq=frame.seq, msg_id=frame.msg_id,
                    uid=frame.uid, end=end, **extra,
                )
            else:
                obs.emit(
                    "frame_tx", node=sender, ftype=frame.ftype.value, src=frame.src,
                    ra=frame.ra, dur=frame.duration, seq=frame.seq, msg_id=frame.msg_id,
                    uid=frame.uid, end=end,
                )

        # A frame finishing at ``T >= now`` started at ``T - airtime >=
        # now - max_airtime``: anything ending by then overlaps nothing in
        # flight.  Not only the head goes: a long frame there can be live
        # while short frames behind it are stale.
        air = self.air
        if len(air) >= PRUNE_MIN_LEN:
            horizon = now - self._max_airtime
            air[:] = [t for t in air if t.end > horizon]
        air.append(tx)
        radio.tx_until = end
        if end > radio.busy_until:
            radio.busy_until = end
            for poke in radio.waiters:
                poke()

        # Carrier sense extends to the interference range; decodability
        # (see _finish) only to the transmission radius.  They coincide
        # in the paper's model.  A contender waiting out an idle run has
        # ``busy_until <= now < end``, so every write it must hear about
        # lands in this branch.
        radios = self.radios
        for nid in self.propagation.interferer_lists[sender]:
            r = radios.get(nid)
            if r is not None and end > r.busy_until:
                r.busy_until = end
                if r.waiters:
                    for poke in r.waiters:
                        poke()

        done = self.env.timeout(airtime, value=tx, priority=PRIORITY_DELIVERY)
        done.callbacks.append(lambda _ev: self._finish(tx))
        return done

    # -- reception -------------------------------------------------------------

    def _finish(self, tx: Transmission) -> None:
        """Decide reception of *tx* at every potential receiver (stations
        within *decode* range; farther stations only suffered
        interference).

        Frames that share *tx*'s ``(start, end)`` are its *storm mates*
        (BSMA's CTS/NAK answers all go out in one slot), and they finish
        at one instant, one after the other.  The frames on the air that
        overlap ``[start, end)`` are listed once per instant, for every
        mate, and each receiver's verdict inputs (half-duplex, ``k``, the
        top received power and how many senders tie at it) are worked
        out from that list once per instant, on its first frame (see
        :meth:`_receive_at`).  This *storm record* holds for the whole
        instant: the overlap list is a snapshot, and no frame that could
        join it appears later in the instant (a frame sent from inside a
        receive loop starts at ``end``).  :meth:`attach` (it edits
        hearers) drops the record, and so does a new power table (nodes
        moved).

        A *rival-free* frame is clean at every live receiver: no other
        frame in the overlap list was sent by, or is audible at, one of
        its receivers; it went out at the base rate (``mcs == 0``, so no
        rate gate); no fault plan is attached (no crashed receiver, no
        burst loss); and every receiver heard its preamble (``receivers
        <= hearers``: no node moved into range and no radio was attached
        since it started).  Such a frame's receivers are served by
        :meth:`_deliver_clean` in one loop; every other frame goes
        through :meth:`_receive_at` per receiver.  Both visit the
        receivers in ``neighbor_lists`` order, so the capture and
        frame-error draws come in the same order either way.
        """
        sender = tx.sender
        propagation = self.propagation
        receivers = propagation.neighbors[sender]
        start = tx.start
        end = tx.end
        rows = propagation.power_rows
        if start != self._storm_start or end != self._storm_end or rows is not self._storm_rows:
            self._storm_start = start
            self._storm_end = end
            self._storm_rows = rows
            self._overlap = [t for t in self.air if t.end > start and t.start < end]
            self._verdicts = {}
        frame = tx.frame
        rival_free = (
            not frame.mcs
            and self.faults is None
            and (receivers is tx.hearers or receivers <= tx.hearers)
        )
        if rival_free:
            for t in self._overlap:
                if t is not tx and (t.sender in receivers or not receivers.isdisjoint(t.hearers)):
                    rival_free = False
                    break
        if rival_free:
            self._deliver_clean(tx)
        else:
            radios = self.radios
            receive_at = self._receive_at
            for nid in propagation.neighbor_lists[sender]:
                radio = radios.get(nid)
                if radio is not None:
                    receive_at(radio, tx)
        # Retire the frame from the in-flight airtime multiset so the
        # prune horizon tightens back once long frames land.  This MUST
        # happen after the receive loop: listeners transmit synchronously
        # (CTS/ACK responses) and those transmits prune the air list --
        # while *tx*'s own receivers are still pending, entries
        # overlapping tx must stay within the horizon, which requires
        # tx's airtime to still be counted.
        counts = self._airtime_counts
        airtime = frame.airtime
        left = counts[airtime] - 1
        if left:
            counts[airtime] = left
        else:
            del counts[airtime]
            if airtime >= self._max_airtime:
                longest = max(counts) if counts else 1.0
                self._max_airtime = longest if longest > 1.0 else 1.0

    def _deliver_clean(self, tx: Transmission) -> None:
        """Serve every live receiver of a rival-free frame (see
        :meth:`_finish`): per receiver, only the frame-error draw, the
        DATA receipt, the delivered count, the ``frame_rx`` event and the
        dispatch.  A DATA frame's receipt sets are looked up once, on its
        first delivery (a frame every receiver loses leaves none)."""
        frame = tx.frame
        sender = tx.sender
        radios = self.radios
        obs = self._obs
        fer = self.frame_error_rate
        draw = self.rng.random
        dkey = tx.dkey
        ra = frame.ra
        group = frame.group
        duration = frame.duration
        owner = tx.owner
        msg_id = frame.msg_id if frame.ftype is FrameType.DATA else None
        receipts = clean_receipts = None
        for rid in self.propagation.neighbor_lists[sender]:
            radio = radios.get(rid)
            if radio is None:
                continue
            if fer > 0.0 and draw() < fer:
                self._frame_error(rid, tx)
                continue
            if msg_id is not None:
                if receipts is None:
                    stats = self.stats
                    receipts = stats.data_receipts.setdefault(msg_id, set())
                    clean_receipts = stats.clean_data_receipts.setdefault(msg_id, set())
                receipts.add(rid)
                clean_receipts.add(rid)
            radio._counts[dkey] += 1
            if obs.frame_rx:
                obs.emit(
                    "frame_rx",
                    node=rid,
                    uid=frame.uid,
                    ftype=frame.ftype.value,
                    src=sender,
                    seq=frame.seq,
                    msg_id=frame.msg_id,
                    clean=True,
                )
            bystander = radio.bystander
            if bystander is not None and ra != rid and rid not in group:
                if owner is not None:
                    bystander(duration, owner)
            else:
                radio._deliver(frame, True)

    def _frame_error(self, rid: int, tx: Transmission) -> None:
        """Account for *tx* lost at *rid* to an i.i.d. frame error."""
        self.counters.inc("frame_errors", node=rid)
        obs = self._obs
        if obs.frame_error:
            obs.emit(
                "frame_error",
                node=rid,
                uid=tx.frame.uid,
                ftype=tx.frame.ftype.value,
                src=tx.sender,
            )

    def _receive_at(self, radio: Radio, tx: Transmission) -> None:
        """Decide *tx* at one receiver, from the instant's storm record
        (see :meth:`_finish`)."""
        obs = self._obs
        faults = self.faults
        rid = radio.node_id
        if faults is not None and rid in faults.down:
            # Crashed receiver: radio is dark, nothing is decoded and no
            # collision/half-duplex accounting applies (the frame's energy
            # still interferes at *live* receivers: it is their rival).
            self.counters.inc("faults.rx_dropped", node=rid)
            if obs.fault_rx_dropped:
                obs.emit(
                    "fault_rx_dropped",
                    node=rid,
                    uid=tx.frame.uid,
                    ftype=tx.frame.ftype.value,
                    src=tx.sender,
                )
            return
        verdict = self._verdicts.get(rid)
        if verdict is None:
            # This receiver's first frame of the instant.  Own
            # transmissions never overlap each other, so "this radio
            # transmitted during the instant's frames" is exactly "one of
            # them was sent by this radio": half-duplex.  Otherwise count
            # the frames audible here (k) and rank their received powers:
            # the top one and how many senders tie at it.
            rows = self._storm_rows
            own = False
            k = ties = 0
            top = -1.0
            for t in self._overlap:
                if t.sender == rid:
                    own = True
                    break
                if rid in t.hearers:
                    k += 1
                    power = rows[t.sender][rid]
                    if power > top:
                        top = power
                        ties = 1
                    elif power == top:
                        ties += 1
            verdict = self._verdicts[rid] = (own, k, top, ties)
        own, k, top, ties = verdict
        counts = radio._counts
        frame = tx.frame
        if own:
            counts["half_duplex_losses"] = counts.get("half_duplex_losses", 0) + 1
            if obs.half_duplex_loss:
                obs.emit(
                    "half_duplex_loss",
                    node=rid,
                    uid=frame.uid,
                    ftype=frame.ftype.value,
                    src=tx.sender,
                )
            return

        # Rate gate: a frame at MCS m > 0 carries more bits per slot than
        # this link's SNR sustains -- the receiver hears energy it cannot
        # demodulate.  Decided from ground-truth positions (link_mcs), like
        # collisions; resolved *before* any RNG draw so the default base
        # rate (mcs == 0, branch never taken) stays bit-identical.  The
        # frame still interferes at this receiver (it is in ``hearers``).
        fmcs = frame.mcs
        if fmcs and self.propagation.link_mcs(self.phy)[tx.sender][rid] < fmcs:
            self.counters.inc("rate_losses", node=rid)
            if obs.rate_loss:
                obs.emit(
                    "rate_loss",
                    node=rid,
                    uid=frame.uid,
                    ftype=frame.ftype.value,
                    src=tx.sender,
                    mcs=fmcs,
                )
            return

        # tx itself is audible here by construction -- unless the node
        # moved into range *after* the transmission started (mobility) or
        # was attached mid-flight: then it never heard the preamble and
        # cannot decode.  Otherwise k counts tx among the audible frames.
        if rid not in tx.hearers:
            counts["preamble_misses"] = counts.get("preamble_misses", 0) + 1
            return

        if k == 1:
            clean = True
        else:
            counts["collisions"] = counts.get("collisions", 0) + 1
            if obs.collision:
                obs.emit(
                    "collision",
                    node=rid,
                    uid=frame.uid,
                    ftype=frame.ftype.value,
                    src=tx.sender,
                    k=k,
                )
            # Capture needs tx strictly the strongest frame here: its
            # received power is the top one and no other sender ties at
            # it (co-located senders tie at infinite power).  The powers
            # come from the precomputed scalar table, bit-identical to
            # calling rx_power per frame.
            if not (
                ties == 1
                and self._storm_rows[tx.sender][rid] == top
                and self.capture.attempt(k, self.rng)
            ):
                return
            counts["captures"] = counts.get("captures", 0) + 1
            if obs.capture:
                obs.emit(
                    "capture",
                    node=rid,
                    uid=frame.uid,
                    ftype=frame.ftype.value,
                    src=tx.sender,
                    k=k,
                )
            clean = False

        if self.frame_error_rate > 0.0 and self.rng.random() < self.frame_error_rate:
            self._frame_error(rid, tx)
            return

        if faults is not None and faults.ge is not None and faults.frame_lost(
            rid, self.env.now
        ):
            # Bursty (Gilbert-Elliott) loss, on top of the i.i.d. channel.
            self.counters.inc("faults.burst_losses", node=rid)
            if obs.fault_burst_loss:
                obs.emit(
                    "fault_burst_loss",
                    node=rid,
                    uid=frame.uid,
                    ftype=frame.ftype.value,
                    src=tx.sender,
                )
            return

        if frame.ftype is FrameType.DATA:
            self.stats.note_delivered(frame, rid, clean)
        # Per-node only; finalize_counters() sums the run-wide totals.
        counts[tx.dkey] += 1
        if obs.frame_rx:
            obs.emit(
                "frame_rx",
                node=rid,
                uid=frame.uid,
                ftype=frame.ftype.value,
                src=tx.sender,
                seq=frame.seq,
                msg_id=frame.msg_id,
                clean=clean,
            )
        # Bystander lane: a frame naming this node neither in RA nor in
        # its group goes straight to the MAC's yield rule when nothing
        # else listens (see Radio.add_listener) -- same outcome as the
        # full dispatch, no RNG draw, one call instead of three.
        bystander = radio.bystander
        if bystander is not None and frame.ra != rid and rid not in frame.group:
            if tx.owner is not None:
                bystander(frame.duration, tx.owner)
        else:
            radio._deliver(frame, clean)

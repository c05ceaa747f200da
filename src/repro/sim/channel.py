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

__all__ = ["Transmission", "Channel", "ChannelStats", "PRUNE_MIN_LEN"]

#: The air list is left unpruned while shorter than this: scanning a
#: handful of provably-stale entries is cheaper than compacting the list
#: on every transmit.
PRUNE_MIN_LEN = 8


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
    #: While :meth:`Channel._finish` runs: the other frames on the air
    #: that overlap this one and were sent by, or audible at, one of its
    #: receivers.  Empty otherwise.
    rivals: "list[Transmission] | tuple[()]" = field(default=(), repr=False)
    #: Counter key cached once per transmission instead of being chased
    #: through frame.ftype at every receiver (the reception hot path).
    dkey: str = field(init=False, repr=False)

    def __post_init__(self):
        self.dkey = self.frame.ftype.delivered_key

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
        """Fold the run-wide frame totals into ``counters.total``.

        The per-frame hot paths only maintain per-node attribution (one
        dict increment each); the ``frames_sent.*`` and
        ``frames_delivered.*`` totals are summed over the nodes.
        Idempotent; :class:`~repro.sim.network.Network` calls it after
        every ``run()``, so code reading ``channel.counters`` after a
        simulation sees complete totals.
        """
        total = self.counters.total
        per_node = self.counters.per_node.values()
        for ft in FrameType:
            for key in (ft.sent_key, ft.delivered_key):
                total[key] = sum(counts.get(key, 0) for counts in per_node)
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
            payload = {
                "ftype": frame.ftype.value,
                "src": frame.src,
                "ra": frame.ra,
                "dur": frame.duration,
                "seq": frame.seq,
                "msg_id": frame.msg_id,
                "uid": frame.uid,
                "end": tx.end,
            }
            if frame.group:
                payload["group"] = sorted(frame.group)
            if frame.mcs:
                payload["mcs"] = frame.mcs
            obs.emit("frame_tx", node=radio.node_id, **payload)

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

        The frame's *rivals* are found once for all its receivers: every
        other frame on the air that overlaps *tx* and was sent by, or is
        audible at, one of them -- exactly the frames any receiver's
        verdict can depend on.  They are fixed before the first receiver
        is served: a frame sent from inside the receive loop starts at
        ``tx.end`` and cannot overlap *tx*.

        A *rival-free* frame is clean at every live receiver when, besides
        having no rivals, it went out at the base rate (``mcs == 0``, so
        no rate gate), no fault plan is attached (no crashed receiver, no
        burst loss) and every receiver heard its preamble (``receivers <=
        hearers``: no node moved into range and no radio was attached
        since it started).  Such a frame's receivers are served here in
        one loop; every other frame goes through :meth:`_receive_at` per
        receiver.  The loop is exact: it visits the receivers in the same
        order, makes the same frame-error draws, and the conditions
        cannot change under it (rivals are fixed before it runs, and
        radios are attached only when a MAC is built, never from inside a
        frame's dispatch).
        """
        sender = tx.sender
        receivers = self.propagation.neighbors[sender]
        start = tx.start
        end = tx.end
        rivals = [
            t
            for t in self.air
            if t.end > start
            and t.start < end
            and t is not tx
            and (t.sender in receivers or not receivers.isdisjoint(t.hearers))
        ]
        frame = tx.frame
        if (
            not rivals
            and not frame.mcs
            and self.faults is None
            and (receivers is tx.hearers or receivers <= tx.hearers)
        ):
            self._deliver_clean(tx)
        else:
            tx.rivals = rivals
            radios = self.radios
            receive_at = self._receive_at
            for nid in self.propagation.neighbor_lists[sender]:
                radio = radios.get(nid)
                if radio is not None:
                    receive_at(radio, tx)
            # Dropped now: a landed frame holding its rivals (which hold
            # theirs) would keep chains of old transmissions reachable.
            tx.rivals = ()
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
        dispatch.  The bystander lane gets the frame's exchange owner,
        computed once here."""
        frame = tx.frame
        sender = tx.sender
        radios = self.radios
        obs = self._obs
        fer = self.frame_error_rate
        draw = self.rng.random
        note_delivered = self.stats.note_delivered
        dkey = tx.dkey
        ra = frame.ra
        group = frame.group
        # None: a zero Duration yields nothing, so the rule is skipped.
        owner = frame.exchange_owner if frame.duration else None
        for rid in self.propagation.neighbor_lists[sender]:
            radio = radios.get(rid)
            if radio is None:
                continue
            if fer > 0.0 and draw() < fer:
                self._frame_error(rid, tx)
                continue
            note_delivered(frame, rid, True)
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
                    bystander(frame, owner)
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
        # The rivals audible here.  Own transmissions never overlap each
        # other, so "this radio transmitted during tx" is exactly "a rival
        # was sent by this radio": half-duplex.
        heard = []
        for t in tx.rivals:
            if t.sender == rid:
                self.counters.inc("half_duplex_losses", node=rid)
                if obs.half_duplex_loss:
                    obs.emit(
                        "half_duplex_loss",
                        node=rid,
                        uid=tx.frame.uid,
                        ftype=tx.frame.ftype.value,
                        src=tx.sender,
                    )
                return
            if rid in t.hearers:
                heard.append(t)

        # Rate gate: a frame at MCS m > 0 carries more bits per slot than
        # this link's SNR sustains -- the receiver hears energy it cannot
        # demodulate.  Decided from ground-truth positions (link_mcs), like
        # collisions; resolved *before* any RNG draw so the default base
        # rate (mcs == 0, branch never taken) stays bit-identical.  The
        # frame still interferes at this receiver (it is in ``hearers``).
        fmcs = tx.frame.mcs
        if fmcs and self.propagation.link_mcs(self.phy)[tx.sender][rid] < fmcs:
            self.counters.inc("rate_losses", node=rid)
            if obs.rate_loss:
                obs.emit(
                    "rate_loss",
                    node=rid,
                    uid=tx.frame.uid,
                    ftype=tx.frame.ftype.value,
                    src=tx.sender,
                    mcs=fmcs,
                )
            return

        # tx itself is audible here by construction -- unless the node
        # moved into range *after* the transmission started (mobility) or
        # was attached mid-flight: then it never heard the preamble and
        # cannot decode.
        if rid not in tx.hearers:
            return
        # k counts tx and every audible rival; capture below asks whether
        # any of them is at least as strong, so their order cannot matter.
        k = len(heard) + 1

        if k == 1:
            clean = True
        else:
            self.counters.inc("collisions", node=rid)
            if obs.collision:
                obs.emit(
                    "collision",
                    node=rid,
                    uid=tx.frame.uid,
                    ftype=tx.frame.ftype.value,
                    src=tx.sender,
                    k=k,
                )
            # Capture ranking by *distance*: ``d**-eta`` is strictly
            # decreasing in ``d``, so "every other frame strictly weaker"
            # is exactly "every other sender strictly farther" -- same
            # verdict as comparing rx_power(), without any pow() calls
            # (co-located senders tie at distance 0 just as they tie at
            # infinite power).
            # Rank via the precomputed scalar power table (bit-identical
            # to calling rx_power per frame, without the per-call
            # attribute/array traffic).
            rows = self.propagation.power_rows
            mine = rows[tx.sender][rid]
            strongest = True
            for t in heard:
                if rows[t.sender][rid] >= mine:
                    strongest = False
                    break
            if not (strongest and self.capture.attempt(k, self.rng)):
                return
            self.counters.inc("captures", node=rid)
            if obs.capture:
                obs.emit(
                    "capture",
                    node=rid,
                    uid=tx.frame.uid,
                    ftype=tx.frame.ftype.value,
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
                    uid=tx.frame.uid,
                    ftype=tx.frame.ftype.value,
                    src=tx.sender,
                )
            return

        self.stats.note_delivered(tx.frame, rid, clean)
        # Per-node only; finalize_counters() sums the run-wide totals.
        radio._counts[tx.dkey] += 1
        if obs.frame_rx:
            obs.emit(
                "frame_rx",
                node=rid,
                uid=tx.frame.uid,
                ftype=tx.frame.ftype.value,
                src=tx.sender,
                seq=tx.frame.seq,
                msg_id=tx.frame.msg_id,
                clean=clean,
            )
        # Bystander lane: a frame naming this node neither in RA nor in
        # its group goes straight to the MAC's yield rule when nothing
        # else listens (see Radio.add_listener) -- same outcome as the
        # full dispatch, no RNG draw, one call instead of three.
        frame = tx.frame
        bystander = radio.bystander
        if bystander is not None and frame.ra != rid and rid not in frame.group:
            if frame.duration:
                bystander(frame, frame.exchange_owner)
        else:
            radio._deliver(frame, clean)

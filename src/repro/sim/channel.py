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

__all__ = ["Transmission", "Channel", "ChannelStats", "PRUNE_MIN_LEN"]

#: Overlap-scan lists shorter than this are left unpruned: scanning a
#: handful of provably-stale entries is cheaper than compacting the list
#: on every transmit (satellite of the event-driven fast-path PR).
PRUNE_MIN_LEN = 8

_INF = float("inf")


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
    #: Counter key cached once per transmission instead of being chased
    #: through frame.ftype at every receiver (the reception hot path).
    dkey: str = field(init=False, repr=False)

    def __post_init__(self):
        self.dkey = self.frame.ftype.delivered_key

    def overlaps(self, other: "Transmission") -> bool:
        return self.start < other.end and other.start < self.end


def _compact(txs: "list[Transmission]", horizon: float) -> float:
    """Single-pass in-place removal of entries ending at or before
    *horizon*; returns the smallest end time left (``inf`` when empty)."""
    write = 0
    new_min = _INF
    for t in txs:
        end = t.end
        if end > horizon:
            txs[write] = t
            write += 1
            if end < new_min:
                new_min = end
    del txs[write:]
    return new_min


@dataclass
class ChannelStats:
    """Ground-truth channel bookkeeping for metrics and theorem checks."""

    frames_sent: dict[FrameType, int] = field(default_factory=dict)
    frames_delivered: dict[FrameType, int] = field(default_factory=dict)
    collisions: int = 0
    captures: int = 0
    frame_errors: int = 0
    half_duplex_losses: int = 0
    #: Frames heard at a receiver whose link does not sustain the frame's
    #: MCS (multi-rate profiles only; always 0 at the base rate).
    rate_losses: int = 0
    #: msg_id -> every station that decoded the DATA frame (any retry,
    #: capture included; bystanders overhearing it count too -- intersect
    #: with the request's intended set when scoring).
    data_receipts: dict[int, set[int]] = field(default_factory=dict)
    #: msg_id -> stations that received the DATA frame *without collision*.
    clean_data_receipts: dict[int, set[int]] = field(default_factory=dict)

    def note_sent(self, frame: Frame) -> None:
        self.frames_sent[frame.ftype] = self.frames_sent.get(frame.ftype, 0) + 1

    def note_delivered(self, frame: Frame, receiver: int, clean: bool) -> None:
        self.frames_delivered[frame.ftype] = self.frames_delivered.get(frame.ftype, 0) + 1
        if frame.ftype is FrameType.DATA and frame.msg_id is not None:
            self.data_receipts.setdefault(frame.msg_id, set()).add(receiver)
            if clean:
                self.clean_data_receipts.setdefault(frame.msg_id, set()).add(receiver)


class Channel:
    """Shared wireless medium for a static topology.

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
        record_transmissions: bool = False,
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
        #: Positions as the protocols *perceive* them (location-error fault);
        #: None means perception == truth.
        self.perceived_positions: "np.ndarray | None" = None
        #: Complete transmission log (for timeline figures); only populated
        #: when *record_transmissions* is set, to keep long runs lean.
        self.record_transmissions = record_transmissions
        self.tx_log: list[Transmission] = []
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
        """Create (or return) the radio for *node_id*."""
        if not 0 <= node_id < self.propagation.n_nodes:
            raise ValueError(f"node id {node_id} outside topology")
        if node_id not in self.radios:
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
        location-error fault is active, in which case each node's
        coordinates carry a fixed Gaussian jitter.  Propagation,
        collisions and delivery always use the truth; only *beliefs*
        (LAMM's cover geometry, beacon payloads) go through here.
        """
        if self.perceived_positions is not None:
            return self.perceived_positions
        return self.propagation.positions

    def finalize_counters(self) -> Counters:
        """Fold the frame totals from ``stats`` into ``counters.total``.

        The per-frame hot paths only maintain per-node attribution (one
        dict increment each); the run-wide ``frames_sent.*`` /
        ``frames_delivered.*`` totals are identical to what ``stats``
        already tracks, so they are copied here instead of being counted
        twice per frame.  Idempotent; :class:`~repro.sim.network.Network`
        calls it after every ``run()``, so code reading
        ``channel.counters`` after a simulation sees complete totals.
        """
        total = self.counters.total
        for ft in FrameType:
            total[ft.sent_key] = self.stats.frames_sent.get(ft, 0)
            total[ft.delivered_key] = self.stats.frames_delivered.get(ft, 0)
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
            # dark -- the frame never reaches the air (no stats, no carrier
            # sense at anyone).  The sender still experiences the airtime.
            self.counters.inc("faults.tx_suppressed", node=radio.node_id)
            obs = self._obs
            if obs.active:
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
        tx = Transmission(frame, radio.node_id, now, end)
        counts = self._airtime_counts
        counts[airtime] = counts.get(airtime, 0) + 1
        if airtime > self._max_airtime:
            self._max_airtime = airtime
        self.stats.note_sent(frame)
        # Per-node attribution only; the run-wide ``frames_sent.*`` totals
        # are derived from ``stats`` in finalize_counters() to keep this
        # per-frame path minimal.
        radio._counts[frame.ftype.sent_key] += 1
        if self.record_transmissions:
            self.tx_log.append(tx)
        obs = self._obs
        if obs.active:
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
            obs.emit("frame_tx", node=radio.node_id, **payload)

        # Overlap-list maintenance.  Each list carries a min-end watermark
        # on its radio, so a prune pass only runs when the list is long
        # enough to matter *and* provably contains at least one stale
        # entry -- otherwise maintenance is append + two compares.
        horizon = now - self._max_airtime
        own = radio.own_tx
        if len(own) >= PRUNE_MIN_LEN and radio.own_min_end <= horizon:
            radio.own_min_end = _compact(own, horizon)
        own.append(tx)
        if end < radio.own_min_end:
            radio.own_min_end = end
        if end > radio.busy_until:
            radio.busy_until = end

        # Audibility (carrier sense + interference) extends to the
        # interference range; decodability (see _finish) only to the
        # transmission radius.  They coincide in the paper's model.
        radios = self.radios
        for nid in self.propagation.interferer_lists[radio.node_id]:
            r = radios.get(nid)
            if r is None:
                continue
            audible = r.audible
            if len(audible) >= PRUNE_MIN_LEN and r.audible_min_end <= horizon:
                r.audible_min_end = _compact(audible, horizon)
            audible.append(tx)
            if end < r.audible_min_end:
                r.audible_min_end = end
            if end > r.busy_until:
                r.busy_until = end

        done = self.env.timeout(airtime, value=tx, priority=PRIORITY_DELIVERY)
        done.callbacks.append(lambda _ev: self._finish(tx))
        return done

    def _prune(self, txs: list[Transmission]) -> None:
        """Drop transmissions too old to overlap any frame still in flight.

        A frame finishing at time ``T >= now`` started at
        ``T - airtime >= now - max_airtime``, so anything ending at or
        before ``now - max_airtime`` is unreachable.

        Entries are ordered by start time, not end time, so a long frame
        at the head can still be live while shorter frames behind it
        (CTS/ACK/RAK sent during its airtime) are already stale; checking
        only the head would keep those stale entries in the overlap-scan
        lists until the head itself expires.

        Single pass (compaction in place), skipped entirely for short
        lists where scanning the stale entries is cheaper than pruning
        them.  The per-transmit call sites in :meth:`transmit` inline
        this with a min-end watermark per radio; this method remains the
        semantic reference (and serves ad-hoc callers/tests).
        """
        if len(txs) < PRUNE_MIN_LEN:
            return
        _compact(txs, self.env.now - self._max_airtime)

    # -- reception -------------------------------------------------------------

    def _finish(self, tx: Transmission) -> None:
        """Decide reception of *tx* at every potential receiver (stations
        within *decode* range; farther stations only suffered
        interference)."""
        radios = self.radios
        receive_at = self._receive_at
        for nid in self.propagation.neighbor_lists[tx.sender]:
            radio = radios.get(nid)
            if radio is not None:
                receive_at(radio, tx)
        # Retire the frame from the in-flight airtime multiset so the
        # prune horizon tightens back once long frames land.  This MUST
        # happen after the receive loop: listeners transmit synchronously
        # (CTS/ACK responses) and those transmits prune the overlap
        # lists -- while *tx*'s own receivers are still pending, entries
        # overlapping tx must stay within the horizon, which requires
        # tx's airtime to still be counted.
        counts = self._airtime_counts
        airtime = tx.frame.airtime
        left = counts[airtime] - 1
        if left:
            counts[airtime] = left
        else:
            del counts[airtime]
            if airtime >= self._max_airtime:
                longest = max(counts) if counts else 1.0
                self._max_airtime = longest if longest > 1.0 else 1.0

    def _receive_at(self, radio: Radio, tx: Transmission) -> None:
        obs = self._obs
        faults = self.faults
        if faults is not None and radio.node_id in faults.down:
            # Crashed receiver: radio is dark, nothing is decoded and no
            # collision/half-duplex accounting applies (the frame's energy
            # still interfered at *live* receivers via the overlap lists).
            self.counters.inc("faults.rx_dropped", node=radio.node_id)
            if obs.active:
                obs.emit(
                    "fault_rx_dropped",
                    node=radio.node_id,
                    uid=tx.frame.uid,
                    ftype=tx.frame.ftype.value,
                    src=tx.sender,
                )
            return
        tx_start = tx.start
        tx_end = tx.end
        # Half-duplex: receiving while transmitting is impossible.
        for own in radio.own_tx:
            if own.start < tx_end and tx_start < own.end:
                self.stats.half_duplex_losses += 1
                self.counters.inc("half_duplex_losses", node=radio.node_id)
                if obs.active:
                    obs.emit(
                        "half_duplex_loss",
                        node=radio.node_id,
                        uid=tx.frame.uid,
                        ftype=tx.frame.ftype.value,
                        src=tx.sender,
                    )
                return

        # Rate gate: a frame at MCS m > 0 carries more bits per slot than
        # this link's SNR sustains -- the receiver hears energy it cannot
        # demodulate.  Decided from ground-truth positions (link_mcs), like
        # collisions; resolved *before* any RNG draw so the default base
        # rate (mcs == 0, branch never taken) stays bit-identical.  The
        # frame still interferes at this receiver via the overlap lists.
        fmcs = tx.frame.mcs
        if fmcs and self.propagation.link_mcs(self.phy)[tx.sender][radio.node_id] < fmcs:
            self.stats.rate_losses += 1
            self.counters.inc("rate_losses", node=radio.node_id)
            if obs.active:
                obs.emit(
                    "rate_loss",
                    node=radio.node_id,
                    uid=tx.frame.uid,
                    ftype=tx.frame.ftype.value,
                    src=tx.sender,
                    mcs=fmcs,
                )
            return

        overlaps = [
            t for t in radio.audible if t.start < tx_end and tx_start < t.end
        ]
        # tx itself is audible at radio by construction -- unless the node
        # moved into range *after* the transmission started (mobility):
        # then it never heard the preamble and cannot decode.
        if tx not in overlaps:
            return
        k = len(overlaps)

        if k == 1:
            clean = True
        else:
            self.stats.collisions += 1
            self.counters.inc("collisions", node=radio.node_id)
            if obs.active:
                obs.emit(
                    "collision",
                    node=radio.node_id,
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
            rid = radio.node_id
            rows = self.propagation.power_rows
            mine = rows[tx.sender][rid]
            strongest = True
            for t in overlaps:
                if t is not tx and rows[t.sender][rid] >= mine:
                    strongest = False
                    break
            if not (strongest and self.capture.attempt(k, self.rng)):
                return
            self.stats.captures += 1
            self.counters.inc("captures", node=radio.node_id)
            if obs.active:
                obs.emit(
                    "capture",
                    node=radio.node_id,
                    uid=tx.frame.uid,
                    ftype=tx.frame.ftype.value,
                    src=tx.sender,
                    k=k,
                )
            clean = False

        if self.frame_error_rate > 0.0 and self.rng.random() < self.frame_error_rate:
            self.stats.frame_errors += 1
            self.counters.inc("frame_errors", node=radio.node_id)
            if obs.active:
                obs.emit(
                    "frame_error",
                    node=radio.node_id,
                    uid=tx.frame.uid,
                    ftype=tx.frame.ftype.value,
                    src=tx.sender,
                )
            return

        if faults is not None and faults.ge is not None and faults.frame_lost(
            radio.node_id, self.env.now
        ):
            # Bursty (Gilbert-Elliott) loss, on top of the i.i.d. channel.
            self.counters.inc("faults.burst_losses", node=radio.node_id)
            if obs.active:
                obs.emit(
                    "fault_burst_loss",
                    node=radio.node_id,
                    uid=tx.frame.uid,
                    ftype=tx.frame.ftype.value,
                    src=tx.sender,
                )
            return

        self.stats.note_delivered(tx.frame, radio.node_id, clean)
        # Totals derived from ``stats`` in finalize_counters(); see transmit().
        radio._counts[tx.dkey] += 1
        if obs.active:
            obs.emit(
                "frame_rx",
                node=radio.node_id,
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
        nid = radio.node_id
        bystander = radio.bystander
        if bystander is not None and frame.ra != nid and nid not in frame.group:
            bystander(frame)
        else:
            radio._deliver(frame, clean)

"""The per-radio overlap-list channel, kept as the reception reference.

Before the channel-wide air list, every radio kept two lists: the
transmissions audible at it (``audible``) and its own (``own_tx``).  Each
transmit appended to the sender's ``own_tx`` and to the ``audible`` list
of every attached interferer, pruning each list on the way, and each
receiver decided its verdict by rescanning its own lists.

:class:`ReferenceChannel` restores exactly that verdict on top of the
real :class:`~repro.sim.channel.Channel`: it inherits transmission,
carrier sense and the in-flight airtime bookkeeping, and replaces
:meth:`_finish` / :meth:`_receive_at` with the overlap-list versions.
It reads neither ``Transmission.hearers`` nor ``Transmission.rivals``,
so it is an independent oracle for the air list's verdict
(``tests/sim/test_air_list.py`` swaps it into
:class:`~repro.sim.network.Network`).
"""

from __future__ import annotations

from repro.sim.channel import PRUNE_MIN_LEN, Channel, Transmission
from repro.sim.frames import Frame
from repro.sim.kernel import Event
from repro.sim.radio import Radio


class ReferenceChannel(Channel):
    """A :class:`Channel` deciding reception from per-radio overlap lists."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: node id -> transmissions audible at that node.
        self.audible: dict[int, list[Transmission]] = {}
        #: node id -> that node's own transmissions.
        self.own_tx: dict[int, list[Transmission]] = {}

    def attach(self, node_id: int) -> Radio:
        radio = super().attach(node_id)
        # A radio attached mid-flight starts with empty lists: it missed
        # every preamble already on the air.
        self.audible.setdefault(node_id, [])
        self.own_tx.setdefault(node_id, [])
        return radio

    def _prune(self, txs: list[Transmission]) -> None:
        """Drop transmissions too old to overlap any frame still in flight.

        A frame finishing at time ``T >= now`` started at
        ``T - airtime >= now - max_airtime``, so anything ending at or
        before ``now - max_airtime`` is unreachable.  Entries are ordered
        by start time, not end time, so a long frame at the head can
        still be live while shorter frames behind it are already stale:
        the whole list is compacted, not just its head.  Lists shorter
        than ``PRUNE_MIN_LEN`` are left alone.
        """
        if len(txs) < PRUNE_MIN_LEN:
            return
        horizon = self.env.now - self._max_airtime
        txs[:] = [t for t in txs if t.end > horizon]

    def transmit(self, radio: Radio, frame: Frame) -> Event:
        done = super().transmit(radio, frame)
        tx = done._value
        if tx is None:
            return done  # a crashed sender's frame never reached the air
        own = self.own_tx[radio.node_id]
        self._prune(own)
        own.append(tx)
        for nid in self.propagation.interferer_lists[radio.node_id]:
            if nid in self.radios:
                audible = self.audible[nid]
                self._prune(audible)
                audible.append(tx)
        return done

    def _finish(self, tx: Transmission) -> None:
        for nid in self.propagation.neighbor_lists[tx.sender]:
            radio = self.radios.get(nid)
            if radio is not None:
                self._receive_at(radio, tx)
        counts = self._airtime_counts
        airtime = tx.frame.airtime
        counts[airtime] -= 1
        if not counts[airtime]:
            del counts[airtime]
            if airtime >= self._max_airtime:
                self._max_airtime = max([1.0, *counts])

    def _receive_at(self, radio: Radio, tx: Transmission) -> None:
        rid = radio.node_id
        frame = tx.frame
        about = dict(uid=frame.uid, ftype=frame.ftype.value, src=tx.sender)
        obs = self._obs
        faults = self.faults
        if faults is not None and rid in faults.down:
            self.counters.inc("faults.rx_dropped", node=rid)
            if obs.active:
                obs.emit("fault_rx_dropped", node=rid, **about)
            return
        if any(tx.overlaps(own) for own in self.own_tx[rid]):
            self.counters.inc("half_duplex_losses", node=rid)
            if obs.active:
                obs.emit("half_duplex_loss", node=rid, **about)
            return
        if frame.mcs and self.propagation.link_mcs(self.phy)[tx.sender][rid] < frame.mcs:
            self.counters.inc("rate_losses", node=rid)
            if obs.active:
                obs.emit("rate_loss", node=rid, **about, mcs=frame.mcs)
            return
        overlaps = [t for t in self.audible[rid] if tx.overlaps(t)]
        if tx not in overlaps:
            return  # moved into range, or attached, after the preamble
        k = len(overlaps)
        clean = k == 1
        if not clean:
            self.counters.inc("collisions", node=rid)
            if obs.active:
                obs.emit("collision", node=rid, **about, k=k)
            power = self.propagation.rx_power
            mine = power(tx.sender, rid)
            strongest = all(power(t.sender, rid) < mine for t in overlaps if t is not tx)
            if not (strongest and self.capture.attempt(k, self.rng)):
                return
            self.counters.inc("captures", node=rid)
            if obs.active:
                obs.emit("capture", node=rid, **about, k=k)
        if self.frame_error_rate > 0.0 and self.rng.random() < self.frame_error_rate:
            self.counters.inc("frame_errors", node=rid)
            if obs.active:
                obs.emit("frame_error", node=rid, **about)
            return
        if faults is not None and faults.ge is not None and faults.frame_lost(rid, self.env.now):
            self.counters.inc("faults.burst_losses", node=rid)
            if obs.active:
                obs.emit("fault_burst_loss", node=rid, **about)
            return
        self.stats.note_delivered(frame, rid, clean)
        radio._counts[tx.dkey] += 1
        if obs.active:
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
        radio._deliver(frame, clean)


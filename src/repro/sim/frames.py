"""IEEE 802.11 frame abstractions, plus the paper's RAK frame.

A design constraint of BMMM/LAMM (Section 4) is that *no 802.11 frame format
is modified*: RTS, CTS, ACK and DATA are the standard frames, and the new
RAK ("Request for ACK") control frame reuses the ACK format (Figure 1:
Frame Control / Duration / RA / FCS).  We therefore model a frame as its
MAC-relevant header fields only:

* ``ftype``      -- frame type (Frame Control);
* ``src``        -- transmitter address (TA; implicit for ACK-format frames,
  but the simulator always knows who transmitted);
* ``ra``         -- receiver address, or :data:`GROUP_ADDR` for
  multicast/broadcast data frames;
* ``duration``   -- the Duration/NAV field in slots: medium time *remaining
  after this frame ends*; third parties that overhear the frame yield for
  this long (the paper's "yield state");
* ``seq``        -- sequence number (BMW's RECEIVE BUFFER tracks these);
* ``group``      -- for DATA frames, the set of intended receivers (in a real
  stack this is resolved from the multicast group via the routing table,
  which the paper assumes every station maintains -- Section 2);
* ``msg_id``     -- simulator-level id linking frames to the originating
  MAC request, used only for metrics/tracing;
* ``info``       -- small protocol-specific payload riding in existing
  fields (e.g. BMW's missing-sequence-number list inside the CTS).

Airtimes come from Table 2: every control frame ("Signal Time") is 1 slot,
DATA is 5 slots *at the base rate*.  Multi-rate PHY profiles
(:class:`repro.phy.profile.PhyProfile`) override the DATA airtime per
frame through ``airtime_slots``; frames built without an override keep the
historical Table 2 values, so legacy construction sites are untouched.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Any

__all__ = [
    "FrameType",
    "Frame",
    "GROUP_ADDR",
]

#: Receiver-address value meaning "multicast/broadcast" (cf. the 802.11
#: group-addressed bit).  Individual node addresses are non-negative ints.
GROUP_ADDR = -1

# The historical single-rate airtimes (Table 2).  These are exactly the
# default PhyProfile's values; simulator code reads them through
# MacConfig.t_signal / t_data (profile lookups).
_SIGNAL_SLOTS = 1
_DATA_SLOTS = 5


class FrameType(Enum):
    """802.11 frame types used by the five protocols, plus RAK."""

    RTS = "RTS"
    CTS = "CTS"
    DATA = "DATA"
    ACK = "ACK"
    NAK = "NAK"  # BSMA [20]
    RAK = "RAK"  # the paper's new control frame (Figure 1)
    #: Management frame announcing presence (and, for LAMM, carrying the
    #: station's GPS coordinates in its frame body -- Section 5: "< 30
    #: bits", well within the beacon body).
    BEACON = "BEACON"

    @property
    def is_control(self) -> bool:
        return self not in (FrameType.DATA, FrameType.BEACON)


# Observability counter keys, precomputed as plain member attributes:
# `frame.ftype.sent_key` is two C-level attribute loads, whereas an
# enum-keyed dict lookup goes through Enum.__hash__ (a Python call) on
# every transmitted/delivered frame -- measurable on the channel hot path.
for _ft in FrameType:
    _ft.sent_key = f"frames_sent.{_ft.value}"
    _ft.delivered_key = f"frames_delivered.{_ft.value}"


_frame_counter = itertools.count()


@dataclass(frozen=True, slots=True, init=False)
class Frame:
    """An immutable over-the-air frame.

    A frame is built as a plain slotted :class:`_FrameDraft` whose fields
    are filled by ordinary slot stores, then turned into a ``Frame`` by
    setting its class: the two classes share one slot layout.  That skips
    the frozen dataclass's ``object.__setattr__`` per field, which made up
    most of a frame's construction cost; once built, a frame is as
    read-only (and its fields as fast to read) as any frozen slotted
    dataclass.
    """

    ftype: FrameType
    src: int
    ra: int
    duration: int = 0
    seq: int | None = None
    group: frozenset[int] = frozenset()
    msg_id: int | None = None
    info: Any = None
    #: Airtime override in slots, set by rate-aware senders from their
    #: :class:`~repro.phy.profile.PhyProfile`; ``None`` falls back to the
    #: Table 2 single-rate airtimes.
    airtime_slots: int | None = None
    #: MCS index this frame was transmitted at (0 = base rate).  The
    #: channel refuses to decode a frame at a receiver whose link does not
    #: sustain its MCS; control frames always go out at the base rate.
    mcs: int = 0
    #: Unique per-frame id (diagnostics; not a protocol field).  Drawn
    #: from a process-wide counter unless given.
    uid: int | None = None

    def __new__(
        cls,
        ftype: FrameType,
        src: int,
        ra: int,
        duration: int = 0,
        seq: int | None = None,
        group: frozenset[int] = frozenset(),
        msg_id: int | None = None,
        info: Any = None,
        airtime_slots: int | None = None,
        mcs: int = 0,
        uid: int | None = None,
    ) -> "Frame":
        # Chained range checks: NaN fails them, and so do +-inf.
        if not 0 <= duration < math.inf:
            raise ValueError(f"duration must be finite and >= 0, got {duration}")
        if ra < GROUP_ADDR:
            raise ValueError(f"invalid receiver address {ra}")
        if airtime_slots is not None and not 1 <= airtime_slots < math.inf:
            raise ValueError(f"airtime_slots must be finite and >= 1, got {airtime_slots}")
        if not 0 <= mcs < math.inf:
            raise ValueError(f"mcs must be a finite index >= 0, got {mcs}")
        self = _new_draft(_FrameDraft)
        self.ftype = ftype
        self.src = src
        self.ra = ra
        self.duration = duration
        self.seq = seq
        self.group = group
        self.msg_id = msg_id
        self.info = info
        self.airtime_slots = airtime_slots
        self.mcs = mcs
        self.uid = next(_frame_counter) if uid is None else uid
        self.__class__ = cls
        return self

    def __reduce__(self):
        # Pickle and copy rebuild through __new__ (its arguments are the
        # fields, in order).
        return (type(self), tuple(getattr(self, name) for name in self.__slots__))

    @property
    def airtime(self) -> int:
        """Transmission time in slots (the sender's PHY profile override,
        defaulting to Table 2's single-rate values)."""
        if self.airtime_slots is not None:
            return self.airtime_slots
        return _DATA_SLOTS if self.ftype is FrameType.DATA else _SIGNAL_SLOTS

    @property
    def exchange_owner(self) -> int:
        """The station that initiated the exchange this frame belongs to:
        the transmitter for RTS/DATA/RAK/NAK, the *addressee* for the
        responses (CTS/ACK).  A bystander's NAV records it as its owner."""
        if self.ftype is FrameType.CTS or self.ftype is FrameType.ACK:
            return self.ra
        return self.src

    @property
    def is_group_addressed(self) -> bool:
        return self.ra == GROUP_ADDR

    def addressed_to(self, node_id: int) -> bool:
        """True when this frame names *node_id* in its RA field, or is
        group-addressed and *node_id* belongs to the group."""
        if self.ra == node_id:
            return True
        return self.is_group_addressed and node_id in self.group

    def __str__(self) -> str:
        ra = "GRP" if self.is_group_addressed else str(self.ra)
        return f"{self.ftype.value}[{self.src}->{ra} dur={self.duration} seq={self.seq}]"


class _FrameDraft:
    """A :class:`Frame` under construction: same slots, plain stores."""

    __slots__ = Frame.__slots__


_new_draft = object.__new__

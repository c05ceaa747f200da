"""Location-aware exposed-terminal relief (the paper's future work).

The conclusion of the paper: "Another problem that is challenging in
wireless medium access control is the exposed terminal problem.  ...  With
the help of location information, we hope to find an efficient multicast
MAC protocol that solves both the hidden and exposed terminal problems."

This module implements the sound core of that idea.  A station deferring
to a transmission it can hear is *exposed* when its own transmission would
not actually harm anyone: every intended receiver of the ongoing
transmission is outside the station's range, and the ongoing sender is
outside the range of every receiver the station wants to reach.

The subtlety -- and the reason the paper calls this challenging -- is
reverse traffic: ignoring an audible transmission is only safe when we do
not need to *receive* anything while it is on the air, because the foreign
signal jams our own radio.  CTS/ACK-based exchanges therefore cannot use
the override.  The one place it is provably sound in-model is ACK-less
group-addressed data (the stock 802.11 multicast): no reply is expected,
so the only constraints are the two geometric ones above.

:class:`ExposedAwareContender` hence treats a busy medium as idle only
when **all** of the following hold for every audible in-flight
transmission:

1. it is a group-addressed DATA frame (fire-and-forget: nobody will reply);
2. every *known* member of its destination group is farther than ``R``
   from us (our transmission cannot collide at any of them; unknown
   locations force deference);
3. its sender is farther than ``R`` from every receiver we intend to reach
   (its signal cannot collide with ours at our receivers).

The NAV is always respected: a Duration reservation means reverse traffic
is coming.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Iterable

from repro.mac.contention import Contender, ContentionParams
from repro.mac.nav import Nav
from repro.sim.frames import FrameType
from repro.sim.kernel import Environment
from repro.sim.radio import Radio

__all__ = ["ExposedAwareContender", "concurrent_transmission_safe"]

#: Signature returning the (x, y) of a node, or None when unknown.
LocationFn = Callable[[int], "tuple[float, float] | None"]


def _dist(a: tuple[float, float], b: tuple[float, float]) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def concurrent_transmission_safe(
    me: int,
    my_receivers: Iterable[int],
    transmissions,
    radius: float,
    locate: LocationFn,
) -> bool:
    """Would transmitting now, concurrently with *transmissions*, be
    provably harmless (conditions 1-3 of the module docstring)?"""
    my_pos = locate(me)
    if my_pos is None:
        return False
    receiver_pos = []
    for r in my_receivers:
        pos = locate(r)
        if pos is None:
            return False  # can't prove our own delivery is safe
        receiver_pos.append(pos)

    for tx in transmissions:
        frame = tx.frame
        # 1. Only fire-and-forget group data can be overridden.
        if frame.ftype is not FrameType.DATA or not frame.is_group_addressed:
            return False
        sender_pos = locate(tx.sender)
        if sender_pos is None:
            return False
        # 2. We must not reach any of its intended receivers.
        for member in frame.group:
            pos = locate(member)
            if pos is None or _dist(my_pos, pos) <= radius:
                return False
        # 3. It must not reach any of our intended receivers.
        for pos in receiver_pos:
            if _dist(sender_pos, pos) <= radius:
                return False
    return True


class ExposedAwareContender(Contender):
    """A contention engine that ignores provably harmless transmissions.

    Call :meth:`set_intent` with the intended receiver set before running
    a contention phase; without an intent the contender behaves exactly
    like the base CSMA/CA machine.

    An override reads a busy medium as idle, and it depends on the air
    list, which also changes when frames *end* -- a change no medium
    writer reports.  So while one is in force (idle with ``busy_until >
    now``) the contention loop steps one sample at a time instead of
    sleeping through the idle run (see :mod:`repro.mac.contention`).
    """

    def __init__(
        self,
        env: Environment,
        radio: Radio,
        nav: Nav,
        rng: random.Random,
        params: ContentionParams | None,
        radius: float,
        locate: LocationFn,
    ):
        super().__init__(env, radio, nav, rng, params)
        self.radius = radius
        self.locate = locate
        self._intent: frozenset[int] | None = None
        #: Busy slots treated as idle thanks to the override (diagnostics).
        self.overrides = 0

    def set_intent(self, receivers: Iterable[int] | None) -> None:
        self._intent = None if receivers is None else frozenset(receivers)

    def _active_transmissions(self):
        now = self.env.now
        me = self.radio.node_id
        return [
            t for t in self.radio.channel.air if t.start <= now < t.end and me in t.hearers
        ]

    def _slot_was_busy(self) -> bool:
        if self.nav.until > self.env.now:
            return True  # a Duration reservation implies reverse traffic
        if self.radio.busy_until <= self.env.now:
            return False
        if self._intent is None:
            return True
        active = self._active_transmissions()
        if not active:
            # Busy because of our own just-finished frame edge cases;
            # treat as busy conservatively.
            return True
        if any(t.sender == self.radio.node_id for t in active):
            return True  # we are transmitting
        if concurrent_transmission_safe(
            self.radio.node_id, self._intent, active, self.radius, self.locate
        ):
            self.overrides += 1
            return False
        return True

"""Network Allocation Vector -- virtual carrier sense.

The paper calls a station with a set NAV "in the yield state": it must
neither contend for the medium nor answer RTS/RAK polls (Figure 3,
receiver's protocol: "if a node q receives a control frame not intended for
it, q yields for Duration time specified in the control frame").

Our Duration fields count slots of medium time remaining *after* the frame
carrying them ends, so a receiver hearing a foreign control frame at time
``t`` (reception completes at ``t``) yields until ``t + duration``.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.sim.kernel import Environment

__all__ = ["Nav"]


class Nav:
    """Per-node virtual carrier sense timer.

    The NAV remembers which exchange set it (*owner* = the MAC address of
    the station that initiated the reservation).  This matters for batch
    protocols: a BMMM receiver p1 overhears the sender's RTS polls to its
    fellow receivers p2..pn and yields for their Duration -- but it must
    still answer the sender's *own* later RTS/RAK polls.  The paper's
    receiver rule ("sends CTS ... if it is not in yield state") therefore
    reads as "not yielding *to a different exchange*", which is what
    :meth:`blocks_response_to` implements.
    """

    def __init__(self, env: Environment, node_id: int | None = None):
        self.env = env
        self.node_id = node_id
        self.until: float = env.now
        self.owner: int | None = None
        #: True between the first frame of an exchange this station
        #: initiates and its end: its own sender procedure owns the radio,
        #: so it neither yields to overheard reservations (:meth:`set`)
        #: nor answers other stations' polls.
        self.sending = False
        #: Callables :meth:`set` calls, with no arguments, after moving
        #: :attr:`until`: the pokes of contenders in a contention phase.
        #: :meth:`clear` calls none: it moves :attr:`until` only to now,
        #: which no later carrier-sense sample reads as busy.
        self.waiters: list[Callable[[], None]] = []
        # The environment's bus never changes; cache it off the hot path.
        self._obs = env.obs

    @property
    def active(self) -> bool:
        """True while the node is in the yield state."""
        return self.until > self.env.now

    def set(self, duration: float, owner: int | None = None) -> None:
        """Yield for *duration* slots from now (never shortens the NAV),
        unless :attr:`sending`.

        A reservation reaching at least as far as the current one takes
        over its owner; an expired NAV (``until <= now``) is always taken
        over, since ``duration >= 0``.  Every call that is not ignored
        publishes ``nav_set``, also when the NAV does not move.  This is
        the MAC's bystander rule: the channel calls it once per overheard
        frame (see :meth:`Radio.add_listener
        <repro.sim.radio.Radio.add_listener>`), so it reads the clock's
        slot directly instead of through the ``now`` property.
        """
        if not 0 <= duration < math.inf:
            raise ValueError(f"NAV duration must be finite and >= 0, got {duration}")
        if self.sending:
            return
        expiry = self.env._now + duration
        if expiry >= self.until:
            self.owner = owner
            self.until = expiry
            for poke in self.waiters:
                poke()
        obs = self._obs
        if obs.nav_set:
            obs.emit(
                "nav_set",
                node=self.node_id,
                until=self.until,
                duration=duration,
                owner=self.owner,
            )

    def blocks_response_to(self, initiator: int) -> bool:
        """Should a poll (RTS/RAK) from *initiator* go unanswered?"""
        return self.active and self.owner != initiator

    def clear(self) -> None:
        """Drop the NAV (used when a station learns the medium freed early)."""
        self.until = self.env.now
        self.owner = None

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = f"yielding until {self.until}" if self.active else "clear"
        return f"<Nav {state}>"

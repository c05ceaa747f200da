"""Per-node radio interface.

A :class:`Radio` is the MAC layer's window onto the shared channel:

* **physical carrier sense** -- :attr:`busy_until` / :meth:`is_busy` reflect
  every transmission currently audible at this node, *including the node's
  own* (a transmitting station trivially senses a busy medium);
* **reception** -- frames the channel decides this node received are pushed
  to registered listeners, synchronously at the slot the frame ends; a
  listener may declare a *bystander rule* (see :meth:`Radio.add_listener`)
  that the channel calls directly for frames not intended for this node;
* **transmission** -- :meth:`Radio.transmit` hands a frame to the channel
  and returns an event that fires when the airtime has elapsed.

Half-duplex behaviour (a station cannot receive while transmitting) and all
collision/capture decisions live in :class:`repro.sim.channel.Channel`,
which decides them from its one channel-wide list of frames on the air;
the radio only keeps two time stamps (:attr:`Radio.busy_until`,
:attr:`Radio.tx_until`) and its listeners.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.sim.frames import Frame
from repro.sim.kernel import Environment, Event, PRIORITY_DELIVERY

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.channel import Channel

__all__ = ["Radio"]

#: Listener signature: ``(frame, clean)`` where *clean* is the ground-truth
#: "received without collision" flag of Theorems 1/3.
FrameListener = Callable[[Frame, bool], None]

#: Bystander rule signature: ``(duration, owner)`` for a received frame
#: with a positive Duration that names this node neither in its RA field
#: nor in its group; *owner* is the frame's ``exchange_owner``.
BystanderRule = Callable[[int, int], None]


class Radio:
    """The attachment point between one node's MAC and the channel."""

    def __init__(self, channel: "Channel", node_id: int):
        self.channel = channel
        self.env: Environment = channel.env
        self.node_id = node_id
        #: End time of the latest-ending audible or own transmission.
        self.busy_until: float = channel.env.now
        #: End time of this node's latest own transmission.
        self.tx_until: float = channel.env.now
        #: Callables the channel calls, with no arguments, after raising
        #: :attr:`busy_until`: the pokes of contenders in a contention
        #: phase on this radio (a MAC and its beacon service may both be).
        self.waiters: list[Callable[[], None]] = []
        self._listeners: list[FrameListener] = []
        #: The listener that declared a bystander rule, with that rule.
        self._owner: tuple[FrameListener, BystanderRule] | None = None
        #: The owner's bystander rule while the owner's listener is the
        #: only one registered, else None.  The channel reads it per frame.
        self.bystander: BystanderRule | None = None

    # -- carrier sense -------------------------------------------------------

    @property
    def is_busy(self) -> bool:
        """Physical carrier sense: is any transmission audible right now?"""
        return self.busy_until > self.env.now

    @property
    def is_transmitting(self) -> bool:
        """Is this node's own frame on the air right now?"""
        return self.tx_until > self.env.now

    # -- reception -----------------------------------------------------------

    def add_listener(
        self, listener: FrameListener, bystander: BystanderRule | None = None
    ) -> None:
        """Register *listener* for every frame this node receives.

        *bystander* declares that, for a frame naming this node neither in
        its RA field nor in its group, *listener* does exactly
        ``bystander(frame.duration, frame.exchange_owner)`` when the
        frame's Duration is positive, and nothing when it is zero.  While
        *listener* is the only listener, the channel then handles such
        frames itself, skipping :meth:`_deliver`: it calls the rule, with
        the owner computed once per frame, and skips zero-Duration frames.
        Any other listener (a pending :meth:`expect`, beacons) restores
        full delivery of every frame.
        """
        self._listeners.append(listener)
        if bystander is not None:
            self._owner = (listener, bystander)
        self._update_bystander()

    def remove_listener(self, listener: FrameListener) -> None:
        self._listeners.remove(listener)
        self._update_bystander()

    def _update_bystander(self) -> None:
        owner = self._owner
        self.bystander = (
            owner[1] if owner is not None and self._listeners == [owner[0]] else None
        )

    def _deliver(self, frame: Frame, clean: bool) -> None:
        """Called by the channel when this node successfully receives."""
        for listener in list(self._listeners):
            listener(frame, clean)

    # -- transmission ----------------------------------------------------------

    def transmit(self, frame: Frame) -> Event:
        """Put *frame* on the air now; returns an event firing at end of
        airtime.  Raises if this radio is already mid-transmission."""
        return self.channel.transmit(self, frame)

    # -- conveniences for MAC code --------------------------------------------

    def expect(
        self,
        predicate: Callable[[Frame], bool],
        timeout: float,
    ) -> Event:
        """Event that fires with the first received frame satisfying
        *predicate* within *timeout* slots, or ``None`` on timeout.

        This implements the paper's "waits CTS from :math:`p_i` for
        :math:`T_{CTS}`" pattern.  Because frame deliveries are scheduled at
        :data:`PRIORITY_DELIVERY` and timeouts at normal priority, a frame
        whose reception completes exactly at the deadline still wins.
        """
        env = self.env
        result = env.event()
        timer = env.timeout(timeout)

        def on_frame(frame: Frame, clean: bool) -> None:
            if not result.triggered and predicate(frame):
                self.remove_listener(on_frame)
                result.succeed(frame, priority=PRIORITY_DELIVERY)

        def on_timer(_ev: Event) -> None:
            if not result.triggered:
                self.remove_listener(on_frame)
                result.succeed(None)

        self.add_listener(on_frame)
        timer.callbacks.append(on_timer)
        return result

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<Radio node={self.node_id} busy_until={self.busy_until}>"

"""The CSMA/CA contention phase (paper Section 2.1).

Protocol steps 1-3 of the paper's CSMA/CA description: listen; if busy,
wait for idle; back off a random number of slots drawn from the contention
window, freezing the countdown whenever the medium goes busy; transmit when
the counter reaches zero.  One execution of :meth:`Contender.contention_phase`
is exactly one "contention phase" -- the efficiency metric of Table 1 and
Figures 5/9.

Timing model
------------
Transmissions start and end on integer slot boundaries ("the time is slotted
so that the event happens at the beginning of a slot", Section 7).  Carrier
sensing, however, is performed *mid-slot* (at ``t + 0.5``): a station
deciding whether slot ``t`` was idle must not see transmissions that begin
in the very same slot it would transmit in, otherwise two stations whose
backoff expires simultaneously would never collide -- and colliding RTS
frames are one of the five loss mechanisms the paper analyses in Section 6.
When the countdown hits zero the station transmits at the *next* slot
boundary.

The medium is considered busy when either physical carrier sense
(:attr:`Radio.busy_until`) or the NAV (yield state) says so.

Idle-slot skipping (the event-driven fast path)
-----------------------------------------------
A naive slotted implementation wakes every contending station once per
idle slot, so wall-clock scales with *simulated slots*; the fast path
makes it scale with *medium changes* instead.  A sample reads only
``max(radio.busy_until, nav.until)``, and two places can make a later
sample read it busy: :meth:`Channel.transmit` (for the sender and every
interferer whose ``busy_until`` goes up) and :meth:`Nav.set`
(:meth:`Nav.clear` moves ``nav.until`` only to now).  Each calls the
*waiters* of the radio or NAV it changed, and every in-phase contender
is a waiter on its own radio and NAV.

So on an idle sample the contender makes one ranked wait
(:meth:`Environment.timeout` with its ``rank``) to its final
pre-transmit sample, ``now + needed`` (the rest of the DIFS run plus the
whole remaining backoff).  Until a writer calls it, every elided sample
would read the same idle medium.  When one does, :meth:`Contender._poke`
pulls the pending wake to the first sample point at or after the write
(:meth:`Environment.expedite_sample`).  On waking, the contender counts
the samples it slept through toward DIFS and backoff and evaluates the
landing sample for real.  Busy samples skip straight to the next sample
point after the known-busy span, exactly as the reference machine does;
the final pre-transmit wait is an ordinary (rank-0) timeout because it
*is* the commit.  The ordering-safety argument is written out in
docs/simulator.md, "Idle-slot skipping".

The RNG discipline is untouched (one backoff draw per phase; in
``resume_backoff=False`` mode one redraw per busy sample, exactly as
before), and busy samples still go through
:meth:`Contender._next_sample_point`, so transmit times, backoff
residues and draw order are bit-identical to the reference per-slot
machine.  This is pinned by Hypothesis side-by-side properties -- solo,
N contenders on one medium, and a MAC plus a beacon contender on one
radio and NAV (``tests/mac/test_contention_fastpath.py``) -- and by the
repo-wide ``repro-mac gate`` regression baselines.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from repro.mac.nav import Nav
from repro.obs.codec import normalise_fields
from repro.sim.kernel import Environment
from repro.sim.radio import Radio

__all__ = ["ContentionParams", "Contender"]

#: Sample ranks in creation order: same-instant samples of different
#: contenders, and the commits they schedule, run in this order.
_ranks = itertools.count(1)


@dataclass(frozen=True)
class ContentionParams:
    """Tunables of the contention machine.

    The paper does not publish its backoff constants; these defaults are
    recorded as substitution #5 in DESIGN.md and swept by the
    ``bench_ablation_cw`` benchmark.

    Attributes
    ----------
    difs_slots:
        Consecutive idle slots required before backoff starts.  Must be at
        least 2 so that a BMMM sender's 1-slot gaps between consecutive
        control frames keep neighbors from acquiring the medium (Section 4).
    cw_min / cw_max:
        Initial and maximum contention window (backoff drawn uniformly from
        ``[0, cw)``).
    resume_backoff:
        True (802.11 style): a frozen countdown resumes where it stopped.
        False: redraw after every freeze.
    """

    difs_slots: int = 2
    cw_min: int = 16
    cw_max: int = 256
    resume_backoff: bool = True

    def __post_init__(self):
        normalise_fields(self)
        if self.difs_slots < 1:
            raise ValueError(f"difs_slots must be >= 1, got {self.difs_slots}")
        if not 1 <= self.cw_min <= self.cw_max:
            raise ValueError(f"need 1 <= cw_min <= cw_max, got {self.cw_min}, {self.cw_max}")

    def window(self, attempt: int) -> int:
        """Contention window for the *attempt*-th (re)try, with binary
        exponential backoff capped at ``cw_max``."""
        if attempt < 0:
            raise ValueError(f"negative attempt {attempt}")
        return min(self.cw_min << attempt, self.cw_max)


class Contender:
    """Contention-phase engine bound to one node's radio, NAV and RNG."""

    def __init__(
        self,
        env: Environment,
        radio: Radio,
        nav: Nav,
        rng: random.Random,
        params: ContentionParams | None = None,
    ):
        self.env = env
        self.radio = radio
        self.nav = nav
        self.rng = rng
        self.params = params or ContentionParams()
        #: Orders this contender's sample wake-ups among same-instant peers.
        self._rank = next(_ranks)
        #: The pending wait of an idle run (None outside one), the sample
        #: that began the run and the instant the wait is due.
        self._wake = None
        self._begin = 0.0
        self._wake_at = 0.0

    # -- helpers ---------------------------------------------------------------

    def _virtual_busy_until(self) -> float:
        return max(self.radio.busy_until, self.nav.until)

    def _slot_was_busy(self) -> bool:
        """Sampled mid-slot: is the current slot occupied?"""
        return self._virtual_busy_until() > self.env.now

    def _poke(self) -> None:
        """A writer changed this contender's radio or NAV: pull a pending
        idle-run wake to the first sample point of the run at or after
        now, where the change is first seen."""
        wake = self._wake
        if wake is None:
            return
        now = self.env.now
        begin = self._begin
        at = begin + max(1, math.ceil(now - begin))
        if at < self._wake_at:
            self.env.expedite_sample(wake, at - now)
            self._wake_at = at

    def _next_sample_point(self) -> float:
        """Delay from now to the next mid-slot sampling instant, skipping
        ahead over known-busy time instead of polling every slot."""
        now = self.env.now
        vb = self._virtual_busy_until()
        target = max(now + 1.0, math.floor(vb) + 0.5)
        return target - now

    # -- the contention phase ----------------------------------------------------

    def contention_phase(self, attempt: int = 0):
        """Generator: one CSMA/CA contention phase.

        Yields kernel events; returns (at an integer slot boundary) when the
        station has won access and must transmit immediately.  *attempt*
        selects the BEB window for retransmissions (CSMA/CA step 4).
        """
        env = self.env
        params = self.params
        difs_slots = params.difs_slots
        node = self.radio.node_id
        self.radio.channel.counters.inc("contention_phases", node=node)
        obs = env.obs
        started = env.now
        # Hot-loop bindings: the attempt's BEB window is loop-invariant
        # (attempt never changes within one phase), and attribute lookups
        # on self/env are hoisted out of the per-sample path.
        window = params.window(attempt)
        randrange = self.rng.randrange
        slot_was_busy = self._slot_was_busy
        timeout = env.timeout
        rank = self._rank
        radio = self.radio
        resume_backoff = params.resume_backoff

        # Align to the next mid-slot sampling point.
        frac = env.now - math.floor(env.now)
        yield timeout((0.5 - frac) % 1.0)

        backoff = randrange(window)
        if obs.backoff:
            obs.emit(
                "backoff",
                node=node,
                attempt=attempt,
                window=window,
                backoff=backoff,
            )
        # The DIFS run, the backoff countdown and the final pre-transmit
        # check are one sequence of mid-slot samples; ``idle_run`` tracks
        # progress through the DIFS prefix.  Each loop iteration handles
        # one busy sample *or* one idle run slept through in one wait (see
        # the module docstring); the busy branch is byte-for-byte the
        # reference machine's (reset DIFS, redraw when not resuming, skip
        # over the known-busy span).
        poke = self._poke
        radio.waiters.append(poke)
        self.nav.waiters.append(poke)
        idle_run = 0
        try:
            while True:
                if slot_was_busy():
                    idle_run = 0
                    if not resume_backoff:
                        backoff = randrange(window)
                        if obs.backoff:
                            obs.emit(
                                "backoff",
                                node=node,
                                attempt=attempt,
                                window=window,
                                backoff=backoff,
                            )
                    yield timeout(self._next_sample_point(), rank=rank)
                    continue

                # Idle samples still required before the station may
                # transmit: the rest of the DIFS run plus the whole
                # remaining backoff.
                needed = (difs_slots - idle_run) + backoff
                if needed == 0:
                    # Final check passed: transmit at the next slot
                    # boundary.  Rank 0: this wake commits.
                    yield timeout(0.5)
                    break

                begin = env.now
                if radio.busy_until > begin:
                    # An override (ExposedAwareContender) read a busy
                    # medium as idle.  That verdict also changes when
                    # frames end, which no writer reports: step one
                    # sample, as the reference does.
                    yield timeout(1.0, rank=rank)
                    batch = 1
                else:
                    # Wait for the final check sample; a writer pulls the
                    # wake earlier (_poke).  Every sample slept through
                    # read this idle medium.
                    self._begin = begin
                    self._wake_at = begin + needed
                    self._wake = timeout(float(needed), rank=rank)
                    yield self._wake
                    self._wake = None
                    batch = int(env.now - begin)
                difs_part = difs_slots - idle_run
                if batch < difs_part:
                    idle_run += batch
                else:
                    idle_run = difs_slots
                    backoff -= batch - difs_part
        finally:
            # Phase exit (win, or the process dying mid-phase): stop
            # listening to the medium.
            self._wake = None
            radio.waiters.remove(poke)
            self.nav.waiters.remove(poke)

        if obs.contention_won:
            obs.emit(
                "contention_won",
                node=node,
                attempt=attempt,
                waited=env.now - started,
            )
        return

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
makes it scale with *events* instead.  The key observation: between two
scheduler events nothing in the simulated world can change -- a
transmission, a NAV update or a new arrival all happen inside event
callbacks -- so every mid-slot carrier-sense sample strictly before the
kernel's next event time is *guaranteed* to read the same idle medium
the station sees right now.  The contender
therefore burns all those samples (DIFS slots, then backoff decrements,
then the final pre-transmit check) in a single pooled timeout.

Whenever a *foreign* event sits inside the skip window -- a frame
delivery, a traffic arrival, a timeout -- the skip is truncated to the
samples provably idle and the machine re-evaluates at the next sample,
which degrades gracefully to exact per-slot stepping around busy
transitions.  Other contenders' pending mid-slot samples do *not*
truncate the skip: each in-phase contender publishes a **commit
horizon** -- the earliest instant it could possibly transmit should the
medium stay idle (``now + remaining DIFS + backoff + 0.5``) -- in the
kernel's registry ``env._horizons`` under its :meth:`Environment.horizon_key`,
and peers skip up to ``min(published bounds, next main-queue event)`` via
:meth:`Environment.commit_horizon`.  Sample wake-ups live in the
kernel's sample lane (:meth:`Environment.sample_sleep`), which
:meth:`Environment.commit_horizon` looks past; the final pre-transmit
sleep stays in the main lane because it *is* the commit.
The ordering-safety argument (no peer commit can land inside a skip
window, and same-instant commits keep their pinned order) is written
out in docs/simulator.md "Fast paths".

The RNG discipline is untouched (one backoff draw per phase; in
``resume_backoff=False`` mode one redraw per busy sample, exactly as
before), and busy samples still go through
:meth:`Contender._next_sample_point`, so transmit times, backoff
residues and draw order are bit-identical to the reference per-slot
machine.  This is pinned by Hypothesis side-by-side properties -- solo
and arbitrary N-contender interference patterns
(``tests/mac/test_contention_fastpath.py``) -- and by the repo-wide
``repro-mac gate`` regression baseline.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.mac.nav import Nav
from repro.sim.kernel import Environment
from repro.sim.radio import Radio

__all__ = ["ContentionParams", "Contender"]


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
        #: This contender's key in the commit-horizon registry ``env._horizons``.
        self._hkey = env.horizon_key()

    # -- helpers ---------------------------------------------------------------

    def _virtual_busy_until(self) -> float:
        return max(self.radio.busy_until, self.nav.until)

    def _slot_was_busy(self) -> bool:
        """Sampled mid-slot: is the current slot occupied?"""
        return self._virtual_busy_until() > self.env.now

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
        sleep = env.sleep
        sample_sleep = env.sample_sleep
        hkey = self._hkey
        horizons = env._horizons
        resume_backoff = params.resume_backoff

        # Align to the next mid-slot sampling point.
        frac = env.now - math.floor(env.now)
        yield sleep((0.5 - frac) % 1.0)

        backoff = randrange(window)
        if obs.active:
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
        # one sample *or* one guaranteed-idle batch of samples (see the
        # module docstring); the busy branch is byte-for-byte the
        # reference machine's (reset DIFS, redraw when not resuming, skip
        # over the known-busy span).
        #
        # Sample wake-ups go through ``env.sample_sleep`` with a published
        # commit horizon covering them: before every tagged sleep, the
        # contender publishes its commit-if-idle instant (the exact time
        # it will transmit should the medium stay idle; any busy sample
        # only pushes the commit later *from the peers' point of view at
        # read time* -- see the ordering-safety argument in
        # docs/simulator.md).  Peers may then skip past this contender's
        # pending samples up to that bound.  The final pre-transmit sleeps
        # stay in the main lane: they *are* the commit.
        idle_run = 0
        try:
            while True:
                if slot_was_busy():
                    idle_run = 0
                    if not resume_backoff:
                        backoff = randrange(window)
                        if obs.active:
                            obs.emit(
                                "backoff",
                                node=node,
                                attempt=attempt,
                                window=window,
                                backoff=backoff,
                            )
                    delay = self._next_sample_point()
                    # Commit-if-idle from the landing sample: a full DIFS
                    # run plus the (frozen or freshly redrawn) backoff,
                    # then the half-slot final check.
                    horizons[hkey] = env.now + delay + difs_slots + backoff + 0.5
                    yield sample_sleep(delay, hkey)
                    continue

                # Idle samples still required before the station may
                # transmit: the rest of the DIFS run plus the whole
                # remaining backoff.
                needed = (difs_slots - idle_run) + backoff
                if needed == 0:
                    # Final check passed: transmit at the next slot
                    # boundary.  Main lane: this wake commits.
                    yield sleep(0.5)
                    break

                # Samples guaranteed idle from here: no *foreign* event --
                # and no peer commit, per the published bounds -- can
                # change the world before ``horizon``, so every sample at
                # now, now+1, ... strictly below it reads the medium
                # exactly as this (idle) one did.  The current sample is
                # always safe -- it just happened.
                horizon = env.commit_horizon(hkey)
                span = horizon - env.now
                if span > needed + 0.5:
                    # The commit instant itself lies *strictly* inside the
                    # quiet window, so this transmission is provably the
                    # only commit at that instant (a peer tying on it
                    # would need a bound <= the commit time): one timeout
                    # to the slot boundary wins the phase outright.  Main
                    # lane: this wake commits.  ``span == needed + 0.5``
                    # (commit exactly at the horizon -- a possible
                    # same-instant tie) instead batches to the final
                    # sample below, so tied commits are all scheduled at
                    # T - 0.5 in rank order.
                    yield sleep(needed + 0.5)
                    break

                # Consume the provably idle prefix (>= 1 sample) in one
                # jump, then re-evaluate at the first sample an event (or
                # a peer commit) could touch.
                guaranteed = math.ceil(span) if span > 1.0 else 1
                batch = needed if needed < guaranteed else guaranteed
                difs_part = difs_slots - idle_run
                if batch < difs_part:
                    idle_run += batch
                else:
                    idle_run = difs_slots
                    backoff -= batch - difs_part
                # Commit-if-idle is invariant along an idle run:
                # now + needed + 0.5 == landing + remaining + 0.5.
                horizons[hkey] = env.now + needed + 0.5
                yield sample_sleep(float(batch), hkey)
        finally:
            # Phase exit (win, timeout upstream, process death):
            # withdraw the bound so peers stop truncating their skips on a
            # contender that is no longer sampling.
            horizons.pop(hkey, None)

        if obs.active:
            obs.emit(
                "contention_won",
                node=node,
                attempt=attempt,
                waited=env.now - started,
            )
        return

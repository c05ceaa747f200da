"""The kernel phase profiler: attribute simulate wall time to MAC phases.

The run manifest's phase timings (:mod:`repro.obs.profile`) say how long
the ``simulate`` phase took; they cannot say *where inside the protocol*
that time went.  Sharma et al.'s 802.11b analysis (PAPERS.md) shows that
the interesting stories -- contention collapse, where airtime actually
goes -- only become visible with per-phase accounting.  This module
provides exactly that, as a pure event-bus subscriber:

* :class:`KernelPhaseProfiler` subscribes to the four phase-starting
  event types on ``env.obs``.  Between two of those events the MAC phase
  does not change, so the wall clock consumed between consecutive
  phase-starting events is attributed to the *MAC phase the preceding
  one started*:

  ============================  =========================================
  phase key                     started by
  ============================  =========================================
  ``difs_backoff``              a ``backoff`` draw or ``contention_won``
                                (the DIFS + backoff countdown machinery)
  ``rts`` / ``cts``             ``frame_tx`` of the matching control frame
  ``data``                      ``frame_tx`` of a DATA frame (includes the
                                reception fan-out its deliveries trigger)
  ``ack_collection``            ``frame_tx`` of ACK / NAK / RAK (the
                                paper's per-receiver polling rounds)
  ``beacon``                    ``frame_tx`` of a BEACON (BSMA)
  ``idle``                      everything after a ``request_done``
                                until the next activity
  ``other``                     loop residue: simulate-phase wall clock
                                outside the first..last phase-starting
                                event window
  ============================  =========================================

* Attribution is *exhaustive*: :meth:`finish` folds the residue into
  ``other``, so ``sum(profiler.phase_seconds.values())`` equals the
  simulate-phase wall clock it is told about (acceptance-pinned to 1%,
  exact by construction up to float rounding).

No-op discipline (same contract as :mod:`repro.faults`): the profiler is
a plain subscriber -- it reads the wall clock and writes into its own
dicts, never touches an RNG stream, a counter or the event queue -- so a
profiled run is bit-identical to a bare one (pinned by
``tests/obs/test_profiler.py``).  Detached (the default), the only cost
is the per-type guard every emit site already pays; attached, only the
four phase-starting sites build an event.

Every other event (receptions, collisions, NAV updates) is bookkeeping
*of* the current phase: fed one anyway, :meth:`KernelPhaseProfiler.__call__`
splits the running slice without switching phase, so the slices merge
back to the same ``phase_seconds`` (pinned by a replay test).  Events
before the first phase-starting one are ignored for the same reason.
"""

from __future__ import annotations

from time import perf_counter

from repro.obs.events import SimEvent

__all__ = [
    "KernelPhaseProfiler",
    "PROFILE_PHASES",
    "format_phase_profile",
]

#: Every phase key the profiler can emit, in report order.
PROFILE_PHASES = (
    "difs_backoff",
    "rts",
    "cts",
    "data",
    "ack_collection",
    "beacon",
    "idle",
    "other",
)

#: frame_tx ftype -> phase key.
_FTYPE_PHASE = {
    "RTS": "rts",
    "CTS": "cts",
    "DATA": "data",
    "ACK": "ack_collection",
    "NAK": "ack_collection",
    "RAK": "ack_collection",
    "BEACON": "beacon",
}

#: Event types that switch the current phase, and the only ones
#: :meth:`KernelPhaseProfiler.attach` subscribes to (all others --
#: receptions, collisions, NAV updates -- are bookkeeping *of* the
#: current phase and leave the attribution untouched).
_PHASE_STARTERS = frozenset({"backoff", "contention_won", "frame_tx", "request_done"})


class KernelPhaseProfiler:
    """Event-bus subscriber slicing wall-clock time into MAC phases.

    Usage (what ``run_raw(..., profile=True)`` does)::

        profiler = KernelPhaseProfiler()
        profiler.attach(env)          # subscribes to env.obs
        ...                           # simulate
        profiler.finish(simulate_wall_s)
        profiler.phase_seconds        # {"difs_backoff": ..., "data": ...}

    The profiler also counts the phase-starting events per phase
    (``phase_events``) so a report can distinguish "expensive because
    many phases" from "expensive because each phase is slow".
    """

    __slots__ = ("phase_seconds", "phase_events", "_phase", "_last_wall", "_env", "_total")

    def __init__(self):
        #: phase key -> attributed wall-clock seconds.
        self.phase_seconds: dict[str, float] = {}
        #: phase key -> number of received events that started a slice
        #: there (attached: the phase-starting events only).
        self.phase_events: dict[str, int] = {}
        self._phase = "idle"
        self._last_wall: float | None = None
        self._env = None
        self._total: float | None = None

    # -- lifecycle -----------------------------------------------------------

    def attach(self, env) -> "KernelPhaseProfiler":
        """Subscribe to *env*'s phase-starting events."""
        if self._env is not None:
            raise RuntimeError("profiler is already attached")
        env.obs.subscribe(self, types=_PHASE_STARTERS)
        self._env = env
        return self

    def detach(self) -> None:
        """Unsubscribe (idempotent)."""
        if self._env is None:
            return
        self._env.obs.unsubscribe(self)
        self._env = None

    # -- the subscriber ------------------------------------------------------

    def __call__(self, event: SimEvent) -> None:
        now = perf_counter()
        etype = event.etype
        if self._last_wall is not None:
            phase = self._phase
            self.phase_seconds[phase] = self.phase_seconds.get(phase, 0.0) + (
                now - self._last_wall
            )
        elif etype not in _PHASE_STARTERS:
            return  # attribution opens at the first phase-starting event
        self._last_wall = now
        if etype in _PHASE_STARTERS:
            if etype == "frame_tx":
                self._phase = _FTYPE_PHASE.get(event.data.get("ftype"), "other")
            elif etype == "request_done":
                self._phase = "idle"
            else:  # backoff / contention_won
                self._phase = "difs_backoff"
        self.phase_events[self._phase] = self.phase_events.get(self._phase, 0) + 1

    # -- closing the books ---------------------------------------------------

    def finish(self, simulate_wall_s: float | None = None) -> dict[str, float]:
        """Stop attributing and make the totals exhaustive.

        With *simulate_wall_s* (the :class:`~repro.obs.profile.PhaseTimer`
        measurement of the whole simulate phase), the wall clock outside
        the first..last event window -- kernel loop spin-up, the tail
        after the last event, heap churn of a fully idle run -- lands in
        ``other``, so the phase totals sum exactly to *simulate_wall_s*.
        Detaches from the environment; returns :attr:`phase_seconds`.
        """
        self.detach()
        self._last_wall = None
        if simulate_wall_s is not None:
            residue = simulate_wall_s - sum(self.phase_seconds.values())
            if residue > 0:
                self.phase_seconds["other"] = self.phase_seconds.get("other", 0.0) + residue
            self._total = simulate_wall_s
        else:
            self._total = sum(self.phase_seconds.values())
        return self.phase_seconds

    @property
    def total_seconds(self) -> float:
        """Attributed total (equals the simulate wall clock after finish)."""
        if self._total is not None:
            return self._total
        return sum(self.phase_seconds.values())

    def as_dict(self) -> dict:
        """JSON-safe snapshot (ordered by :data:`PROFILE_PHASES`)."""
        ordered = {
            k: self.phase_seconds[k] for k in PROFILE_PHASES if k in self.phase_seconds
        }
        ordered.update(
            {k: v for k, v in self.phase_seconds.items() if k not in ordered}
        )
        return {
            "total_s": self.total_seconds,
            "phase_seconds": ordered,
            "phase_events": dict(self.phase_events),
        }


def format_phase_profile(
    phase_seconds: dict[str, float], title: str = "MAC phase profile"
) -> str:
    """Aligned text table of the attribution, biggest share first."""
    if not phase_seconds:
        return f"{title}: (no phases attributed)"
    total = sum(phase_seconds.values())
    lines = [f"{title} (total {total:.3f}s)"]
    width = max(len(k) for k in phase_seconds)
    for key, seconds in sorted(phase_seconds.items(), key=lambda kv: -kv[1]):
        share = seconds / total if total > 0 else 0.0
        lines.append(f"  {key:<{width}}  {seconds:8.3f}s  {share:6.1%}")
    return "\n".join(lines)

"""Host-speed calibration: a fixed loop sampled while a workload runs.

On a shared virtual machine the same work can take 1.5-2x longer from one
second to the next, and CPU time slows with wall time (the core itself is
slower, not descheduled), so neither CPU time nor a median over a run
removes it.  This module measures how slow the host is *while* the
workload runs: :class:`HostClock` runs a few milliseconds of a fixed loop
(:class:`Calibrator`) every ``PERIOD_S`` of wall time, from a ``SIGALRM``
handler in the workload's own thread.  The mean duration of those chunks
over a stretch of time says how slow the host was during that stretch, and
the benchmark reports its times as *reference seconds*: host seconds
scaled to a host on which one chunk takes ``REF_CHUNK_S``.

The loop resembles the simulator's hot path -- generator processes resumed
from a time-ordered heap, touching a table of small dicts -- so it slows
with the host much as the simulator does.  It imports nothing from
``repro`` and keeps its own RNG, so no change to the simulator can speed it
up or slow it down, and it cannot perturb simulated results.

Run as a script, it prints the chunk time of this host.
"""

from __future__ import annotations

import gc
import heapq
import random
import signal
import statistics
from time import perf_counter

#: Wall seconds between two calibration chunks.
PERIOD_S = 0.1
#: Process resumptions per chunk (~2-4 ms on a 2-vCPU Xeon VM).
CHUNK_STEPS = 1500
#: Duration of one chunk on the reference host, in seconds.  Times the
#: benchmark reports are host seconds x ``REF_CHUNK_S`` / measured chunk.
REF_CHUNK_S = 0.002

#: Imports are file reads, unmarshalling and extension loading more than
#: interpreted loops, and slow less than a chunk when the host slows, so
#: an import is calibrated against another import instead: this statement,
#: run in a fresh interpreter right after the one being measured.  It
#: loads only the standard library and numpy, so no change to ``repro``
#: alters its cost.
REFERENCE_IMPORT = (
    "import numpy, asyncio, email.parser, http.client, decimal, argparse, logging, sqlite3, json"
)
#: Wall seconds of ``REFERENCE_IMPORT`` on the reference host at its fastest.
REF_IMPORT_S = 0.15


class Calibrator:
    """A fixed, self-contained discrete-event loop: 300 processes over a
    table of 3000 rows.  :meth:`chunk` runs ``CHUNK_STEPS`` process
    resumptions and returns its wall seconds.

    Its state stays the same size however often it runs, so a chunk costs
    the same on a steady host."""

    def __init__(self):
        self.rng = random.Random(1)
        self.table = [{"n": i, "hist": [0] * 8} for i in range(3000)]
        self.queue: list = []
        self.eid = 0
        for _ in range(300):
            proc = self._process()
            next(proc)
            self.eid += 1
            heapq.heappush(self.queue, (self.rng.random(), self.eid, proc))

    def _process(self):
        rng, table = self.rng, self.table
        while True:
            row = table[rng.randrange(len(table))]
            row["hist"][row["n"] & 7] += 1
            row["n"] = (row["n"] + 1) & 0xFFFF
            yield rng.random() * 10.0

    def chunk(self) -> float:
        queue, pop, push = self.queue, heapq.heappop, heapq.heappush
        eid = self.eid
        t0 = perf_counter()
        for _ in range(CHUNK_STEPS):
            t, _e, proc = pop(queue)
            eid += 1
            push(queue, (t + proc.send(None), eid, proc))
        elapsed = perf_counter() - t0
        self.eid = eid
        return elapsed


def _chunk_without_gc(cal: Calibrator) -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        return cal.chunk()
    finally:
        if enabled:
            gc.enable()


class HostClock:
    """Context manager sampling host speed every ``period`` wall seconds.

    Inside the ``with`` block, ``busy_s`` is the wall time spent in
    calibration so far: a caller timing a stretch of work subtracts the
    change in ``busy_s`` over it.  :meth:`slowness` is the host's slowness
    over the whole block relative to the reference host (2.0 = took twice
    as long)."""

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.calibrator = Calibrator()
        self.samples: list[float] = []
        self.busy_s = 0.0
        self._inside = False
        self._old_handler = None

    def _tick(self, signum, frame) -> None:
        if self._inside:  # a tick arriving during a chunk is dropped
            return
        self._inside = True
        t0 = perf_counter()
        try:
            self.samples.append(_chunk_without_gc(self.calibrator))
        finally:
            self.busy_s += perf_counter() - t0
            self._inside = False

    def __enter__(self) -> "HostClock":
        _chunk_without_gc(self.calibrator)  # first-run costs stay out of the samples
        self._old_handler = signal.signal(signal.SIGALRM, self._tick)
        # Restart interrupted system calls (SQLite's fsync among them).
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        if not self.samples:
            self.samples.append(_chunk_without_gc(self.calibrator))

    def slowness(self) -> float:
        return statistics.fmean(self.samples) / REF_CHUNK_S


if __name__ == "__main__":
    cal = Calibrator()
    times = [_chunk_without_gc(cal) for _ in range(200)]
    print(f"chunk: median {statistics.median(times) * 1e3:.3f} ms, min {min(times) * 1e3:.3f} ms")

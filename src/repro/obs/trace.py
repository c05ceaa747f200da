"""JSONL trace persistence: schema, writer, loader, and renderers.

Trace file format (schema version 1)
------------------------------------
One JSON object per line.  The first line is a metadata record::

    {"t": 0.0, "e": "trace.meta", "node": null,
     "schema": TRACE_SCHEMA_VERSION, "package": "repro", "package_version": "..."}

Every following line is one :class:`~repro.obs.events.SimEvent`::

    {"t": <float sim time>, "e": "<event type>", "node": <int|null>,
     ... event-specific payload keys ...}

Payload keys per event type are documented in ``docs/observability.md``.
The format is append-only and newline-delimited so traces from long runs
can be streamed and grepped; the writer flushes on close only.  Writing
and reading go through :mod:`repro.obs.records`, shared with the
campaign telemetry stream.

The renderers -- :func:`lane_diagram` (the paper's Figure 2 lanes: one
row per station, one column per slot) and :func:`format_timeline` -- take
channel ``Transmission`` objects: a live channel's ``tx_log`` (recorded
with ``record_transmissions=True``) or :func:`transmissions_from_trace`,
which rebuilds them from ``frame_tx`` events, so a recorded JSONL file
replays into the same ASCII lanes without re-running the simulation.
"""

from __future__ import annotations

from pathlib import Path
from typing import IO, Iterable

from repro.obs.events import SimEvent
from repro.obs.records import JsonlWriter, read_jsonl

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "META_ETYPE",
    "JsonlTraceWriter",
    "TraceRecorder",
    "TraceEvents",
    "event_to_record",
    "record_to_event",
    "load_trace",
    "frame_type_counts",
    "transmissions_from_trace",
    "format_timeline",
    "lane_diagram",
]

#: Bump when the record layout changes incompatibly.
TRACE_SCHEMA_VERSION = 1
#: Event type of the file-leading metadata record.
META_ETYPE = "trace.meta"


def event_to_record(event: SimEvent) -> dict:
    """Flatten a :class:`SimEvent` into its JSONL dict form."""
    record = {"t": event.time, "e": event.etype, "node": event.node}
    record.update(event.data)
    return record


def record_to_event(record: dict) -> SimEvent:
    """Inverse of :func:`event_to_record`."""
    data = {k: v for k, v in record.items() if k not in ("t", "e", "node")}
    return SimEvent(etype=record["e"], time=record["t"], node=record["node"], data=data)


class JsonlTraceWriter:
    """Event-bus subscriber appending one JSON line per event.

    Usable as a context manager; subscribe the instance itself::

        with JsonlTraceWriter(path) as writer:
            env.obs.subscribe(writer)
            net.run(until=horizon)

    Parameters
    ----------
    target:
        A path (opened for writing, parents created) or an open text file.
    header:
        Write the leading ``trace.meta`` record (default True).
    """

    def __init__(self, target: str | Path | IO[str], header: bool = True):
        self._out = JsonlWriter(target)
        self.path = self._out.path
        self.n_events = 0
        if header:
            from repro import __version__

            self._out.write(
                {
                    "t": 0.0,
                    "e": META_ETYPE,
                    "node": None,
                    "schema": TRACE_SCHEMA_VERSION,
                    "package": "repro",
                    "package_version": __version__,
                }
            )

    def __call__(self, event: SimEvent) -> None:
        self._out.write(event_to_record(event))
        self.n_events += 1

    def close(self) -> None:
        self._out.close()

    def __enter__(self) -> "JsonlTraceWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class TraceRecorder:
    """In-memory subscriber collecting events (tests, small runs)."""

    def __init__(self):
        self.events: list[SimEvent] = []

    def __call__(self, event: SimEvent) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def by_type(self, etype: str) -> list[SimEvent]:
        return [e for e in self.events if e.etype == etype]


class TraceEvents(list):
    """The loader's return type: a plain event list plus a tail marker.

    Behaves exactly like ``list[SimEvent]`` (all existing callers keep
    working); :attr:`truncated` is True when the file's final line lacks
    its newline -- the writer's process was killed mid-write.  The tail is
    kept if it parsed and dropped if not; everything before it
    round-trips exactly.
    """

    truncated: bool = False


def load_trace(source: str | Path | IO[str], include_meta: bool = False) -> TraceEvents:
    """Read a JSONL trace back into :class:`SimEvent` objects.

    The ``trace.meta`` record is validated (schema version) and dropped
    unless *include_meta* is set.

    Crash tolerance follows :func:`repro.obs.records.read_jsonl`: a final
    line without its newline (a writer killed mid-write) is kept if it
    parses and dropped if not, and either way ``events.truncated`` is set;
    a malformed line *with* its newline raises :class:`ValueError`.
    """
    records, truncated = read_jsonl(
        source, "trace", ("t", "e"), META_ETYPE, TRACE_SCHEMA_VERSION
    )
    events = TraceEvents(
        record_to_event(r) for r in records if include_meta or r["e"] != META_ETYPE
    )
    events.truncated = truncated
    return events


def frame_type_counts(events: Iterable[SimEvent], etype: str = "frame_tx") -> dict[str, int]:
    """Per-frame-type counts over *etype* events (``frame_tx`` by default;
    pass ``"frame_rx"`` for deliveries).  Matches ``ChannelStats`` /
    counter totals exactly -- asserted by the integration tests."""
    counts: dict[str, int] = {}
    for event in events:
        if event.etype == etype:
            ftype = event.data["ftype"]
            counts[ftype] = counts.get(ftype, 0) + 1
    return counts


def transmissions_from_trace(events: Iterable[SimEvent]):
    """Rebuild channel ``Transmission`` objects from ``frame_tx`` events,
    feeding :func:`lane_diagram` and :func:`format_timeline` from a
    recorded trace."""
    from repro.sim.channel import Transmission
    from repro.sim.frames import Frame, FrameType

    out = []
    for event in events:
        if event.etype != "frame_tx":
            continue
        d = event.data
        frame = Frame(
            ftype=FrameType(d["ftype"]),
            src=d["src"],
            ra=d["ra"],
            duration=d.get("dur", 0),
            seq=d.get("seq"),
            group=frozenset(d.get("group", ())),
            msg_id=d.get("msg_id"),
        )
        out.append(Transmission(frame, sender=event.node, start=event.time, end=d["end"]))
    return out


#: One-character codes per frame type for the lane diagram.
_CODE = {
    "RTS": "R",
    "CTS": "C",
    "DATA": "D",
    "ACK": "A",
    "NAK": "N",
    "RAK": "K",
    "BEACON": "B",
}


def format_timeline(transmissions: Iterable) -> str:
    """One line per transmission: ``start-end  FRAME``."""
    lines = []
    for tx in sorted(transmissions, key=lambda t: (t.start, t.sender)):
        lines.append(f"{tx.start:6.0f}-{tx.end:<6.0f} node {tx.sender:<3} {tx.frame}")
    return "\n".join(lines)


def lane_diagram(
    transmissions: Iterable,
    start: float | None = None,
    end: float | None = None,
    max_width: int = 120,
) -> str:
    """Figure-2-style lanes: rows are stations, columns are slots.

    ``R``/``C``/``D``/``A``/``K``/``N``/``B`` mark RTS/CTS/DATA/ACK/RAK/
    NAK/BEACON airtime; ``.`` is idle.  Long windows are truncated to
    *max_width* slots, with an explicit ``… (+N slots truncated)`` trailer
    so a cut-off diagram can never be mistaken for the whole run.
    """
    txs = sorted(transmissions, key=lambda t: t.start)
    if not txs:
        return "(no transmissions)"
    lo = int(txs[0].start if start is None else start)
    full_hi = int(max(t.end for t in txs) if end is None else end)
    hi = min(full_hi, lo + max_width)
    width = hi - lo
    senders = sorted({t.sender for t in txs})
    lanes = {s: ["."] * width for s in senders}
    for tx in txs:
        code = _CODE.get(tx.frame.ftype.value, "?")
        for slot in range(int(tx.start), int(tx.end)):
            if lo <= slot < hi:
                lanes[tx.sender][slot - lo] = code
    header = f"slots {lo}..{hi}  (R=RTS C=CTS D=DATA A=ACK K=RAK N=NAK B=BEACON)"
    rows = [header]
    for s in senders:
        rows.append(f"node {s:>3} |{''.join(lanes[s])}|")
    if full_hi > hi:
        rows.append(f"… (+{full_hi - hi} slots truncated)")
    return "\n".join(rows)

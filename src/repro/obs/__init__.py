"""repro.obs -- observability: event bus, counters, traces, manifests,
campaign telemetry and the kernel phase profiler.

Eight pieces, threaded through the whole simulator stack:

* :mod:`repro.obs.events` -- the typed event bus on
  :class:`~repro.sim.kernel.Environment` (``env.obs``); near-zero cost
  with no subscribers attached;
* :mod:`repro.obs.counters` -- cheap always-on per-run/per-node counters
  owned by the channel and surfaced on ``RawRun`` / ``RunMetrics``;
* :mod:`repro.obs.records` -- the one record I/O path: the JSONL stream
  writer, the tolerant JSONL reader and the JSON artifact writer every
  trace, telemetry stream, manifest, BENCH and GATE file goes through;
* :mod:`repro.obs.trace` -- the JSONL trace writer/loader (schema v1) and
  the trace-to-``Transmission`` adapter feeding the lane diagram;
* :mod:`repro.obs.manifest` / :mod:`repro.obs.profile` -- run provenance
  and wall-clock phase timing;
* :mod:`repro.obs.codec` -- the settings wire format (one lowering for
  digests and manifests, its inverse, the value rule of every settings field);
* :mod:`repro.obs.telemetry` -- the campaign-scale progress stream
  (schema v1) behind ``repro-mac sweep --telemetry`` / ``repro-mac
  watch``: cells done/pending, worker heartbeats, cross-worker spans;
* :mod:`repro.obs.profiler` -- the kernel phase profiler, attributing
  simulate-phase wall clock to MAC phases over the event bus.

See ``docs/observability.md`` for the event taxonomy, trace schema and
counter definitions, and ``docs/telemetry.md`` for the telemetry stream,
span model and profiler phase keys.

Import discipline: this ``__init__`` eagerly imports only modules with no
simulator dependencies (``events``, ``counters``, ``profile``,
``records``, ``manifest``, ``telemetry``) -- the kernel imports
:class:`EventBus` at module load, so anything here that imported
``repro.sim`` back would cycle.  ``trace`` and ``profiler`` symbols are
re-exported lazily via ``__getattr__``.
"""

from __future__ import annotations

from repro.obs.counters import Counters, merge_counter_dicts
from repro.obs.events import EventBus, SimEvent
from repro.obs.manifest import RunManifest, load_manifest, settings_to_dict
from repro.obs.profile import PhaseTimer, format_timings
from repro.obs.telemetry import (
    TELEMETRY_SCHEMA_VERSION,
    CampaignTelemetry,
    TelemetryStream,
    load_telemetry,
    render_telemetry,
)

__all__ = [
    "EventBus",
    "SimEvent",
    "Counters",
    "merge_counter_dicts",
    "PhaseTimer",
    "format_timings",
    "RunManifest",
    "load_manifest",
    "settings_to_dict",
    "CampaignTelemetry",
    "TelemetryStream",
    "load_telemetry",
    "render_telemetry",
    "TELEMETRY_SCHEMA_VERSION",
    # lazily re-exported (see __getattr__):
    "JsonlTraceWriter",
    "TraceRecorder",
    "load_trace",
    "frame_type_counts",
    "transmissions_from_trace",
    "TRACE_SCHEMA_VERSION",
    "KernelPhaseProfiler",
    "format_phase_profile",
]

_TRACE_NAMES = {
    "JsonlTraceWriter",
    "TraceRecorder",
    "load_trace",
    "frame_type_counts",
    "transmissions_from_trace",
    "TRACE_SCHEMA_VERSION",
}
_PROFILER_NAMES = {"KernelPhaseProfiler", "format_phase_profile"}


def __getattr__(name: str):
    if name in _TRACE_NAMES:
        from repro.obs import trace

        return getattr(trace, name)
    if name in _PROFILER_NAMES:
        from repro.obs import profiler

        return getattr(profiler, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

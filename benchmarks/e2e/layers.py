"""Layer attribution for the campaign benchmark: spans at layer boundaries.

The traced run wraps the public entry points of each simulator layer from
here, by patching class attributes and module names before any network is
built; nothing under ``src/`` knows it is being traced.  Every wrapped call
is a span.  A layer's *self time* is the duration of its spans minus the
part covered by child spans (spans of any wrapped boundary called from
inside), so the self times of all layers telescope to the duration of the
outermost spans: ``sum(self_s.values())`` equals the time spent inside
``run_sweep``, and what remains of the traced wall is harness time.

Generator boundaries (``Contender.contention_phase`` and the protocols'
``serve_*`` procedures) are timed per resumption through a forwarding
iterator, so the time a generator spends suspended in the kernel queue is
not counted as its own.

Spans are accumulated in memory (per layer sums, per boundary call counts)
and read once when the run ends.  The wrappers add a fixed cost per call,
most of which lands in the wrapped layer's self time; the traced run
reports its total as ``trace.overhead`` (traced wall / untraced wall on
identical work).
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter

#: Layer names in report order.  Each is a module (or a module's half, for
#: the channel's transmit and receive paths) of ``repro``.
LAYERS = (
    "sweep",
    "workload",
    "network",
    "metrics",
    "kernel",
    "channel.tx",
    "channel.rx",
    "radio",
    "phy",
    "mac.rx",
    "mac.nav",
    "contention",
    "proto",
    "geometry",
    "obs",
    "store.open",
    "store.get",
    "store.put",
)

#: Every wrapped boundary (call counts are kept per boundary).
BOUNDARIES = (
    "sweep.run_sweep",
    "sweep.run_job",
    "workload.world",
    "workload.inject",
    "network.build",
    "metrics.summarize",
    "kernel.run",
    "channel.transmit",
    "channel.finish",
    "channel.receive_at",
    "radio.deliver",
    "phy.capture",
    "mac.on_frame",
    "mac.nav_set",
    "contention.phase",
    "proto.serve",
    "geometry.update_uncovered",
    "geometry.greedy_cover_set",
    "geometry.minimum_cover_set",
    "obs.emit",
    "obs.profiler",
    "obs.telemetry",
    "store.open",
    "store.get",
    "store.put",
)


class _TracedGenerator:
    """Forwarding iterator timing each resumption of *gen* as one span.

    Implements the generator protocol (``send``/``throw``/``close``) so
    ``yield from`` and the kernel's ``Process`` treat it exactly like
    the generator it wraps; ``StopIteration`` (the generator's return
    value) passes through unchanged.
    """

    __slots__ = ("_gen", "_tracer", "_layer")

    def __init__(self, gen, tracer: "Tracer", layer: str):
        self._gen = gen
        self._tracer = tracer
        self._layer = layer

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        return self._resume(self._gen.send, value)

    def throw(self, *exc):
        return self._resume(self._gen.throw, *exc)

    def _resume(self, method, *args):
        tracer = self._tracer
        tracer.resumes[self._layer] += 1
        stack = tracer._stack
        stack.append(0.0)
        t0 = perf_counter()
        try:
            return method(*args)
        finally:
            dur = perf_counter() - t0
            tracer.self_s[self._layer] += dur - stack.pop()
            stack[-1] += dur

    def close(self):
        return self._gen.close()


class Tracer:
    """Span accounting plus the patches that feed it.

    ``install()`` patches every boundary in :data:`BOUNDARIES`;
    ``uninstall()`` restores the originals.
    """

    def __init__(self):
        #: Layer -> self seconds.
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        #: Boundary -> calls (generator boundaries: generators created).
        self.calls = dict.fromkeys(BOUNDARIES, 0)
        #: Generator layer -> resumptions.
        self.resumes = {"contention": 0, "proto": 0}
        #: Kernel events dispatched (``Environment._eid`` advance per run).
        self.events = 0
        #: Protocol name -> ``Environment.run`` wall (simulate time) of its cells.
        self.simulate_s: dict[str, float] = {}
        #: ``(scheduled messages, live request list)`` per injected cell,
        #: for the exact request-count check after each pass.
        self.injections: list = []
        #: Child-time accumulators of the open spans, above a root entry
        #: that absorbs the duration of every outermost span.
        self._stack = [0.0]
        self._protocol = None
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------

    def _span(self, name: str, layer: str, fn):
        calls = self.calls
        selfs = self.self_s
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                selfs[layer] += dur - stack.pop()
                stack[-1] += dur

        return wrapper

    def _generator(self, name: str, layer: str, fn):
        calls = self.calls
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return _TracedGenerator(fn(*args, **kwargs), tracer, layer)

        return wrapper

    def _kernel_run(self, fn):
        """``Environment.run``: a span that also counts dispatched events
        and charges the run's wall to the current cell's protocol."""
        span = self._span("kernel.run", "kernel", fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(env, *args, **kwargs):
            eid0 = env._eid
            t0 = perf_counter()
            try:
                return span(env, *args, **kwargs)
            finally:
                tracer.events += env._eid - eid0
                proto = tracer._protocol
                tracer.simulate_s[proto] = tracer.simulate_s.get(proto, 0.0) + (
                    perf_counter() - t0
                )

        return wrapper

    def _run_job(self, fn):
        """``run_job``: a sweep span that records which protocol is running."""
        span = self._span("sweep.run_job", "sweep", fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(job, *args, **kwargs):
            tracer._protocol = job.protocol
            try:
                return span(job, *args, **kwargs)
            finally:
                tracer._protocol = None

        return wrapper

    def _inject(self, fn):
        span = self._span("workload.inject", "workload", fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(gen, network, *args, **kwargs):
            requests = span(gen, network, *args, **kwargs)
            tracer.injections.append((len(gen.schedule), requests))
            return requests

        return wrapper

    # -- patching -------------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> "Tracer":
        """Patch every boundary.  Call before the networks to trace are
        built: MACs bind ``_on_frame`` as a radio listener at construction."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        from repro.experiments.config import PROTOCOLS
        from repro.mac.base import MacBase
        from repro.mac.contention import Contender
        from repro.mac.nav import Nav
        from repro.obs.events import EventBus
        from repro.obs.profiler import KernelPhaseProfiler
        from repro.obs.telemetry import CampaignTelemetry
        from repro.phy.capture import CaptureModel
        from repro.sim.channel import Channel
        from repro.sim.kernel import Environment
        from repro.sim.network import Network
        from repro.sim.radio import Radio
        from repro.store.db import ResultStore
        from repro.workload.cache import WorldCache
        from repro.workload.generator import TrafficGenerator

        lamm = importlib.import_module("repro.core.lamm")
        runner = importlib.import_module("repro.experiments.runner")
        sweep = importlib.import_module("repro.experiments.sweep")
        span = self._span
        self._patch(sweep, "run_sweep", span("sweep.run_sweep", "sweep", sweep.run_sweep))
        self._patch(sweep, "run_job", self._run_job(sweep.run_job))
        self._patch(WorldCache, "world", span("workload.world", "workload", WorldCache.world))
        self._patch(TrafficGenerator, "inject", self._inject(TrafficGenerator.inject))
        self._patch(Network, "__init__", span("network.build", "network", Network.__init__))
        self._patch(
            runner, "summarize_run", span("metrics.summarize", "metrics", runner.summarize_run)
        )
        self._patch(Environment, "run", self._kernel_run(Environment.run))
        self._patch(Channel, "transmit", span("channel.transmit", "channel.tx", Channel.transmit))
        self._patch(Channel, "_finish", span("channel.finish", "channel.rx", Channel._finish))
        self._patch(
            Channel, "_receive_at", span("channel.receive_at", "channel.rx", Channel._receive_at)
        )
        self._patch(Radio, "_deliver", span("radio.deliver", "radio", Radio._deliver))
        self._patch(
            CaptureModel, "attempt", span("phy.capture", "phy", CaptureModel.attempt)
        )
        self._patch(MacBase, "_on_frame", span("mac.on_frame", "mac.rx", MacBase._on_frame))
        self._patch(Nav, "set", span("mac.nav_set", "mac.nav", Nav.set))
        self._patch(
            Contender,
            "contention_phase",
            self._generator("contention.phase", "contention", Contender.contention_phase),
        )
        serve_owners = {MacBase} | {cls for cls, _kwargs in PROTOCOLS.values()}
        for cls in sorted(serve_owners, key=lambda c: c.__qualname__):
            for attr in ("serve_group", "serve_unicast", "serve_group_unreliable"):
                if attr in cls.__dict__:
                    self._patch(
                        cls, attr, self._generator("proto.serve", "proto", cls.__dict__[attr])
                    )
        for fname in ("update_uncovered", "greedy_cover_set", "minimum_cover_set"):
            self._patch(
                lamm, fname, span(f"geometry.{fname}", "geometry", getattr(lamm, fname))
            )
        self._patch(EventBus, "emit", span("obs.emit", "obs", EventBus.emit))
        for attr in ("__call__", "attach", "finish"):
            self._patch(
                KernelPhaseProfiler,
                attr,
                span("obs.profiler", "obs", KernelPhaseProfiler.__dict__[attr]),
            )
        for attr in ("__init__", "store_scan", "job_done", "close"):
            self._patch(
                CampaignTelemetry,
                attr,
                span("obs.telemetry", "obs", CampaignTelemetry.__dict__[attr]),
            )
        self._patch(ResultStore, "__init__", span("store.open", "store.open", ResultStore.__init__))
        self._patch(ResultStore, "close", span("store.open", "store.open", ResultStore.close))
        self._patch(ResultStore, "get", span("store.get", "store.get", ResultStore.get))
        self._patch(ResultStore, "put", span("store.put", "store.put", ResultStore.put))
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute (reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading --------------------------------------------------------------

    def snapshot(self) -> dict:
        """Copy of the counts (for the exact per-pass counts)."""
        return {
            "calls": dict(self.calls),
            "resumes": dict(self.resumes),
            "events": self.events,
        }

    def check_injections(self) -> list[str]:
        """Requests submitted per injected cell must equal its schedule
        (static topologies drop no scheduled message); returns the
        mismatches and forgets the injections."""
        bad = [
            f"injected {len(requests)} requests from a {scheduled}-message schedule"
            for scheduled, requests in self.injections
            if len(requests) != scheduled
        ]
        self.injections.clear()
        return bad

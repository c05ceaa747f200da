"""Byte pins for every record writer.

Each case feeds one writer fixed inputs -- the wall clock and the pid
monkeypatched where the writer reads them -- and compares the file it
leaves behind with the exact expected text: JSONL traces, the campaign
telemetry stream, the per-worker stream of the distributed service, run
manifests, gate reports, the kernel and sweep BENCH records, the grid
results file and figure JSON.  Refactoring the record I/O plumbing must
keep every one of these artifacts byte-identical.

Provenance values that legitimately differ between checkouts (git commit,
code fingerprint, package version) are spliced into the expected text
from the live functions, so only the layout and the encoding are pinned.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import itertools
import json
import os
import time
from pathlib import Path

import pytest

import repro
from repro.obs.events import SimEvent
from repro.store.digests import code_fingerprint, git_commit


@pytest.fixture
def fixed_clock(monkeypatch):
    """``time.time`` advancing 0.25 s per call from a fixed epoch; pid 4242."""
    ticks = itertools.count()
    monkeypatch.setattr(time, "time", lambda: 1_700_000_000.0 + 0.25 * next(ticks))
    monkeypatch.setattr(os, "getpid", lambda: 4242)


def _stamped(text: str) -> str:
    """Splice the live provenance values into an expected text."""
    return (
        text.replace("@GIT@", json.dumps(git_commit()))
        .replace("@FP@", json.dumps(code_fingerprint()))
        .replace("@VERSION@", json.dumps(repro.__version__))
    )


# --------------------------------------------------------------------------
# JSONL streams
# --------------------------------------------------------------------------

EVENTS = [
    SimEvent(
        etype="request_submitted",
        time=9.0,
        node=7,
        data={"msg_id": 1, "kind": "broadcast", "n_dests": 2, "deadline": 109.0, "reliable": True},
    ),
    SimEvent(
        etype="frame_tx",
        time=17.0,
        node=7,
        data={
            "ftype": "RTS",
            "src": 7,
            "ra": 3,
            "dur": 14,
            "seq": 0,
            "group": frozenset({5, 3}),
            "msg_id": 1,
            "end": 18.0,
        },
    ),
    SimEvent(etype="collision", time=18.0, node=None, data={"senders": (7, 2), "where": Path("cell")}),
]

TRACE = (
    '{"t":0.0,"e":"trace.meta","node":null,"schema":1,"package":"repro","package_version":@VERSION@}\n'
    '{"t":9.0,"e":"request_submitted","node":7,"msg_id":1,"kind":"broadcast","n_dests":2,"deadline":109.0,"reliable":true}\n'
    '{"t":17.0,"e":"frame_tx","node":7,"ftype":"RTS","src":7,"ra":3,"dur":14,"seq":0,"group":[3,5],"msg_id":1,"end":18.0}\n'
    '{"t":18.0,"e":"collision","node":null,"senders":[7,2],"where":"cell"}\n'
)


@pytest.mark.parametrize("to_path", [True, False], ids=["path", "handle"])
def test_trace_writer_bytes(tmp_path, to_path):
    from repro.obs.trace import JsonlTraceWriter

    path = tmp_path / "deep" / "trace.jsonl"
    target = path if to_path else io.StringIO()
    with JsonlTraceWriter(target) as writer:
        for event in EVENTS:
            writer(event)
    text = path.read_text(encoding="utf-8") if to_path else target.getvalue()
    assert text == _stamped(TRACE)
    assert writer.n_events == len(EVENTS)


def test_trace_writer_without_header(tmp_path):
    from repro.obs.trace import JsonlTraceWriter

    buf = io.StringIO()
    with JsonlTraceWriter(buf, header=False) as writer:
        writer(EVENTS[0])
    assert buf.getvalue() == _stamped(TRACE).splitlines(keepends=True)[1]


class _Job:
    """The JobResult surface the telemetry emitter reads."""

    def __init__(self, point, protocol, seed, cache_hit=False):
        self.point = point
        self.protocol = protocol
        self.seed = seed
        self.timings = {"build": 0.125, "inject": 0.0625, "simulate": 0.5}
        self.worker = 77
        self.started_at = 1000.0
        self.cache_hit = cache_hit


TELEMETRY = (
    '{"e":"telemetry.meta","tw":1700000000.0,"schema":1,"campaign":"pin","campaign_id":"pin-1700000000-4242","n_jobs":4,"point_digests":["d0"],"profile":false}\n'
    '{"e":"progress","tw":1700000000.25,"done":1,"pending":3,"total":4,"store_served":1,"cache_hits":0,"slots_done":0.0,"slots_per_sec":0.0,"elapsed_s":0.25,"eta_s":null}\n'
    '{"e":"span","tw":1700000000.75,"cell":"p0:BMMM:s1","phase":"build","t0":1000.0,"dur_s":0.125,"worker":77}\n'
    '{"e":"span","tw":1700000000.75,"cell":"p0:BMMM:s1","phase":"inject","t0":1000.125,"dur_s":0.0625,"worker":77}\n'
    '{"e":"span","tw":1700000000.75,"cell":"p0:BMMM:s1","phase":"simulate","t0":1000.1875,"dur_s":0.5,"worker":77}\n'
    '{"e":"span","tw":1700000000.75,"cell":"p0:BMMM:s1","phase":"commit","t0":1700000000.625,"dur_s":0.125,"worker":4242}\n'
    '{"e":"progress","tw":1700000000.75,"done":3,"pending":1,"total":4,"store_served":1,"cache_hits":1,"slots_done":500.0,"slots_per_sec":666.6666666666666,"elapsed_s":0.75,"eta_s":0.375}\n'
    '{"e":"worker","tw":1700000000.75,"worker":77,"jobs_done":1,"simulate_s":0.5,"last":"p0:BMMM:s1"}\n'
    '{"e":"lease.reclaimed","tw":1700000001.0,"n":2}\n'
    '{"e":"worker","tw":1700000000.0,"worker":9,"id":"host-9","jobs_done":4,"simulate_s":1.5,"last":"p0:LAMM:s0","leased":1}\n'
    '{"e":"span","tw":1700000000.0,"cell":"p0:LAMM:s0","phase":"commit","t0":1699999999.9,"dur_s":0.1,"worker":9}\n'
    '{"e":"span","tw":1700000001.25,"cell":"p0:LAMM:s2","phase":"build","t0":1000.0,"dur_s":0.125,"worker":77}\n'
    '{"e":"span","tw":1700000001.25,"cell":"p0:LAMM:s2","phase":"inject","t0":1000.125,"dur_s":0.0625,"worker":77}\n'
    '{"e":"span","tw":1700000001.25,"cell":"p0:LAMM:s2","phase":"simulate","t0":1000.1875,"dur_s":0.5,"worker":77}\n'
    '{"e":"progress","tw":1700000001.25,"done":4,"pending":0,"total":4,"store_served":1,"cache_hits":1,"slots_done":1000.0,"slots_per_sec":800.0,"elapsed_s":1.25,"eta_s":0.0}\n'
    '{"e":"worker","tw":1700000001.25,"worker":77,"jobs_done":2,"simulate_s":1.0,"last":"p0:LAMM:s2"}\n'
    '{"e":"worker","tw":1700000001.25,"worker":9,"jobs_done":4,"simulate_s":1.5,"last":"p0:LAMM:s0","id":"host-9","leased":1}\n'
    '{"e":"progress","tw":1700000001.75,"done":4,"pending":0,"total":4,"store_served":1,"cache_hits":1,"slots_done":1000.0,"slots_per_sec":571.4285714285714,"elapsed_s":1.75,"eta_s":0.0}\n'
    '{"e":"worker","tw":1700000001.75,"worker":77,"jobs_done":2,"simulate_s":1.0,"last":"p0:LAMM:s2"}\n'
    '{"e":"worker","tw":1700000001.75,"worker":9,"jobs_done":4,"simulate_s":1.5,"last":"p0:LAMM:s0","id":"host-9","leased":1}\n'
    '{"e":"end","tw":1700000001.5,"scope":"campaign","done":4,"total":4,"store_served":1,"elapsed_s":1.5,"wall_clock_s":2.5,"slots_per_sec":400.0,"store_hits":1,"cache_hits":1}\n'
)


def _drive_telemetry(target):
    from repro.obs.telemetry import CampaignTelemetry

    telemetry = CampaignTelemetry(
        target,
        campaign="pin",
        n_jobs=4,
        point_slots=[500.0],
        point_digests=["d0"],
        extra={"profile": False},
    )
    telemetry.store_scan(1, 3)
    telemetry.job_done(_Job(0, "BMMM", 0), stored=True)
    telemetry.job_done(_Job(0, "BMMM", 1, cache_hit=True), commit_s=0.125)
    telemetry.event("lease.reclaimed", n=2)
    telemetry.fold({"e": "telemetry.meta", "tw": 1.0, "schema": 1, "scope": "worker"})
    telemetry.fold(
        {
            "e": "worker",
            "tw": 1700000000.0,
            "worker": 9,
            "id": "host-9",
            "jobs_done": 4,
            "simulate_s": 1.5,
            "last": "p0:LAMM:s0",
            "leased": 1,
        }
    )
    telemetry.fold(
        {
            "e": "span",
            "tw": 1700000000.0,
            "cell": "p0:LAMM:s0",
            "phase": "commit",
            "t0": 1699999999.9,
            "dur_s": 0.1,
            "worker": 9,
        }
    )
    telemetry.fold({"e": "end", "tw": 2.0, "scope": "worker"})
    telemetry.job_done(_Job(0, "LAMM", 2))
    result = argparse.Namespace(
        wall_clock_s=2.5, slots_per_sec=400.0, store_hits=1, cache_hits=1
    )
    telemetry.close(result)
    return telemetry


@pytest.mark.parametrize("to_path", [True, False], ids=["path", "handle"])
def test_campaign_telemetry_bytes(tmp_path, fixed_clock, to_path):
    path = tmp_path / "deep" / "pin.telemetry.jsonl"
    target = path if to_path else io.StringIO()
    telemetry = _drive_telemetry(target)
    text = path.read_text(encoding="utf-8") if to_path else target.getvalue()
    assert text == TELEMETRY
    assert telemetry.n_records == TELEMETRY.count("\n")


WORKER_STREAM = (
    '{"e":"telemetry.meta","tw":1700000000.0,"schema":1,"scope":"worker","campaign":"ci","worker_id":"host-4242"}\n'
    '{"e":"worker","tw":1700000000.25,"worker":4242,"id":"host-4242","jobs_done":1,"simulate_s":0.5,"last":"p0:BMMM:s0","leased":3}\n'
    '{"e":"span","tw":1700000000.75,"cell":"p0:BMMM:s0","phase":"commit","t0":1700000000.875,"dur_s":0.125,"worker":4242}\n'
    '{"e":"worker","tw":1700000001.25,"worker":4242,"id":"host-4242","jobs_done":2,"simulate_s":1.0,"last":"p1:LAMM:s0","leased":0}\n'
    '{"e":"end","tw":1700000001.5,"scope":"worker","worker":4242,"id":"host-4242","done":2,"stolen":1,"elapsed_s":3.5}\n'
)


def test_worker_stream_bytes(tmp_path, fixed_clock):
    from repro.serve.worker import WorkerReport, _WorkerStream

    path = tmp_path / "deep" / "ci.host-4242.jsonl"
    stream = _WorkerStream(path, "ci", "host-4242")
    stream.heartbeat(jobs_done=1, simulate_s=0.5, last="p0:BMMM:s0", leased=3)
    # Throttled: inside the heartbeat interval, nothing is written.
    stream.heartbeat(jobs_done=1, simulate_s=0.5, last="p0:BMMM:s0", leased=2)
    stream.commit_span("p0:BMMM:s0", 0.125)
    stream.heartbeat(jobs_done=2, simulate_s=1.0, last="p1:LAMM:s0", leased=0, force=True)
    report = WorkerReport(
        worker_id="host-4242", campaign="ci", cells_done=2, cells_stolen=1, wall_clock_s=3.5
    )
    stream.end(report)
    assert path.read_text(encoding="utf-8") == WORKER_STREAM


# --------------------------------------------------------------------------
# JSON artifacts
# --------------------------------------------------------------------------

MANIFEST = """{
  "protocol": "BMMM",
  "seed": 3,
  "settings": {
    "n_nodes": 20,
    "phy": {
      "data_slots": [
        5
      ]
    }
  },
  "package_version": "9.9.9",
  "python_version": "3.11.0",
  "platform": "linux",
  "created_at": "2024-01-01T00:00:00+00:00",
  "wall_clock_s": 1.5,
  "timings": {
    "build": 0.25,
    "simulate": 1.25
  },
  "sim_slots": 800.0,
  "slots_per_sec": 533.3333333333334,
  "n_requests": 12,
  "counters": {
    "frames_sent.DATA": 4,
    "frames_sent.RTS": 9
  },
  "extra": {
    "experiment": "pin",
    "axis": [
      1,
      2.5
    ],
    "path": "results/x",
    "nested": {
      "none": null,
      "flag": true
    }
  }
}"""


def test_manifest_save_bytes(tmp_path):
    from repro.obs.manifest import RunManifest

    manifest = RunManifest(
        protocol="BMMM",
        seed=3,
        settings={"n_nodes": 20, "phy": {"data_slots": [5]}},
        package_version="9.9.9",
        python_version="3.11.0",
        platform="linux",
        created_at="2024-01-01T00:00:00+00:00",
        wall_clock_s=1.5,
        timings={"build": 0.25, "simulate": 1.25},
        sim_slots=800.0,
        slots_per_sec=800.0 / 1.5,
        n_requests=12,
        counters={"frames_sent.DATA": 4, "frames_sent.RTS": 9},
        extra={
            "experiment": "pin",
            "axis": (1, 2.5),
            "path": Path("results/x"),
            "nested": {"none": None, "flag": True},
        },
    )
    path = manifest.save(tmp_path / "deep" / "pin.manifest.json")
    assert path == tmp_path / "deep" / "pin.manifest.json"
    assert path.read_text() == MANIFEST


GATE = """{
  "kind": "gate-report",
  "name": "pin",
  "baseline": "baseline.json",
  "passed": false,
  "n_checks": 2,
  "n_failed": 1,
  "code": {
    "git_commit": @GIT@,
    "code_fingerprint": @FP@
  },
  "execution": {
    "store_hits": 0,
    "wall_clock_s": 0.5
  },
  "checks": [
    {
      "id": "p0:BMMM:delivery_rate",
      "kind": "metric",
      "passed": true,
      "baseline": 0.75,
      "fresh": 0.75,
      "detail": ""
    },
    {
      "id": "p0:BMMM:counters",
      "kind": "counters",
      "passed": false,
      "baseline": {
        "frames_sent.RTS": 3
      },
      "fresh": {
        "frames_sent.RTS": 4
      },
      "detail": "frames_sent.RTS: 3 -> 4"
    }
  ]
}"""


def test_gate_report_save_bytes(tmp_path):
    from repro.store.gate import GateReport, _Check

    report = GateReport(
        name="pin",
        baseline_ref="baseline.json",
        passed=False,
        checks=[
            _Check("p0:BMMM:delivery_rate", "metric", True, 0.75, 0.75),
            _Check(
                "p0:BMMM:counters",
                "counters",
                False,
                {"frames_sent.RTS": 3},
                {"frames_sent.RTS": 4},
                "frames_sent.RTS: 3 -> 4",
            ),
        ],
        execution={"store_hits": 0, "wall_clock_s": 0.5},
    )
    path = report.save(tmp_path / "deep" / "GATE_pin.json")
    assert path.read_text() == _stamped(GATE)


KERNEL_RECORD = {
    "name": "pin",
    "kind": "kernel-bench",
    "code": {"git_commit": "c0ffee", "code_fingerprint": "f00d"},
    "churn_events": 100,
    "protocol": "BMMM",
    "repeat": 1,
    "wall_clock_s": 0.75,
    "cases": {
        "timeout_churn": {
            "events": 100,
            "events_per_sec": 1000.0,
            "measured_wall_clock_s": 0.25,
        },
        "idle": {
            "slots_per_sec": 2500.0,
            "n_requests": 0,
            "sim_slots": 1000.0,
            "measured_wall_clock_s": 0.5,
        },
    },
}

KERNEL_BENCH = """{
  "name": "pin",
  "kind": "kernel-bench",
  "code": {
    "git_commit": "c0ffee",
    "code_fingerprint": "f00d"
  },
  "churn_events": 100,
  "protocol": "BMMM",
  "repeat": 1,
  "wall_clock_s": 0.75,
  "cases": {
    "timeout_churn": {
      "events": 100,
      "events_per_sec": 1000.0,
      "measured_wall_clock_s": 0.25
    },
    "idle": {
      "slots_per_sec": 2500.0,
      "n_requests": 0,
      "sim_slots": 1000.0,
      "measured_wall_clock_s": 0.5
    }
  }
}"""


def test_kernel_bench_bytes(tmp_path, monkeypatch, capsys):
    """``repro-mac bench-kernel`` writes the record it measured verbatim."""
    import repro.experiments.benchkernel as benchkernel
    from repro.cli import main

    monkeypatch.setattr(benchkernel, "kernel_bench_record", lambda *a, **k: KERNEL_RECORD)
    assert main(["bench-kernel", "--name", "pin", "--out", str(tmp_path / "deep")]) == 0
    assert (tmp_path / "deep" / "BENCH_pin.json").read_text() == KERNEL_BENCH


SWEEP_BENCH = """{
  "name": "pin",
  "kind": "sweep-bench",
  "code": {
    "git_commit": @GIT@,
    "code_fingerprint": @FP@
  },
  "grid": {
    "protocols": [
      "BMMM"
    ],
    "n_points": 1,
    "n_seeds": 1,
    "n_jobs": 1
  },
  "processes": 1,
  "chunksize": 1,
  "wall_clock_s": 2.0,
  "timings": {
    "build": 0.25,
    "inject": 0.25,
    "simulate": 1.0,
    "dispatch": 1.5
  },
  "sim_slots": 300.0,
  "slots_per_sec": 150.0,
  "slots_per_sec_simulate_phase": 300.0,
  "store_served": false,
  "cache": {
    "hits": 0,
    "misses": 1,
    "hit_rate": 0.0
  },
  "store": {
    "path": null,
    "hits": 0,
    "misses": 0
  }
}"""


def test_grid_results_and_sweep_bench_bytes(tmp_path, capsys):
    """The grid tail writes ``<name>.json`` as indented JSON of the result
    and ``BENCH_<name>.json`` as the sweep bench record."""
    from repro.cli import _finish_grid
    from repro.experiments.config import SimulationSettings
    from repro.experiments.scenario import Scenario
    from repro.experiments.sweep import run_sweep

    point = SimulationSettings(n_nodes=10, horizon=300)
    result = run_sweep(
        Scenario(settings=point, protocols=("BMMM",), seeds=(0,)), [point], processes=1
    )
    result = dataclasses.replace(
        result,
        wall_clock_s=2.0,
        timings={"build": 0.25, "inject": 0.25, "simulate": 1.0, "dispatch": 1.5},
    )
    out = tmp_path / "deep"
    assert _finish_grid(argparse.Namespace(name="pin", out=str(out)), result, "nodes", [10]) == 0
    assert (out / "pin.json").read_text() == json.dumps(result.as_dict(), indent=2)
    assert (out / "BENCH_pin.json").read_text() == _stamped(SWEEP_BENCH)


FIGURE = """{
  "name": "pin",
  "xlabel": "nodes",
  "ylabel": "delivery",
  "xs": [
    20,
    40
  ],
  "series": {
    "BMMM": [
      0.5,
      0.25
    ]
  },
  "meta": {
    "seeds": [
      0,
      1
    ],
    "timeline": [
      [
        1,
        "RTS"
      ]
    ]
  }
}"""


def test_figure_json_bytes(tmp_path):
    from repro.experiments.figures import FigureResult
    from repro.experiments.report import save_json

    result = FigureResult(
        name="pin",
        xlabel="nodes",
        ylabel="delivery",
        xs=[20, 40],
        series={"BMMM": [0.5, 0.25]},
        meta={"seeds": [0, 1], "timeline": [(1, "RTS")]},
    )
    path = save_json(result, tmp_path / "deep")
    assert path == tmp_path / "deep" / "pin.json"
    assert path.read_text() == FIGURE

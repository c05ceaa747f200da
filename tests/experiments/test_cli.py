"""Tests for the CLI and report rendering."""

import json

import pytest

from repro.cli import (
    EXPERIMENTS,
    build_faults_parser,
    build_gate_parser,
    build_parser,
    build_sweep_parser,
    build_trace_parser,
    build_watch_parser,
    main,
)
from repro.experiments.config import SIMULATED_PROTOCOLS
from repro.experiments.figures import FigureResult, figure5, table1
from repro.experiments.report import (
    format_counters,
    format_figure,
    format_table1,
    save_json,
)


class TestParser:
    def test_all_experiments_listed(self):
        for name in ("table1", "figure2", "figure5", "figure6a", "figure10b"):
            assert name in EXPERIMENTS

    def test_parses_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.experiment == "table1"
        assert args.seeds == 3

    def test_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure99"])


class TestMain:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "BSMA" in out and "(paper)" in out

    def test_figure5_with_json_output(self, tmp_path, capsys):
        assert main(["figure5", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "figure5.json").read_text())
        assert payload["name"] == "figure5"
        assert "BMW" in payload["series"]

    def test_table1_with_json_output(self, tmp_path, capsys):
        assert main(["table1", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "table1.json").read_text())
        assert payload["name"] == "table1"
        assert set(payload["series"]) >= {"BMMM", "LAMM", "BMW", "BSMA"}

    def test_figure2_with_json_output(self, tmp_path, capsys):
        assert main(["figure2", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "figure2.json").read_text())
        assert payload["name"] == "figure2"

    def test_all_runs_one_campaign(self, tmp_path, capsys, monkeypatch):
        """``all`` hands every simulated figure to one ``run_figures``
        call and files all eleven experiments."""
        from repro.experiments import figures as F

        calls = []

        def fake(names, *, seeds, processes):
            calls.append((list(names), list(seeds), processes))
            return {n: FigureResult(n, "x", "y", [1.0], {"BMW": [0.5]}) for n in names}

        monkeypatch.setattr(F, "run_figures", fake)
        assert main(["all", "--seeds", "2", "--jobs", "3", "--out", str(tmp_path)]) == 0
        assert calls == [(sorted(F.FIGURES), [0, 1], 3)]
        for name in EXPERIMENTS:
            assert json.loads((tmp_path / f"{name}.json").read_text())["name"] == name
            assert (tmp_path / f"{name}.manifest.json").is_file()

    def test_out_writes_manifest(self, tmp_path, capsys):
        from repro.obs.manifest import load_manifest

        assert main(["table1", "--out", str(tmp_path)]) == 0
        manifest = load_manifest(tmp_path / "table1.manifest.json")
        assert manifest.extra["experiment"] == "table1"
        assert manifest.package_version
        assert "compute" in manifest.timings

    def test_profile_flag_prints_timings(self, capsys):
        assert main(["table1", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "table1 profile" in out and "compute" in out


class TestReport:
    def test_format_figure_contains_series(self):
        text = format_figure(figure5(5))
        assert "BMW" in text and "BMMM" in text
        assert "figure5" in text

    def test_format_table1(self):
        text = format_table1(table1())
        assert text.count("(paper)") == 2

    def test_save_json_roundtrip(self, tmp_path):
        r = FigureResult("t", "x", "y", [1.0], {"A": [0.5]}, meta={"k": 1})
        path = save_json(r, tmp_path)
        data = json.loads(path.read_text())
        assert data["series"]["A"] == [0.5]
        assert data["meta"]["k"] == 1

    def test_format_counters(self):
        out = format_counters({"collisions": 4, "frames_sent.DATA": 10})
        lines = out.splitlines()
        assert lines[0] == "== counters =="
        assert any("collisions" in l and "4" in l for l in lines)
        assert "(none)" in format_counters({})


class TestCliFlags:
    def test_jobs_flag_parsed(self):
        args = build_parser().parse_args(["figure6a", "--jobs", "4"])
        assert args.jobs == 4

    def test_chart_flag(self, capsys):
        assert main(["figure5", "--chart"]) == 0
        out = capsys.readouterr().out
        assert "o=BMW" in out  # the ASCII chart rendered

    def test_report_choice_accepted(self):
        args = build_parser().parse_args(["report"])
        assert args.experiment == "report"


class TestLaneDiagramTruncation:
    def test_max_width_truncates(self):
        from repro.obs.trace import lane_diagram
        from repro.sim.channel import Transmission
        from repro.sim.frames import Frame, FrameType

        f = Frame(FrameType.RTS, src=0, ra=1)
        txs = [Transmission(f, 0, i * 10, i * 10 + 1) for i in range(50)]
        out = lane_diagram(txs, max_width=40)
        lane = next(l for l in out.splitlines() if l.startswith("node"))
        assert len(lane) <= len("node   0 |") + 40 + 1

    def test_truncation_marker_present(self):
        from repro.obs.trace import lane_diagram
        from repro.sim.channel import Transmission
        from repro.sim.frames import Frame, FrameType

        f = Frame(FrameType.RTS, src=0, ra=1)
        txs = [Transmission(f, 0, i * 10, i * 10 + 1) for i in range(50)]
        out = lane_diagram(txs, max_width=40)
        # 491 total slots, 40 shown -> 451 hidden, called out explicitly
        assert out.splitlines()[-1] == "… (+451 slots truncated)"

    def test_no_marker_when_window_fits(self):
        from repro.obs.trace import lane_diagram
        from repro.sim.channel import Transmission
        from repro.sim.frames import Frame, FrameType

        f = Frame(FrameType.RTS, src=0, ra=1)
        out = lane_diagram([Transmission(f, 0, 0, 1)], max_width=40)
        assert "truncated" not in out


class TestTraceSubcommand:
    def test_parser_defaults(self):
        args = build_trace_parser().parse_args(["figure6a"])
        assert args.figure == "figure6a"
        assert args.seed == 0 and args.protocol == "BMMM"

    def test_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            build_trace_parser().parse_args(["table1"])

    def test_trace_smoke(self, tmp_path, capsys):
        """End-to-end: run, dump JSONL + manifest, render lanes."""
        from repro.obs.manifest import load_manifest
        from repro.obs.trace import load_trace

        code = main(
            [
                "trace", "figure6a",
                "--seed", "1",
                "--protocol", "LAMM",
                "--nodes", "15",
                "--horizon", "600",
                "--rate", "0.004",
                "--out", str(tmp_path),
                "--profile",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "slots" in out  # lane diagram header
        assert "run counters" in out and "run profile" in out
        stem = "trace_figure6a_LAMM_seed1"
        events = load_trace(tmp_path / f"{stem}.jsonl")
        assert events and any(e.etype == "frame_tx" for e in events)
        manifest = load_manifest(tmp_path / f"{stem}.manifest.json")
        assert manifest.protocol == "LAMM" and manifest.seed == 1
        assert manifest.settings["n_nodes"] == 15
        assert manifest.extra["figure"] == "figure6a"


class TestSweepSubcommand:
    def test_parser_defaults(self):
        args = build_sweep_parser().parse_args([])
        assert args.axis == "nodes"
        assert args.protocols.split(",") == list(SIMULATED_PROTOCOLS)
        assert args.seeds == 3 and args.jobs == 0
        assert args.horizon is None
        assert args.name == "sweep" and args.out == "results"

    def test_rejects_unknown_axis(self):
        with pytest.raises(SystemExit):
            build_sweep_parser().parse_args(["--axis", "frobnicate"])

    def test_sweep_smoke(self, tmp_path, capsys):
        """End-to-end: tiny grid, table + result/manifest/bench files."""
        from repro.obs.manifest import load_manifest

        code = main(
            [
                "sweep",
                "--axis", "nodes",
                "--values", "12,16",
                "--protocols", "BMMM,LAMM",
                "--seeds", "2",
                "--jobs", "1",
                "--horizon", "500",
                "--name", "smoke",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "nodes = 12" in out and "nodes = 16" in out
        assert "BMMM" in out and "LAMM" in out
        assert "world cache" in out

        payload = json.loads((tmp_path / "smoke.json").read_text())
        assert len(payload["points"]) == 2
        manifest = load_manifest(tmp_path / "smoke.manifest.json")
        assert manifest.extra["experiment"] == "smoke"
        assert manifest.counters  # merged over every cell
        bench = json.loads((tmp_path / "BENCH_smoke.json").read_text())
        assert bench["kind"] == "sweep-bench"
        assert bench["grid"]["n_jobs"] == 2 * 2 * 2


class TestStoreFlagAndGateSubcommand:
    def test_sweep_parser_accepts_store(self):
        args = build_sweep_parser().parse_args(["--store", "s.sqlite"])
        assert args.store == "s.sqlite"
        assert build_faults_parser().parse_args([]).store is None

    def test_gate_parser_defaults(self):
        args = build_gate_parser().parse_args(["--baseline", "b.json"])
        assert args.baseline == "b.json"
        assert args.store is None and args.jobs == 0
        assert args.metric_tol == 0.0 and args.bench_tol == 0.25
        assert not args.no_counters
        assert args.name == "gate" and args.out == "results"

    def test_gate_requires_baseline(self):
        with pytest.raises(SystemExit):
            build_gate_parser().parse_args([])

    def test_sweep_store_then_gate_smoke(self, tmp_path, capsys):
        """The CI store-smoke recipe end to end: sweep twice against one
        store (second pass 100% served), then gate the second pass
        against the first pass's results JSON."""
        store = str(tmp_path / "store.sqlite")
        argv = [
            "sweep",
            "--axis", "nodes",
            "--values", "12,16",
            "--protocols", "BMMM,LAMM",
            "--seeds", "2",
            "--jobs", "1",
            "--horizon", "500",
            "--name", "smoke",
            "--out", str(tmp_path),
            "--store", store,
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert f"[store {store}: 0 cells served, 8 computed]" in first

        assert main(argv) == 0
        second = capsys.readouterr().out
        assert f"[store {store}: 8 cells served, 0 computed]" in second

        bench = json.loads((tmp_path / "BENCH_smoke.json").read_text())
        assert bench["store"] == {"path": store, "hits": 8, "misses": 0}
        assert len(bench["code"]["code_fingerprint"]) == 64

        code = main(
            [
                "gate",
                "--baseline", str(tmp_path / "smoke.json"),
                "--store", store,
                "--jobs", "1",
                "--name", "smokegate",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        report = json.loads((tmp_path / "GATE_smokegate.json").read_text())
        assert report["passed"] is True
        assert report["execution"]["store_hits"] == 8
        bench_check = next(
            c for c in report["checks"] if c["id"] == "bench.slots_per_sec"
        )
        assert "served from store" in bench_check["detail"]

    def test_gate_fails_on_tampered_baseline(self, tmp_path, capsys):
        argv = [
            "sweep",
            "--axis", "nodes",
            "--values", "12",
            "--protocols", "BMMM",
            "--seeds", "2",
            "--jobs", "1",
            "--horizon", "400",
            "--name", "base",
            "--out", str(tmp_path),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        baseline_path = tmp_path / "base.json"
        payload = json.loads(baseline_path.read_text())
        payload["points"][0]["metrics"]["BMMM"]["delivery_rate"] = 0.123456
        baseline_path.write_text(json.dumps(payload))
        code = main(
            [
                "gate",
                "--baseline", str(baseline_path),
                "--jobs", "1",
                "--out", str(tmp_path),
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL point0.BMMM.delivery_rate" in out


class TestFaultsSubcommand:
    def test_parser_defaults(self):
        args = build_faults_parser().parse_args([])
        assert args.axis == "burst" and args.values is None
        assert args.burst_loss == 0.2 and args.base_burst == 0.0
        assert args.seeds == 3 and args.give_up == 0
        assert args.name == "faults" and args.out == "results"

    def test_rejects_unknown_axis(self):
        with pytest.raises(SystemExit):
            build_faults_parser().parse_args(["--axis", "gremlins"])

    def test_faults_smoke(self, tmp_path, capsys):
        """End-to-end degradation sweep: churn axis on top of a fixed
        burst, table + fault counters + result/manifest/bench files --
        the same invocation the CI faults-smoke job runs."""
        from repro.obs.manifest import load_manifest

        code = main(
            [
                "faults",
                "--axis", "churn",
                "--values", "0,0.002",
                "--base-burst", "8",
                "--protocols", "BMMM,LAMM",
                "--seeds", "2",
                "--jobs", "1",
                "--horizon", "600",
                "--nodes", "20",
                "--name", "faults",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "churn = 0" in out and "churn = 0.002" in out
        assert "burst_losses" in out  # base burst active at every point
        assert "crashes" in out  # churn active at the second point

        payload = json.loads((tmp_path / "faults.json").read_text())
        assert len(payload["points"]) == 2
        assert payload["fault_axis"] == {"axis": "churn", "values": [0.0, 0.002]}
        manifest = load_manifest(tmp_path / "faults.manifest.json")
        assert manifest.extra["fault_axis"] == "churn"
        assert manifest.counters["faults.burst_losses"] > 0
        assert manifest.counters["faults.crashes"] > 0
        bench = json.loads((tmp_path / "BENCH_faults.json").read_text())
        assert bench["kind"] == "sweep-bench"
        assert bench["grid"]["n_jobs"] == 2 * 2 * 2


class TestTelemetryFlagsAndWatch:
    SWEEP_ARGS = [
        "sweep",
        "--axis", "nodes",
        "--values", "12",
        "--protocols", "BMMM,LAMM",
        "--seeds", "2",
        "--jobs", "1",
        "--horizon", "500",
        "--name", "obs",
    ]

    def test_parser_accepts_flags(self):
        args = build_sweep_parser().parse_args(
            ["--telemetry", "t.jsonl", "--mac-profile"]
        )
        assert args.telemetry == "t.jsonl" and args.mac_profile
        args = build_faults_parser().parse_args([])
        assert args.telemetry is None and not args.mac_profile

    def test_watch_parser_defaults(self):
        args = build_watch_parser().parse_args(["t.jsonl"])
        assert args.stream == "t.jsonl"
        assert not args.once and args.interval == 1.0

    def test_sweep_telemetry_profile_then_watch(self, tmp_path, capsys):
        """The CI telemetry-smoke recipe: instrumented sweep, then a
        post-hoc `watch --once` render of the stream it wrote."""
        from repro.obs.manifest import load_manifest
        from repro.obs.telemetry import load_telemetry

        stream_path = tmp_path / "obs.telemetry.jsonl"
        code = main(
            self.SWEEP_ARGS
            + [
                "--out", str(tmp_path),
                "--telemetry", str(stream_path),
                "--mac-profile",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "MAC phase profile" in out
        assert f"[telemetry {stream_path}]" in out

        stream = load_telemetry(stream_path)
        assert stream.completed and not stream.truncated
        assert stream.meta["campaign"] == "obs"
        # Spans reproduce the manifest's per-phase timings.
        manifest = load_manifest(tmp_path / "obs.manifest.json")
        simulate = sum(
            s["dur_s"] for s in stream.spans() if s["phase"] == "simulate"
        )
        assert simulate == pytest.approx(manifest.timings["simulate"], rel=1e-6)
        assert manifest.extra["span_summary"]["n_spans"] == len(stream.spans())
        assert manifest.extra["telemetry"] == str(stream_path)
        assert set(manifest.extra["mac_profile"]) == {"BMMM", "LAMM"}

        assert main(["watch", str(stream_path), "--once"]) == 0
        rendered = capsys.readouterr().out
        assert "campaign 'obs'" in rendered
        assert "completed" in rendered
        assert "4/4 cells" in rendered

    def test_watch_renders_interrupted_stream(self, tmp_path, capsys):
        from repro.obs.telemetry import CampaignTelemetry

        path = tmp_path / "t.jsonl"
        with pytest.raises(RuntimeError):
            with CampaignTelemetry(path, campaign="dead", n_jobs=5):
                raise RuntimeError("killed before any end record")
        with path.open("a") as fh:
            fh.write('{"e": "prog')  # and mid-write on the final line
        assert main(["watch", str(path), "--once"]) == 0
        out = capsys.readouterr().out
        assert "interrupted" in out

    def test_watch_follows_until_end(self, tmp_path, capsys):
        from repro.obs.telemetry import CampaignTelemetry

        path = tmp_path / "t.jsonl"
        telemetry = CampaignTelemetry(path, campaign="live", n_jobs=0)
        telemetry.close()
        # Completed stream: follow mode renders once and exits immediately.
        assert main(["watch", str(path)]) == 0
        assert "completed" in capsys.readouterr().out


class TestOneLineErrors:
    """Satellite: user errors exit nonzero with one stderr line, no trace."""

    def test_unknown_protocol_in_trace(self, capsys):
        code = main(["trace", "figure6a", "--protocol", "NOPE"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-mac: error: unknown protocol 'NOPE'")
        assert "Traceback" not in err

    def test_unknown_protocol_in_sweep(self, capsys):
        code = main(
            ["sweep", "--protocols", "NOPE", "--seeds", "1", "--jobs", "1",
             "--values", "12", "--horizon", "400"]
        )
        assert code == 2
        assert "unknown protocol" in capsys.readouterr().err

    def test_unknown_rate_profile(self, capsys):
        code = main(["rate-sweep", "--profiles", "single,warp", "--seeds", "1", "--jobs", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-mac: error: unknown rate profile(s) ['warp']")

    def test_gate_missing_baseline(self, capsys):
        code = main(["gate", "--baseline", "does/not/exist.json"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-mac: error:")
        assert "does/not/exist.json" in err

    def test_gate_malformed_baseline(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["gate", "--baseline", str(bad)])
        assert code == 2
        assert capsys.readouterr().err.startswith("repro-mac: error:")

    def test_watch_missing_stream(self, capsys):
        code = main(["watch", "does/not/exist.jsonl"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-mac: error: no telemetry stream")


class TestServeWorkSubcommands:
    """The distributed campaign service CLI (ISSUE 9).

    The full coordinator + spawned-worker path is exercised by
    ``tests/serve/test_service.py`` and the CI serve-smoke job; here we
    pin the parsers, the user-error paths, and the no-worker case
    (serving a fully warm store).
    """

    def test_serve_parser_defaults(self):
        from repro.cli import build_serve_parser

        args = build_serve_parser().parse_args(["--store", "s.sqlite"])
        assert args.store == "s.sqlite"
        assert args.workers == 0
        assert args.lease_ttl == 30.0
        assert args.wait_timeout is None
        assert args.name == "serve"

    def test_serve_requires_store(self):
        from repro.cli import build_serve_parser

        with pytest.raises(SystemExit):
            build_serve_parser().parse_args([])

    def test_work_parser_requires_store_and_campaign(self):
        from repro.cli import build_work_parser

        with pytest.raises(SystemExit):
            build_work_parser().parse_args(["--store", "s.sqlite"])
        args = build_work_parser().parse_args(
            ["--store", "s.sqlite", "--campaign", "c"]
        )
        assert args.campaign == "c"
        assert args.idle_timeout is None

    def test_work_missing_store_is_a_user_error(self, capsys):
        code = main(["work", "--store", "missing.sqlite", "--campaign", "c"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-mac: error: no results store")

    def test_serve_on_warm_store_needs_no_workers(self, tmp_path, capsys):
        """A sweep warms the store; serve over the same grid merges pure
        hits -- the whole CLI path without spawning a single worker."""
        grid = [
            "--axis", "nodes", "--values", "12,16",
            "--protocols", "BMMM,LAMM", "--seeds", "2", "--horizon", "500",
        ]
        store = str(tmp_path / "store.sqlite")
        assert main(
            ["sweep", *grid, "--jobs", "1", "--store", store,
             "--name", "warm", "--out", str(tmp_path)]
        ) == 0
        capsys.readouterr()
        code = main(
            ["serve", *grid, "--store", store, "--wait-timeout", "5",
             "--name", "served", "--out", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "8 cells served, 0 computed" in out
        assert "campaign served" in out and "0 leases reclaimed" in out
        a = json.loads((tmp_path / "warm.json").read_text())
        b = json.loads((tmp_path / "served.json").read_text())
        assert json.dumps(a["points"], sort_keys=True) == json.dumps(
            b["points"], sort_keys=True
        )

    def test_serve_stall_is_a_user_error(self, tmp_path, capsys):
        code = main(
            ["serve", "--store", str(tmp_path / "s.sqlite"), "--values", "12",
             "--protocols", "BMMM", "--seeds", "1", "--horizon", "400",
             "--wait-timeout", "0.2", "--out", str(tmp_path)]
        )
        assert code == 2
        assert "stalled" in capsys.readouterr().err


class TestStoreSubcommand:
    def _warm_store(self, tmp_path):
        from repro.store.db import ResultStore

        path = tmp_path / "s.sqlite"
        with ResultStore(path) as store:
            store.put("d" * 64, "BMMM", 0, {"x": 1}, fingerprint="f" * 64)
            store.put("d" * 64, "LAMM", 0, {"x": 2}, fingerprint="f" * 64)
            store.put("d" * 64, "BMMM", 1, {"x": 3}, fingerprint="0" * 64)
        return path

    def test_store_parser_actions(self):
        from repro.cli import build_store_parser

        args = build_store_parser().parse_args(["stats", "s.sqlite", "--json"])
        assert args.action == "stats" and args.json
        with pytest.raises(SystemExit):
            build_store_parser().parse_args(["explode", "s.sqlite"])

    def test_stats_reports_breakdown(self, tmp_path, capsys):
        path = self._warm_store(tmp_path)
        assert main(["store", "stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "cells: 3 across 2 fingerprint(s)" in out
        assert "BMMM=2" in out and "LAMM=1" in out
        assert "queue: empty" in out

    def test_stats_json(self, tmp_path, capsys):
        path = self._warm_store(tmp_path)
        assert main(["store", "stats", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_results"] == 3
        assert payload["by_protocol"] == {"BMMM": 2, "LAMM": 1}

    def test_prune_with_vacuum(self, tmp_path, capsys):
        path = self._warm_store(tmp_path)
        code = main(
            ["store", "prune", str(path), "--keep-fingerprint", "f" * 64,
             "--vacuum"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "[pruned 1 stale-fingerprint cell(s)]" in out
        assert "[vacuum:" in out

    def test_vacuum_reports_sizes(self, tmp_path, capsys):
        path = self._warm_store(tmp_path)
        assert main(["store", "vacuum", str(path)]) == 0
        assert "[vacuum:" in capsys.readouterr().out

    def test_missing_store_is_a_user_error(self, capsys):
        code = main(["store", "stats", "missing.sqlite"])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "repro-mac: error: no results store"
        )


#: The full option surface of every ``build_*_parser``: per parser, one
#: ``dest -> (option strings, default, required, choices)`` entry for each
#: argument.  Refactors of the CLI must leave this table untouched.
_PAPER = "BMW,BSMA,BMMM,LAMM"
_FIGURES = (
    "figure10a", "figure10b", "figure6a", "figure6b",
    "figure7", "figure8", "figure9a", "figure9b",
)
CLI_SURFACE = {
    "build_parser": {
        "experiment": (
            (), None, True,
            ("figure2", "figure5", "table1") + _FIGURES + ("all", "report"),
        ),
        "seeds": (("--seeds",), 3, False, None),
        "out": (("--out",), None, False, None),
        "chart": (("--chart",), False, False, None),
        "jobs": (("--jobs",), 1, False, None),
        "profile": (("--profile",), False, False, None),
    },
    "build_trace_parser": {
        "figure": ((), None, True, _FIGURES),
        "seed": (("--seed",), 0, False, None),
        "protocol": (("--protocol",), "BMMM", False, None),
        "out": (("--out",), "results", False, None),
        "nodes": (("--nodes",), None, False, None),
        "horizon": (("--horizon",), None, False, None),
        "rate": (("--rate",), None, False, None),
        "lane_width": (("--lane-width",), 120, False, None),
        "profile": (("--profile",), False, False, None),
    },
    "build_sweep_parser": {
        "axis": (("--axis",), "nodes", False, ("nodes", "rate", "timeout")),
        "values": (("--values",), None, False, None),
        "protocols": (("--protocols",), _PAPER, False, None),
        "seeds": (("--seeds",), 3, False, None),
        "jobs": (("--jobs",), 0, False, None),
        "horizon": (("--horizon",), None, False, None),
        "name": (("--name",), "sweep", False, None),
        "out": (("--out",), "results", False, None),
        "store": (("--store",), None, False, None),
        "telemetry": (("--telemetry",), None, False, None),
        "mac_profile": (("--mac-profile",), False, False, None),
    },
    "build_rate_sweep_parser": {
        "profiles": (("--profiles",), "single,mild,aggressive", False, None),
        "protocols": (("--protocols",), "LAMM,RAM", False, None),
        "seeds": (("--seeds",), 3, False, None),
        "jobs": (("--jobs",), 0, False, None),
        "nodes": (("--nodes",), None, False, None),
        "horizon": (("--horizon",), None, False, None),
        "name": (("--name",), "rate", False, None),
        "out": (("--out",), "results", False, None),
        "store": (("--store",), None, False, None),
        "telemetry": (("--telemetry",), None, False, None),
        "mac_profile": (("--mac-profile",), False, False, None),
    },
    "build_faults_parser": {
        "axis": (("--axis",), "burst", False, ("burst", "churn", "sigma")),
        "values": (("--values",), None, False, None),
        "burst_loss": (("--burst-loss",), 0.2, False, None),
        "base_burst": (("--base-burst",), 0.0, False, None),
        "downtime": (("--downtime",), 200.0, False, None),
        "give_up": (("--give-up",), 0, False, None),
        "protocols": (("--protocols",), _PAPER, False, None),
        "seeds": (("--seeds",), 3, False, None),
        "jobs": (("--jobs",), 0, False, None),
        "nodes": (("--nodes",), None, False, None),
        "rate": (("--rate",), None, False, None),
        "horizon": (("--horizon",), None, False, None),
        "name": (("--name",), "faults", False, None),
        "out": (("--out",), "results", False, None),
        "store": (("--store",), None, False, None),
        "telemetry": (("--telemetry",), None, False, None),
        "mac_profile": (("--mac-profile",), False, False, None),
    },
    "build_gate_parser": {
        "baseline": (("--baseline",), None, True, None),
        "store": (("--store",), None, False, None),
        "jobs": (("--jobs",), 0, False, None),
        "metric_tol": (("--metric-tol",), 0.0, False, None),
        "bench_tol": (("--bench-tol",), 0.25, False, None),
        "no_counters": (("--no-counters",), False, False, None),
        "name": (("--name",), "gate", False, None),
        "out": (("--out",), "results", False, None),
    },
    "build_bench_kernel_parser": {
        "churn_events": (("--churn-events",), 200_000, False, None),
        "protocol": (("--protocol",), "BMMM", False, None),
        "name": (("--name",), "kernel", False, None),
        "repeat": (("--repeat",), 1, False, None),
        "out": (("--out",), "results", False, None),
    },
    "build_watch_parser": {
        "stream": ((), None, True, None),
        "once": (("--once",), False, False, None),
        "interval": (("--interval",), 1.0, False, None),
    },
    "build_serve_parser": {
        "store": (("--store",), None, True, None),
        "axis": (("--axis",), "nodes", False, ("nodes", "rate", "timeout")),
        "values": (("--values",), None, False, None),
        "protocols": (("--protocols",), _PAPER, False, None),
        "seeds": (("--seeds",), 3, False, None),
        "horizon": (("--horizon",), None, False, None),
        "workers": (("--workers",), 0, False, None),
        "lease_ttl": (("--lease-ttl",), 30.0, False, None),
        "poll": (("--poll",), 0.5, False, None),
        "wait_timeout": (("--wait-timeout",), None, False, None),
        "name": (("--name",), "serve", False, None),
        "out": (("--out",), "results", False, None),
        "telemetry": (("--telemetry",), None, False, None),
        "mac_profile": (("--mac-profile",), False, False, None),
    },
    "build_work_parser": {
        "store": (("--store",), None, True, None),
        "campaign": (("--campaign",), None, True, None),
        "id": (("--id",), None, False, None),
        "lease_ttl": (("--lease-ttl",), 30.0, False, None),
        "poll": (("--poll",), 0.2, False, None),
        "max_cells": (("--max-cells",), None, False, None),
        "idle_timeout": (("--idle-timeout",), None, False, None),
    },
    "build_store_parser": {
        "action": ((), None, True, ("stats", "prune", "vacuum")),
        "store": ((), None, True, None),
        "json": (("--json",), False, False, None),
        "keep_fingerprint": (("--keep-fingerprint",), None, False, None),
        "also_vacuum": (("--vacuum",), False, False, None),
    },
}


@pytest.mark.parametrize("builder", sorted(CLI_SURFACE))
def test_cli_surface_is_pinned(builder):
    """Every flag, default, ``required=`` setting and choice list of every
    parser, compared against the literal table above."""
    import repro.cli

    parser = getattr(repro.cli, builder)()
    surface = {
        action.dest: (
            tuple(action.option_strings),
            action.default,
            action.required,
            tuple(action.choices) if action.choices is not None else None,
        )
        for action in parser._actions
        if action.dest != "help"
    }
    assert surface == CLI_SURFACE[builder]


def test_cli_surface_covers_every_parser():
    import repro.cli

    builders = {n for n in repro.cli.__all__ if n.startswith("build_")}
    assert builders == set(CLI_SURFACE)

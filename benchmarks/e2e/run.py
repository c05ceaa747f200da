"""Campaign benchmark: five named workloads through the public sweep API.

One run of one workload (what ``BENCHMARK.json``'s command does)::

    python3 benchmarks/e2e/run.py --workload saturated --seed 0 --seconds 15 --trace 0

prints each metric by name and unit, then, as its last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` wraps every layer boundary
and reports the per-layer metrics instead.

A set of runs, every workload in its own fresh subprocess, one after
another, in alternating order::

    PYTHONPATH=src python benchmarks/e2e/run.py --seed 0 --runs 5 --out DIR [--trace]

writes ``DIR/<name>.json`` (medians and quartiles per workload and metric,
with provenance).  Two sets compare with::

    python benchmarks/e2e/run.py compare A.json B.json

which exits 1 when a metric regressed by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = ROOT / "BENCHMARK.json"


def load_spec() -> dict:
    return json.loads(SPEC.read_text())


def _require_sources() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"run.py: no repro sources under {ROOT / 'src'}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))


# --------------------------------------------------------------------------
# One workload run
# --------------------------------------------------------------------------


def run_one(args) -> int:
    _require_sources()
    import campaign

    if args.workload not in campaign.WORKLOADS:
        sys.exit(f"run.py: unknown workload {args.workload!r}; choose from {sorted(campaign.WORKLOADS)}")
    report = campaign.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    result = report["result"]
    print(
        f"{args.workload} seed={args.seed} trace={args.trace} passes={len(report['passes'])}"
        f" cells={result['attempted']} failed={result['failed']}"
        f" result_digest={report['result_digest']}"
    )
    for p in report["passes"]:
        for problem in p["problems"]:
            print(f"  check failed: {problem}")
    for name, m in result["metrics"].items():
        print(f"  {name:<30} {m['value']:>14.6g} {m['unit']}")
    if report["slots_per_s"] is not None:
        print(f"  ({'slots_per_s':<29} {report['slots_per_s']:>14.6g} 1/s)")
    if report["slowness"] is not None:
        print(f"  (host {report['slowness']:.3g}x slower than the reference host;"
              f" {report['host_cells_per_s']:.6g} cells per host second)")
    if args.report:
        Path(args.report).write_text(json.dumps(report, indent=1, default=str))
    print(json.dumps(result))
    return 0


# --------------------------------------------------------------------------
# A set of runs
# --------------------------------------------------------------------------


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def provenance() -> dict:
    """Where a set was measured: code identity and host."""
    from repro.store.digests import code_fingerprint, git_commit

    cpu = platform.processor() or None
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "git_commit": git_commit(),
        "code_fingerprint": code_fingerprint(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu,
    }


def _run_summary(report: dict) -> dict:
    """What a set keeps of one run: its result line, timings and layers."""
    passes = report["passes"]
    return {
        "result": report["result"],
        "result_digest": report["result_digest"],
        "slots_per_s": report["slots_per_s"],
        "slowness": report["slowness"],
        "host_cells_per_s": report["host_cells_per_s"],
        "import_s": report["import_s"],
        "fixture_s": report["fixture_s"],
        "pass_wall_s": [p["wall_s"] for p in passes],
        "problems": [msg for p in passes for msg in p["problems"]],
        "layers": report["layers"],
    }


def run_set(args) -> int:
    _require_sources()
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    trace = 1 if args.trace else 0
    runs: dict[str, list[dict]] = {name: [] for name in names}
    (HERE / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / ".work") as tmp:
        for r in range(args.runs):
            for name in names if r % 2 == 0 else reversed(names):
                report_path = Path(tmp) / f"{name}-{r}.json"
                cmd = [
                    sys.executable, str(HERE / "run.py"), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(seconds),
                    "--trace", str(trace), "--report", str(report_path),
                ]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
                sys.stdout.write(proc.stdout)
                if proc.returncode != 0:
                    sys.stderr.write(proc.stderr)
                    sys.exit(f"run.py: {name} run {r} exited {proc.returncode}")
                runs[name].append(json.loads(report_path.read_text()))
    out = {"kind": "e2e-bench-set", "provenance": provenance(), "seed": args.seed,
           "seconds": seconds, "trace": bool(trace), "workloads": {}}
    for name, reports in runs.items():
        summary = {}
        for metric, unit in ((m, r["result"]["metrics"][m]["unit"]) for r in reports[:1]
                             for m in r["result"]["metrics"]):
            values = [r["result"]["metrics"][metric]["value"] for r in reports]
            q1, med, q3 = _quartiles(values)
            summary[metric] = {"unit": unit, "median": med, "q1": q1, "q3": q3, "values": values}
        attempted = sum(r["result"]["attempted"] for r in reports)
        failed = sum(r["result"]["failed"] for r in reports)
        out["workloads"][name] = {
            "metrics": summary,
            "fail_rate": failed / attempted,
            "attempted": attempted,
            "result_digests": sorted({r["result_digest"] for r in reports}),
            "runs": [_run_summary(r) for r in reports],
        }
    Path(args.out).mkdir(parents=True, exist_ok=True)
    path = Path(args.out) / f"{args.name}.json"
    path.write_text(json.dumps(out, indent=1, default=str))
    print(f"\nwrote {path}")
    for name, wl in out["workloads"].items():
        print(f"{name}: fail_rate={wl['fail_rate']:.4g} digests={wl['result_digests']}")
        for metric, s in wl["metrics"].items():
            print(f"  {metric:<30} median {s['median']:>12.6g}  q1 {s['q1']:>12.6g}"
                  f"  q3 {s['q3']:>12.6g}  {s['unit']}")
    return 0 if all(wl["fail_rate"] == 0 for wl in out["workloads"].values()) else 1


# --------------------------------------------------------------------------
# compare
# --------------------------------------------------------------------------


def compare(path_a: str, path_b: str) -> int:
    """One row per workload x end-to-end metric; exit 1 on a regression.

    A metric is *unresolved* when either set's spread (quartile distance
    over median) is wider than its bound -- unless every run of B reads
    better than every run of A.
    """
    spec = load_spec()
    a = json.loads(Path(path_a).read_text())["workloads"]
    b = json.loads(Path(path_b).read_text())["workloads"]
    regressions = 0
    print(f"{'workload':<14} {'metric':<12} {'A median':>11} {'A q1..q3':>23} {'B median':>11}"
          f" {'B q1..q3':>23} {'delta':>8} {'bound':>6}  verdict")
    for name in a:
        if name not in b:
            print(f"{name:<14} missing from {path_b}")
            regressions += 1
            continue
        for m in spec["end_to_end"]:
            sa = a[name]["metrics"].get(m["name"])
            sb = b[name]["metrics"].get(m["name"])
            if sa is None or sb is None:
                continue
            sign = 1.0 if m["better"] == "higher" else -1.0
            delta = (sb["median"] - sa["median"]) / sa["median"]
            worse = -sign * delta
            spread = max((s["q3"] - s["q1"]) / s["median"] for s in (sa, sb))
            b_always_better = min(sign * v for v in sb["values"]) > max(sign * v for v in sa["values"])
            if spread > m["bound"] and not b_always_better:
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict = "REGRESSION"
                regressions += 1
            elif b_always_better:
                verdict = "better"
            else:
                verdict = "ok"
            print(f"{name:<14} {m['name']:<12} {sa['median']:>11.5g} "
                  f"{sa['q1']:>11.5g}..{sa['q3']:<11.5g} {sb['median']:>11.5g} "
                  f"{sb['q1']:>11.5g}..{sb['q3']:<11.5g} {delta:>+8.2%} {m['bound']:>6.0%}  {verdict}")
        fa, fb = a[name]["fail_rate"], b[name]["fail_rate"]
        if fb > fa:
            print(f"{name:<14} fail_rate rose {fa:.4g} -> {fb:.4g}  REGRESSION")
            regressions += 1
    return 1 if regressions else 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            sys.exit("usage: run.py compare A.json B.json")
        return compare(argv[1], argv[2])
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="run one workload (the benchmark command)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="time box per run (default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    ap.add_argument("--report", help="with --workload: write the full run report here")
    ap.add_argument("--runs", type=int, default=1, help="set mode: runs per workload")
    ap.add_argument("--out", help="set mode: output directory")
    ap.add_argument("--name", default="set", help="set mode: output file stem")
    args = ap.parse_args(argv)
    if args.workload:
        if args.seconds is None:
            args.seconds = load_spec()["run_seconds"]
        return run_one(args)
    if not args.out:
        ap.error("give --workload, or --out for a set of runs")
    return run_set(args)


if __name__ == "__main__":
    sys.exit(main())

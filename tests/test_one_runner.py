"""Lint: every campaign runs through the sweep engine.

``run_raw`` is one simulation run.  A loop of ``run_raw`` calls beside
:func:`repro.experiments.sweep.run_sweep` is a second campaign runner:
no shared-world cache, no results store, no manifest, no ``--jobs``.
Only the functions below may call it; a campaign (``repro.run``, every
figure, the gate, the service) goes through ``run_sweep``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: (file under src/repro, top-level function) allowed to call ``run_raw``.
ALLOWED = {
    ("experiments/runner.py", "run_once"),  # one run
    ("experiments/sweep.py", "run_job"),  # the engine's one job
    ("experiments/benchkernel.py", "bench_network_case"),  # single-run microbenchmarks
    ("experiments/benchkernel.py", "bench_observer_overhead"),
    ("cli.py", "_trace_main"),  # one traced run
}


def _run_raw_calls(path: Path) -> list[tuple[str, str | None, int]]:
    """``(file, enclosing top-level function or None, line)`` per call."""
    rel = path.relative_to(SRC).as_posix()
    calls = []
    for top in ast.parse(path.read_text()).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "run_raw":
                    calls.append((rel, owner, node.lineno))
    return calls


def _all_calls() -> list[tuple[str, str | None, int]]:
    return [call for path in sorted(SRC.rglob("*.py")) for call in _run_raw_calls(path)]


def test_run_raw_called_only_by_the_allowlist():
    offenders = [
        f"{rel}:{line} (in {owner or 'module body'})"
        for rel, owner, line in _all_calls()
        if (rel, owner) not in ALLOWED
    ]
    assert not offenders, (
        "run_raw called outside the allowlist (run the campaign through "
        "run_sweep instead):\n" + "\n".join(offenders)
    )


def test_allowlist_is_current():
    """Every allowed function still calls ``run_raw``; a stale entry would
    silently widen the allowlist."""
    callers = {(rel, owner) for rel, owner, _ in _all_calls()}
    assert ALLOWED <= callers, sorted(ALLOWED - callers)

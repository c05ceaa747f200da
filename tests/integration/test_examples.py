"""Smoke tests: the runnable examples must stay runnable.

Only the fast examples run in the unit suite; the heavier ones (``SLOW``)
run in CI's ``examples-smoke`` job.  Each example is executed in a
subprocess exactly as a user would run it.
"""

import re
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

FAST = ["quickstart.py", "cover_geometry_demo.py", "cluster_schedule_dissemination.py"]
SLOW = ["emergency_alarm_flood.py", "protocol_comparison.py", "mobile_network.py"]


def run_example(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("name", FAST)
def test_fast_example_runs(name):
    proc = run_example(name)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip(), "example produced no output"


def test_quickstart_shows_batch_timeline():
    out = run_example("quickstart.py").stdout
    assert "completed" in out
    assert "RTS" in out and "RAK" in out and "DATA" in out


def test_geometry_demo_shows_cover_set(self=None):
    out = run_example("cover_geometry_demo.py").stdout
    assert "minimum cover set" in out
    assert "UPDATE keeps" in out


def test_all_examples_exist_and_have_docstrings():
    files = sorted(p.name for p in EXAMPLES.glob("*.py"))
    assert set(FAST + SLOW) <= set(files)
    for p in EXAMPLES.glob("*.py"):
        head = p.read_text().split('"""')
        assert len(head) >= 3, f"{p.name} lacks a module docstring"
        assert "Run:" in head[1], f"{p.name} docstring lacks a Run: line"


def test_every_example_runs_somewhere():
    """Each example is FAST (run here) or SLOW and run by CI's
    ``examples-smoke`` job, so none can rot unnoticed."""
    ci = (EXAMPLES.parent / ".github" / "workflows" / "ci.yml").read_text()
    job = re.search(r"^  examples-smoke:\n(.*?)(?=^  \S|\Z)", ci, re.M | re.S).group(1)
    assert {p.name for p in EXAMPLES.glob("*.py")} == set(FAST + SLOW)
    for name in SLOW:
        assert f"python examples/{name}" in job, name

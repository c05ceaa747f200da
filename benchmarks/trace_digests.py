"""Pin the bytes of ``repro-mac trace`` output.

Regenerates ``repro-mac trace figure6a --protocol P --seed 0 --horizon 3000``
for each pinned protocol, each in a fresh interpreter (frame uids and
message ids are process-global counters), and compares the sha256 of every
JSONL trace with ``benchmarks/baselines/trace-sha256.json``.  A change that
claims bit-identity must leave every digest as it is.

    PYTHONPATH=src python benchmarks/trace_digests.py           # check; exit 1 on a mismatch
    PYTHONPATH=src python benchmarks/trace_digests.py --record  # rewrite the pinned digests

The trace's first record carries the package version, so a version bump
changes every digest: re-record in the same commit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

BASELINE = Path(__file__).parent / "baselines" / "trace-sha256.json"
FIGURE = "figure6a"
SEED = 0
HORIZON = 3000
PROTOCOLS = ("BMW", "BSMA", "BMMM", "LAMM")


def trace_digest(protocol: str, out_dir: Path) -> str:
    """sha256 of one freshly generated trace."""
    subprocess.run(
        [
            sys.executable, "-m", "repro.cli", "trace", FIGURE,
            "--protocol", protocol, "--seed", str(SEED),
            "--horizon", str(HORIZON), "--out", str(out_dir),
        ],
        check=True,
        stdout=subprocess.DEVNULL,
    )
    path = out_dir / f"trace_{FIGURE}_{protocol}_seed{SEED}.jsonl"
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true", help="rewrite the pinned digests")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        digests = {p: trace_digest(p, Path(tmp)) for p in PROTOCOLS}
    if args.record:
        record = {
            "command": f"repro-mac trace {FIGURE} --protocol P --seed {SEED} --horizon {HORIZON}",
            "sha256": digests,
        }
        BASELINE.write_text(json.dumps(record, indent=2) + "\n")
        print(f"recorded {len(digests)} trace digests in {BASELINE}")
        return 0
    pinned = json.loads(BASELINE.read_text())["sha256"]
    bad = [p for p in PROTOCOLS if digests[p] != pinned.get(p)]
    for p in PROTOCOLS:
        print(f"{p:5s} {digests[p]} {'MISMATCH' if p in bad else 'ok'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

"""Lint: the retired slot-timing globals must not creep back in.

``SIGNAL_SLOTS`` / ``DATA_SLOTS`` were replaced by the
:class:`repro.phy.profile.PhyProfile` rate table and then removed.  Any
reference in the source tree -- an import, an attribute chase, a fresh
definition -- would silently re-hard-code the single-rate timing and
break multi-rate profiles.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Files allowed to mention the retired names (none).
ALLOWED: set[Path] = set()

PATTERN = re.compile(r"\b(SIGNAL_SLOTS|DATA_SLOTS)\b")


def test_no_module_references_slot_constants():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path in ALLOWED:
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            if PATTERN.search(line):
                offenders.append(f"{path.relative_to(SRC.parent)}:{lineno}: {line.strip()}")
    assert not offenders, (
        "retired slot constants referenced "
        "(use config.phy / PhyProfile instead):\n" + "\n".join(offenders)
    )


"""The one record I/O path: JSONL streams and JSON artifacts.

* :class:`JsonlWriter` -- one compact JSON record per line.  The trace
  writer, the campaign telemetry stream and the serve workers' streams
  each wrap one and keep only their own records.
* :func:`read_jsonl` -- the tolerant reader under
  :func:`~repro.obs.trace.load_trace` and
  :func:`~repro.obs.telemetry.load_telemetry`.  The truncation contract:
  a final line without its newline (a writer killed mid-write) is kept if
  it parses into a complete record, dropped if not, and either way marks
  the result ``truncated``; a malformed line *with* its newline is
  corruption and raises :class:`ValueError`.
* :func:`write_json` -- indented JSON for manifests, gate reports, BENCH
  records, figure JSON and grid results.

Values JSON cannot encode natively go through one fallback: sets sort
into lists, anything else becomes its ``str``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Any

__all__ = ["JsonlWriter", "read_jsonl", "write_json"]


def _json_default(value: Any) -> Any:
    """Last-resort conversion for values the record builder missed."""
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    return str(value)


class JsonlWriter:
    """Append one compact JSON line per record.

    *target* is a path (opened for writing, parents created, closed by
    :meth:`close`) or an open text handle (only flushed by :meth:`close`).
    *flush_each* flushes after every record, so a process killed
    mid-stream leaves at most one partial final line; streams read while
    they grow (telemetry, worker heartbeats) set it, traces flush on
    close only.
    """

    def __init__(self, target: str | Path | IO[str], *, flush_each: bool = False):
        if isinstance(target, (str, Path)):
            self.path: Path | None = Path(target)
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh: IO[str] = self.path.open("w", encoding="utf-8")
        else:
            self.path = None
            self._fh = target
        self._flush_each = flush_each
        self.n_records = 0

    def write(self, record: dict) -> None:
        self._fh.write(
            json.dumps(record, separators=(",", ":"), default=_json_default) + "\n"
        )
        if self._flush_each:
            self._fh.flush()
        self.n_records += 1

    def close(self) -> None:
        """Close an owned file (idempotent); flush a borrowed handle."""
        if self.path is None:
            self._fh.flush()
        elif not self._fh.closed:
            self._fh.close()


def read_jsonl(
    source: str | Path | IO[str],
    kind: str,
    required: tuple[str, ...],
    meta_etype: str,
    schema: int,
) -> tuple[list[dict], bool]:
    """Parse a JSONL stream into ``(records, truncated)``.

    Every record must be an object carrying the *required* keys, and
    every *meta_etype* record must declare *schema*; *kind* names the
    stream in error messages.
    """
    if isinstance(source, (str, Path)):
        text = Path(source).read_text(encoding="utf-8")
    else:
        text = source.read()
    lines = text.split("\n")
    records: list[dict] = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            problem = f"is not valid JSON: {exc}"
        else:
            problem = None
            if not isinstance(record, dict) or any(key not in record for key in required):
                problem = f"is missing required keys {required}"
        if problem is not None:
            # Only the unterminated final line can be a killed write.
            if lineno == len(lines):
                break
            raise ValueError(f"{kind} line {lineno} {problem}")
        if record["e"] == meta_etype and record.get("schema") != schema:
            raise ValueError(
                f"unsupported {kind} schema {record.get('schema')!r} "
                f"(this reader handles {schema})"
            )
        records.append(record)
    return records, bool(lines[-1].strip())


def write_json(path: str | Path, payload: Any) -> Path:
    """Write *payload* to *path* as indented JSON (parents created)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, default=_json_default))
    return path

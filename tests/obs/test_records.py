"""Tests for the shared record I/O path (repro.obs.records)."""

import io
import json
from pathlib import Path

import pytest

from repro.obs.records import JsonlWriter, read_jsonl, write_json

META = {"e": "x.meta", "schema": 3}
REC = {"e": "tick", "n": 1}


def _read(text):
    return read_jsonl(io.StringIO(text), "x", ("e",), "x.meta", 3)


def _line(record):
    return json.dumps(record, separators=(",", ":"))


class TestWriter:
    def test_flush_each_makes_records_visible_before_close(self, tmp_path):
        path = tmp_path / "deep" / "s.jsonl"
        writer = JsonlWriter(path, flush_each=True)
        writer.write(META)
        writer.write(REC)
        assert path.read_text() == _line(META) + "\n" + _line(REC) + "\n"
        assert writer.n_records == 2
        writer.close()
        writer.close()  # idempotent

    def test_borrowed_handle_stays_open(self):
        buf = io.StringIO()
        writer = JsonlWriter(buf)
        writer.write({"e": "tick", "group": {3, 1}, "where": Path("cell")})
        writer.close()
        assert not buf.closed and writer.path is None
        assert json.loads(buf.getvalue()) == {"e": "tick", "group": [1, 3], "where": "cell"}


class TestReader:
    """Edge cases the trace and telemetry loader tests do not reach; the
    truncation contract itself is pinned through both loaders."""

    def test_every_meta_record_checks_the_schema(self):
        with pytest.raises(ValueError, match="unsupported x schema 4"):
            _read(_line(META) + "\n" + _line({"e": "x.meta", "schema": 4}) + "\n")

    def test_blank_lines_and_empty_input(self):
        assert _read("\n\n" + _line(REC) + "\n  \n") == ([REC], False)
        assert _read("") == ([], False)


def test_write_json_creates_parents_and_indents(tmp_path):
    path = write_json(tmp_path / "a" / "b.json", {"k": (1, 2), "s": frozenset({2, 1})})
    assert path.read_text() == '{\n  "k": [\n    1,\n    2\n  ],\n  "s": [\n    1,\n    2\n  ]\n}'

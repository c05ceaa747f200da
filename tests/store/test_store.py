"""ResultStore behaviour: roundtrips, misses, persistence, maintenance.

These tests exercise the SQLite layer in isolation with small synthetic
payloads; the bit-identity of *real* sweep cells through the store is
pinned separately in ``tests/experiments/test_sweep_store.py``.
"""

import dataclasses
import sqlite3

import pytest
from hypothesis import given, settings as hsettings, strategies as st

from repro.store import db
from repro.store.db import ResultStore, StoreError

DIG = "d" * 64
FP = "f" * 64
OTHER_FP = "0" * 64


@dataclasses.dataclass
class _Payload:
    """Stand-in for a JobResult: nested, picklable, equality-comparable."""

    label: str
    values: tuple[float, ...]
    counters: dict[str, int]


def _payload(label="cell", values=(1.0, 2.5), rak_polls=9):
    return _Payload(label=label, values=values, counters={"rak_polls": rak_polls})


class TestRoundtrip:
    def test_put_get(self, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            store.put(DIG, "BMMM", 0, _payload(), fingerprint=FP)
            got = store.get(DIG, "BMMM", 0, fingerprint=FP)
        assert got == _payload()

    def test_miss_returns_none(self, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            assert store.get(DIG, "BMMM", 0, fingerprint=FP) is None

    def test_each_key_component_separates_cells(self, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            store.put(DIG, "BMMM", 0, _payload("a"), fingerprint=FP)
            store.put(DIG, "BMMM", 1, _payload("b"), fingerprint=FP)
            store.put(DIG, "LAMM", 0, _payload("c"), fingerprint=FP)
            store.put("e" * 64, "BMMM", 0, _payload("d"), fingerprint=FP)
            assert store.get(DIG, "BMMM", 0, fingerprint=FP).label == "a"
            assert store.get(DIG, "BMMM", 1, fingerprint=FP).label == "b"
            assert store.get(DIG, "LAMM", 0, fingerprint=FP).label == "c"
            assert store.get("e" * 64, "BMMM", 0, fingerprint=FP).label == "d"

    def test_stale_fingerprint_is_a_miss_not_an_error(self, tmp_path):
        """Code changed => the old row must never be served."""
        with ResultStore(tmp_path / "s.sqlite") as store:
            store.put(DIG, "BMMM", 0, _payload(), fingerprint=OTHER_FP)
            assert store.get(DIG, "BMMM", 0, fingerprint=FP) is None
            assert store.get(DIG, "BMMM", 0, fingerprint=OTHER_FP) == _payload()

    def test_put_overwrites_same_key(self, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            store.put(DIG, "BMMM", 0, _payload(rak_polls=1), fingerprint=FP)
            store.put(DIG, "BMMM", 0, _payload(rak_polls=2), fingerprint=FP)
            assert store.get(DIG, "BMMM", 0, fingerprint=FP).counters["rak_polls"] == 2

    def test_memory_store(self):
        with ResultStore(":memory:") as store:
            store.put(DIG, "BMMM", 0, _payload(), fingerprint=FP)
            assert store.get(DIG, "BMMM", 0, fingerprint=FP) == _payload()


class TestPersistence:
    def test_rows_survive_reopen(self, tmp_path):
        """The whole resumability story: every put is committed, so a
        killed process loses nothing already stored."""
        path = tmp_path / "campaign.sqlite"
        with ResultStore(path) as store:
            store.put(DIG, "BMMM", 0, _payload("survivor"), fingerprint=FP)
        with ResultStore(path) as store:
            assert store.get(DIG, "BMMM", 0, fingerprint=FP).label == "survivor"

    def test_distinct_keys_survive_reopen_as_separate_rows(self, tmp_path):
        path = tmp_path / "s.sqlite"
        with ResultStore(path) as store:
            store.put(DIG, "LAMM", 1, _payload("lamm"), fingerprint=FP)
            store.put(DIG, "BMMM", 0, _payload("bmmm"), fingerprint=FP)
        with ResultStore(path) as store:
            assert store.stats()["n_results"] == 2
            assert store.get(DIG, "LAMM", 1, fingerprint=FP).label == "lamm"
            assert store.get(DIG, "BMMM", 0, fingerprint=FP).label == "bmmm"
            assert store.get(DIG, "BMMM", 1, fingerprint=FP) is None

    def test_parent_directory_created(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "s.sqlite"
        with ResultStore(path) as store:
            store.put(DIG, "BMMM", 0, _payload(), fingerprint=FP)
        assert path.is_file()


class TestSchema:
    def test_newer_schema_fails_loudly(self, tmp_path):
        path = tmp_path / "future.sqlite"
        with ResultStore(path) as store:
            store._conn.execute(
                "UPDATE meta SET value='99' WHERE key='schema_version'"
            )
            store._conn.commit()
        with pytest.raises(StoreError, match="v99 is newer"):
            ResultStore(path)

    def test_fresh_store_records_current_version(self, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            row = store._conn.execute(
                "SELECT value FROM meta WHERE key='schema_version'"
            ).fetchone()
            assert int(row[0]) == ResultStore.SCHEMA_VERSION


class TestMaintenance:
    def test_stats(self, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            assert store.stats()["n_results"] == 0
            store.put(DIG, "BMMM", 0, _payload(), fingerprint=FP)
            store.put(DIG, "BMMM", 1, _payload(), fingerprint=OTHER_FP)
            store.get(DIG, "BMMM", 0, fingerprint=FP)
            store.get(DIG, "BMMM", 0, fingerprint=FP)
            st = store.stats()
            assert st["n_results"] == 2
            assert st["n_fingerprints"] == 2
            assert st["total_hits"] == 2
            assert st["payload_bytes"] > 0

    def test_prune_keeps_only_given_fingerprint(self, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            store.put(DIG, "BMMM", 0, _payload(), fingerprint=FP)
            store.put(DIG, "BMMM", 1, _payload(), fingerprint=OTHER_FP)
            store.put(DIG, "LAMM", 2, _payload(), fingerprint=OTHER_FP)
            assert store.prune(keep_fingerprint=FP) == 2
            store.vacuum()
            assert store.stats()["by_fingerprint"] == {FP: 1}

    def test_hit_bookkeeping(self, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            store.put(DIG, "BMMM", 0, _payload(), fingerprint=FP)
            row = store._conn.execute(
                "SELECT hits, last_hit_at FROM results"
            ).fetchone()
            assert row == (0, None)
            store.get(DIG, "BMMM", 0, fingerprint=FP)
            hits, last_hit = store._conn.execute(
                "SELECT hits, last_hit_at FROM results"
            ).fetchone()
            assert hits == 1 and last_hit is not None


def _hit_rows(store):
    """Every results row's bookkeeping: key + fingerprint -> (hits, last_hit_at)."""
    return {
        (d, p, s, fp): (hits, last)
        for d, p, s, fp, hits, last in store._conn.execute(
            "SELECT scenario_digest, protocol, seed, code_fingerprint, hits,"
            " last_hit_at FROM results"
        )
    }


_DIGESTS = ("a" * 64, "b" * 64, "c" * 64)
_CELL = st.tuples(
    st.sampled_from(_DIGESTS),
    st.sampled_from(("BMW", "BMMM", "LAMM")),
    st.integers(min_value=0, max_value=5),
)


class TestBatchRead:
    """``fetch``/``get_many`` are per-key ``get`` over a whole scan."""

    @hsettings(max_examples=60, deadline=None)
    @given(
        rows=st.dictionaries(
            st.tuples(_CELL, st.sampled_from((FP, OTHER_FP))),
            st.integers(min_value=0, max_value=99),
            max_size=30,
        ),
        keys=st.lists(_CELL, max_size=40),
    )
    def test_batch_equals_per_key_get(self, rows, keys):
        def filled():
            store = ResultStore(":memory:")
            for ((digest, protocol, seed), fp), value in rows.items():
                store.put(digest, protocol, seed, _payload(rak_polls=value), fingerprint=fp)
            return store

        with filled() as batch, filled() as single:
            expected = {}
            for key in dict.fromkeys(keys):
                got = single.get(*key, fingerprint=FP)
                if got is not None:
                    expected[key] = got
            before = _hit_rows(batch)
            assert batch.fetch(keys, FP) == expected
            assert _hit_rows(batch) == before  # a pure read
            assert batch.get_many(keys, FP) == expected
            after = _hit_rows(batch)
            for row, (hits, last) in after.items():
                if row[:3] in expected and row[3] == FP:
                    assert hits == before[row][0] + 1 and last is not None
                else:  # misses and stale-fingerprint rows are untouched
                    assert (hits, last) == before[row]

    def test_seed_lists_are_chunked(self, monkeypatch):
        monkeypatch.setattr(db, "_SEED_CHUNK", 2)
        with ResultStore(":memory:") as store:
            for seed in range(5):
                store.put(DIG, "BMMM", seed, _payload(rak_polls=seed), fingerprint=FP)
            statements = []
            store._conn.set_trace_callback(statements.append)
            got = store.fetch([(DIG, "BMMM", s) for s in range(6)], FP)
        assert {k: v.counters["rak_polls"] for k, v in got.items()} == {
            (DIG, "BMMM", s): s for s in range(5)
        }
        assert sum(sql.startswith("SELECT") for sql in statements) == 3

    def test_no_hits_opens_no_transaction(self):
        with ResultStore(":memory:") as store:
            store.put(DIG, "BMMM", 0, _payload(), fingerprint=OTHER_FP)
            statements = []
            store._conn.set_trace_callback(statements.append)
            assert store.get_many([(DIG, "BMMM", 0), (DIG, "LAMM", 1)], FP) == {}
        assert [sql for sql in statements if not sql.startswith("SELECT")] == []

    def test_failed_bookkeeping_rolls_back(self, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            for seed in range(3):
                store.put(DIG, "BMMM", seed, _payload(), fingerprint=FP)
            # Abort the UPDATE on its last row: the first two must not count.
            store._conn.execute(
                "CREATE TRIGGER no_third BEFORE UPDATE OF hits ON results"
                " WHEN NEW.seed = 2 BEGIN SELECT RAISE(ABORT, 'boom'); END"
            )
            with pytest.raises(sqlite3.IntegrityError, match="boom"):
                store.get_many([(DIG, "BMMM", s) for s in range(3)], FP)
            assert not store._conn.in_transaction
            assert store.stats()["total_hits"] == 0

    def test_corrupt_row_fails_loudly_naming_the_cell(self, tmp_path):
        path = tmp_path / "s.sqlite"
        with ResultStore(path) as store:
            store.put(DIG, "BMMM", 3, _payload(), fingerprint=FP)
            store._conn.execute(
                "UPDATE results SET payload = substr(payload, 1, length(payload) / 2)"
            )
            for read in (store.fetch, store.get_many):
                with pytest.raises(StoreError) as info:
                    read([(DIG, "BMMM", 3)], FP)
                message = str(info.value)
                for part in (DIG, "BMMM", "seed 3", str(path)):
                    assert part in message
            assert store.stats()["total_hits"] == 0

"""Snapshot persistence: byte-exact save/restore of encoded state."""

import pytest

from repro.core.config import DedupConfig
from repro.api import ClusterSpec, open_cluster
from repro.db.database import Database
from repro.db.record import RecordForm
from repro.db.snapshot import (
    dump_database,
    load_database,
    load_snapshot,
    save_snapshot,
)
from repro.workloads.wikipedia import WikipediaWorkload


@pytest.fixture()
def encoded_db():
    """A database with delta chains, a tombstone, and a pending update."""
    cluster = open_cluster(
        ClusterSpec(dedup=DedupConfig(chunk_size=64))
    ).cluster
    workload = WikipediaWorkload(seed=51, target_bytes=150_000, num_articles=1)
    ops = list(workload.insert_trace())
    for op in ops:
        cluster.execute(op)
    cluster.finalize()
    db = cluster.primary.db
    db.delete(ops[2].record_id)  # tombstone (referenced record)
    db.update(ops[-1].record_id, b"pending content " * 10)
    return db, ops


class TestRoundTrip:
    def test_contents_survive(self, encoded_db):
        db, ops = encoded_db
        restored = load_database(dump_database(db))
        for op in ops:
            original, _ = db.read(op.database, op.record_id)
            copy, _ = restored.read(op.database, op.record_id)
            assert copy == original

    def test_storage_form_preserved(self, encoded_db):
        db, _ = encoded_db
        restored = load_database(dump_database(db))
        assert restored.records.keys() == db.records.keys()
        for record_id, record in db.records.items():
            copy = restored.records[record_id]
            assert copy.form == record.form
            assert copy.payload == record.payload
            assert copy.base_id == record.base_id
            assert copy.ref_count == record.ref_count
            assert copy.deleted == record.deleted
            assert copy.pending_updates == record.pending_updates

    def test_stored_bytes_match(self, encoded_db):
        db, _ = encoded_db
        restored = load_database(dump_database(db))
        assert restored.stored_bytes == db.stored_bytes

    def test_file_roundtrip(self, encoded_db, tmp_path):
        db, ops = encoded_db
        path = tmp_path / "node.snapshot"
        size = save_snapshot(db, path)
        assert path.stat().st_size == size
        restored = load_snapshot(path)
        content, _ = restored.read(ops[0].database, ops[0].record_id)
        original, _ = db.read(ops[0].database, ops[0].record_id)
        assert content == original


class TestValidation:
    def test_bad_magic(self):
        with pytest.raises(ValueError):
            load_database(b"XXXX\x01\x00")

    def test_bad_version(self):
        with pytest.raises(ValueError):
            load_database(b"DBDD\x09\x00")

    def test_truncated(self, encoded_db):
        db, _ = encoded_db
        blob = dump_database(db)
        with pytest.raises(ValueError):
            load_database(blob[: len(blob) // 2])

    def test_trailing_garbage(self, encoded_db):
        db, _ = encoded_db
        with pytest.raises(ValueError):
            load_database(dump_database(db) + b"junk")

    def test_refuses_nonempty_target(self, encoded_db):
        db, _ = encoded_db
        target = Database()
        target.insert("x", "existing", b"data")
        with pytest.raises(ValueError):
            load_database(dump_database(db), into=target)

    def test_empty_database_roundtrip(self):
        restored = load_database(dump_database(Database()))
        assert len(restored.records) == 0

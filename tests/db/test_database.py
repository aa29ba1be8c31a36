"""Database CRUD + encoding-chain semantics (§4.1)."""

import gc
import weakref

import pytest

from repro.cache.writeback import WriteBackEntry
from repro.db.database import Database
from repro.db.errors import RecordExists, RecordNotFound
from repro.db.record import RecordForm
from repro.delta.dbdelta import DeltaCompressor


@pytest.fixture()
def db() -> Database:
    return Database()


def backward_entry(base_content: bytes, target_content: bytes,
                   record_id: str, base_id: str, stored: int) -> WriteBackEntry:
    """Build a write-back entry re-encoding `record_id` against `base_id`."""
    payload = DeltaCompressor().compress(base_content, target_content)
    return WriteBackEntry(
        record_id=record_id, base_id=base_id, payload=payload,
        space_saving=stored - len(payload),
    )


@pytest.fixture()
def chained(db, revision_pair):
    """Two records with v0 backward-encoded against v1."""
    source, target = revision_pair
    db.insert("wiki", "v0", source)
    db.insert("wiki", "v1", target)
    entry = backward_entry(target, source, "v0", "v1", len(source))
    assert db.apply_writeback(entry)
    return source, target


class TestInsertRead:
    def test_insert_and_read(self, db, document):
        db.insert("db", "r1", document)
        content, latency = db.read("db", "r1")
        assert content == document
        assert latency > 0

    def test_duplicate_insert_rejected(self, db):
        db.insert("db", "r1", b"x")
        with pytest.raises(RecordExists):
            db.insert("db", "r1", b"y")

    def test_read_missing(self, db):
        content, _ = db.read("db", "nope")
        assert content is None


class TestWriteback:
    def test_writeback_encodes_record(self, db, chained):
        source, _ = chained
        record = db.records["v0"]
        assert record.form is RecordForm.DELTA
        assert record.base_id == "v1"
        assert db.records["v1"].ref_count == 1
        assert db.writebacks_applied == 1

    def test_encoded_record_reads_back(self, db, chained):
        source, _ = chained
        content, _ = db.read("wiki", "v0")
        assert content == source

    def test_storage_shrinks(self, db, revision_pair):
        source, target = revision_pair
        db.insert("wiki", "v0", source)
        db.insert("wiki", "v1", target)
        before = db.stored_bytes
        db.apply_writeback(
            backward_entry(target, source, "v0", "v1", len(source))
        )
        assert db.stored_bytes < before

    def test_writeback_skipped_for_missing_record(self, db):
        entry = WriteBackEntry("ghost", "base", b"x", 1)
        assert not db.apply_writeback(entry)

    def test_writeback_skipped_after_client_update(self, db, revision_pair):
        source, target = revision_pair
        db.insert("wiki", "v0", source)
        db.insert("wiki", "v1", target)
        # Simulate a referenced record taking a client update first.
        db.records["v0"].ref_count = 1
        db.update("v0", b"client wrote this")
        entry = backward_entry(target, source, "v0", "v1", len(source))
        assert not db.apply_writeback(entry)
        db.records["v0"].ref_count = 0

    def test_schedule_and_idle_flush(self, db, revision_pair):
        source, target = revision_pair
        db.insert("wiki", "v0", source)
        db.insert("wiki", "v1", target)
        db.schedule_writebacks(
            [backward_entry(target, source, "v0", "v1", len(source))]
        )
        assert len(db.writeback_cache) == 1
        # Disk busy right after the inserts: no flush.
        assert db.flush_writebacks_if_idle() == 0
        db.clock.advance(10.0)
        assert db.flush_writebacks_if_idle() == 1
        assert db.records["v0"].form is RecordForm.DELTA

    def test_store_is_freed_without_the_cycle_collector(self, revision_pair):
        """The drop callback must not tie the store to its own cache: a
        scratch store (oplog replay in the invariant sweep) has to go when
        its last reference does, not at the next full collection."""
        source, target = revision_pair
        gc.collect()
        gc.disable()
        try:
            db = Database()
            db.insert("wiki", "v0", source)
            db.insert("wiki", "v1", target)
            db.schedule_writebacks(
                [backward_entry(target, source, "v0", "v1", len(source))]
            )
            db.writeback_cache.invalidate("v0")  # the callback still fires
            assert db.records["v1"].ref_count == 0
            alive = weakref.ref(db)
            del db
            assert alive() is None
        finally:
            gc.enable()


class TestDecodeChains:
    def test_decode_cost(self, db, revision_chain):
        # Build a backward chain v0 <- v1 <- ... <- tail.
        for index, content in enumerate(revision_chain):
            db.insert("wiki", f"v{index}", content)
        for index in range(len(revision_chain) - 1):
            entry = backward_entry(
                revision_chain[index + 1], revision_chain[index],
                f"v{index}", f"v{index + 1}", len(revision_chain[index]),
            )
            db.apply_writeback(entry)
        tail = len(revision_chain) - 1
        assert db.decode_cost(f"v{tail}") == 0
        assert db.decode_cost("v0") == tail
        content, _ = db.read("wiki", "v0")
        assert content == revision_chain[0]

    def test_decode_cost_missing_record(self, db):
        with pytest.raises(RecordNotFound):
            db.decode_cost("ghost")


class TestUpdate:
    def test_update_unreferenced_rewrites_raw(self, db, chained):
        # v1 has ref_count 1 (v0 decodes from it); v0 has 0.
        db.update("v0", b"brand new content")
        record = db.records["v0"]
        assert record.form is RecordForm.RAW
        assert record.payload == b"brand new content"
        # v1 lost its reference.
        assert db.records["v1"].ref_count == 0

    def test_update_referenced_appends(self, db, chained):
        source, target = chained
        db.update("v1", b"newer text")
        record = db.records["v1"]
        assert record.pending_updates == [b"newer text"]
        content, _ = db.read("wiki", "v1")
        assert content == b"newer text"
        # Dependent still decodes through the retained payload.
        old, _ = db.read("wiki", "v0")
        assert old == source

    def test_update_missing_raises(self, db):
        with pytest.raises(RecordNotFound):
            db.update("ghost", b"x")

    def test_update_invalidates_pending_writeback(self, db, revision_pair):
        source, target = revision_pair
        db.insert("wiki", "v0", source)
        db.insert("wiki", "v1", target)
        db.schedule_writebacks(
            [backward_entry(target, source, "v0", "v1", len(source))]
        )
        db.update("v0", b"client update wins")
        assert "v0" not in db.writeback_cache
        content, _ = db.read("wiki", "v0")
        assert content == b"client update wins"


class TestDelete:
    def test_delete_unreferenced_removes(self, db):
        db.insert("db", "r", b"bye")
        db.delete("r")
        assert "r" not in db.records
        content, _ = db.read("db", "r")
        assert content is None

    def test_delete_referenced_tombstones(self, db, chained):
        source, _ = chained
        db.delete("v1")  # v1 is v0's decode base
        assert db.records["v1"].deleted
        content, _ = db.read("wiki", "v1")
        assert content is None  # client sees empty
        old, _ = db.read("wiki", "v0")
        assert old == source  # dependent still decodes

    def test_delete_missing_raises(self, db):
        with pytest.raises(RecordNotFound):
            db.delete("ghost")

    def test_tombstone_reaped_when_dependent_goes(self, db, chained):
        db.delete("v1")
        db.delete("v0")
        assert "v0" not in db.records
        assert "v1" not in db.records  # reaped transitively


class TestGarbageCollection:
    def test_read_splices_deleted_middle(self, db, revision_chain):
        contents = revision_chain[:3]
        for index, content in enumerate(contents):
            db.insert("wiki", f"v{index}", content)
        # Chain v0 <- v1 <- v2 (v2 raw).
        db.apply_writeback(
            backward_entry(contents[1], contents[0], "v0", "v1", len(contents[0]))
        )
        db.apply_writeback(
            backward_entry(contents[2], contents[1], "v1", "v2", len(contents[1]))
        )
        db.delete("v1")  # tombstoned: v0 depends on it
        assert db.records["v1"].deleted
        content, _ = db.read("wiki", "v0")
        assert content == contents[0]
        # The read spliced v0 directly onto v2 and reaped v1.
        assert db.records["v0"].base_id == "v2"
        assert "v1" not in db.records
        assert db.gc_splices == 1
        # And v0 still decodes correctly afterwards.
        again, _ = db.read("wiki", "v0")
        assert again == contents[0]

    def test_read_survives_consecutive_tombstones(self, db, revision_chain):
        # Chain v0 <- v1 <- v2 <- v3 with BOTH middles deleted: the
        # first splice can reap v1 (and cascade into v2) while the
        # stale chain list still names them; later iterations must skip
        # the reaped records instead of rewriting ghosts.
        contents = revision_chain[:4]
        for index, content in enumerate(contents):
            db.insert("wiki", f"v{index}", content)
        for index in range(3):
            db.apply_writeback(
                backward_entry(
                    contents[index + 1], contents[index],
                    f"v{index}", f"v{index + 1}", len(contents[index]),
                )
            )
        db.delete("v1")
        db.delete("v2")
        content, _ = db.read("wiki", "v0")
        assert content == contents[0]
        # A repeat read finishes the splice; both tombstones end reaped.
        content, _ = db.read("wiki", "v0")
        assert content == contents[0]
        assert db.records["v0"].base_id == "v3"
        assert "v1" not in db.records
        assert "v2" not in db.records
        for record in db.records.values():
            assert record.record_id in db.pages


class TestMeasurements:
    def test_logical_raw_bytes_tracks_live_records(self, db):
        db.insert("db", "a", b"12345")
        db.insert("db", "b", b"123")
        db.delete("b")
        assert db.logical_raw_bytes == 5
        assert db.live_records == 1

    def test_logical_bytes_uses_latest_update(self, db, chained):
        db.update("v1", b"xx")
        source, _ = chained
        assert db.logical_raw_bytes == len(source) + 2

"""Decode-path caching: repeated old-version reads skip the chain walk."""

import pytest

from repro.cache.source_cache import SourceRecordCache
from repro.db.database import Database
from repro.delta.dbdelta import DeltaCompressor
from repro.cache.writeback import WriteBackEntry


@pytest.fixture()
def chained_db(revision_chain):
    cache = SourceRecordCache(1 << 20)
    db = Database(record_cache=cache)
    contents = revision_chain[:8]
    for index, content in enumerate(contents):
        db.insert("wiki", f"v{index}", content)
    compressor = DeltaCompressor()
    for index in range(len(contents) - 1):
        delta = compressor.compress(contents[index + 1], contents[index])
        db.schedule_writebacks(
            [
                WriteBackEntry(
                    record_id=f"v{index}",
                    base_id=f"v{index + 1}",
                    payload=delta,
                    space_saving=len(contents[index]),
                )
            ]
        )
    db.clock.advance(60)
    db.drain_writebacks()
    # Start from a cold cache so the first read pays the full walk.
    cache._lru.clear()
    return db, contents


class TestDecodeCache:
    def test_first_read_walks_chain(self, chained_db):
        db, contents = chained_db
        reads_before = db.disk.reads
        content, _ = db.read("wiki", "v0")
        assert content == contents[0]
        assert db.disk.reads - reads_before >= 7  # full chain walk

    def test_second_read_uses_cached_bases(self, chained_db):
        db, contents = chained_db
        db.read("wiki", "v0")
        reads_before = db.disk.reads
        content, _ = db.read("wiki", "v1")
        assert content == contents[1]
        # v2..tail were cached by the first walk: v1 decodes from the
        # cached v2 after a single disk fetch of itself.
        assert db.disk.reads - reads_before <= 2

    def test_cached_content_correct_after_update_invalidation(self, chained_db):
        db, contents = chained_db
        db.read("wiki", "v0")  # populates the cache along the chain
        db.update("v7", b"brand new tail content " * 20)
        content, _ = db.read("wiki", "v7")
        assert content == b"brand new tail content " * 20

"""Cache lifecycle counters: evictions, flushes, discards, invalidations."""

from repro.cache.source_cache import SourceRecordCache
from repro.cache.writeback import LossyWriteBackCache, WriteBackEntry


def _entry(record_id: str, saving: int, payload: bytes = b"x" * 10):
    return WriteBackEntry(
        record_id=record_id, base_id="base", payload=payload,
        space_saving=saving,
    )


class TestLRUCounters:
    def test_eviction_counts_only_budget_pressure(self):
        cache = SourceRecordCache(capacity_bytes=20)
        cache.admit("a", b"x" * 10)
        cache.admit("b", b"x" * 10)
        assert cache.evictions == 0
        cache.admit("c", b"x" * 10)  # pushes 'a' out
        assert cache.evictions == 1
        # Explicit removal and replacement are not evictions.
        cache.invalidate("b")
        cache.admit("c", b"y" * 10)
        assert cache.evictions == 1

    def test_oversized_value_rejected_without_eviction(self):
        cache = SourceRecordCache(capacity_bytes=8)
        cache.admit("a", b"x" * 9)
        assert "a" not in cache
        assert cache.evictions == 0


class TestSourceCacheCounters:
    def test_evictions_and_lookups_are_counted(self):
        cache = SourceRecordCache(capacity_bytes=20)
        cache.admit("a", b"x" * 10)
        cache.admit("b", b"x" * 10)
        cache.admit("c", b"x" * 10)
        assert cache.evictions == 1
        assert cache.get("c") is not None
        assert cache.get("a") is None
        assert (cache.hits, cache.misses) == (1, 1)


class TestWriteBackCounters:
    def test_flush_and_capacity_discard(self):
        cache = LossyWriteBackCache(capacity_bytes=25)
        cache.put(_entry("r1", saving=100))
        cache.put(_entry("r2", saving=50))
        # Third entry exceeds capacity: the least valuable goes.
        cache.put(_entry("r3", saving=75))
        assert cache.discarded == 1
        assert cache.discarded_savings == 50
        flushed = cache.flush_most_valuable()
        assert flushed.record_id == "r1"
        assert cache.flushed == 1

    def test_invalidation_is_not_a_discard(self):
        cache = LossyWriteBackCache(capacity_bytes=100)
        cache.put(_entry("r1", saving=10))
        assert cache.invalidate("r1") is not None
        assert cache.invalidated == 1
        assert cache.discarded == 0

    def test_dropped_entries_notify_owner(self):
        dropped = []
        cache = LossyWriteBackCache(capacity_bytes=100)
        cache.on_drop = dropped.append
        cache.put(_entry("r1", saving=10))
        cache.invalidate("r1")
        cache.put(_entry("r2", saving=20))
        cache.flush_most_valuable()  # flushes are NOT drops
        assert [entry.record_id for entry in dropped] == ["r1"]

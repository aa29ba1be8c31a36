"""Lossy write-back delta cache (§3.3.2)."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import writeback
from repro.cache.writeback import LossyWriteBackCache, WriteBackEntry


def entry(record_id: str, payload: bytes, saving: int, base: str = "base") -> WriteBackEntry:
    return WriteBackEntry(record_id=record_id, base_id=base, payload=payload,
                          space_saving=saving)


class TestBasics:
    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            LossyWriteBackCache(0)

    def test_put_and_flush(self):
        cache = LossyWriteBackCache(1024)
        cache.put(entry("r1", b"delta", 500))
        flushed = cache.flush_most_valuable()
        assert flushed.record_id == "r1"
        assert cache.flushed == 1
        assert len(cache) == 0

    def test_flush_empty_returns_none(self):
        assert LossyWriteBackCache(16).flush_most_valuable() is None

    def test_newer_entry_replaces_same_record(self):
        cache = LossyWriteBackCache(1024)
        cache.put(entry("r1", b"old", 100))
        cache.put(entry("r1", b"new", 200))
        assert len(cache) == 1
        assert cache.flush_most_valuable().payload == b"new"


class TestPrioritization:
    def test_flush_order_most_valuable_first(self):
        cache = LossyWriteBackCache(1024)
        cache.put(entry("small", b"a", 10))
        cache.put(entry("big", b"b", 1000))
        cache.put(entry("mid", b"c", 100))
        order = [cache.flush_most_valuable().record_id for _ in range(3)]
        assert order == ["big", "mid", "small"]

    def test_drain_returns_descending_savings(self):
        cache = LossyWriteBackCache(1024)
        for index, saving in enumerate([5, 50, 500]):
            cache.put(entry(f"r{index}", b"x", saving))
        drained = cache.drain()
        savings = [e.space_saving for e in drained]
        assert savings == sorted(savings, reverse=True)
        assert len(cache) == 0


class TestLossiness:
    def test_capacity_eviction_discards_least_valuable(self):
        cache = LossyWriteBackCache(10)
        cache.put(entry("keep", b"12345", 1000))
        cache.put(entry("drop", b"67890", 1))
        cache.put(entry("also-keep", b"abcde", 500))
        assert cache.discarded == 1
        assert cache.discarded_savings == 1
        assert "drop" not in cache
        assert "keep" in cache

    def test_oversized_entry_discarded_immediately(self):
        cache = LossyWriteBackCache(4)
        cache.put(entry("huge", b"123456", 777))
        assert len(cache) == 0
        assert cache.discarded == 1
        assert cache.discarded_savings == 777

    def test_invalidate_removes_pending(self):
        cache = LossyWriteBackCache(1024)
        cache.put(entry("r1", b"delta", 10))
        removed = cache.invalidate("r1")
        assert removed.record_id == "r1"
        assert "r1" not in cache
        assert cache.used_bytes == 0

    def test_invalidate_absent(self):
        assert LossyWriteBackCache(16).invalidate("nothing") is None


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "c", "d", "e", "f", "g", "h"]),
            st.binary(min_size=1, max_size=6),
            st.integers(0, 1000),
        ),
        max_size=80,
    )
)
def test_property_used_bytes_within_capacity(operations):
    cache = LossyWriteBackCache(20)
    for record_id, payload, saving in operations:
        cache.put(entry(record_id, payload, saving))
        assert cache.used_bytes <= 20
        assert len(cache) <= 20


class ScanModel:
    """The flush order as a full scan defines it.

    ``pending`` is in queueing order (a re-put moves the record to the
    end). Flush takes the first entry with the strictly greatest saving;
    overflow drops the first entry with the strictly smallest.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.pending: dict[str, WriteBackEntry] = {}

    def put(self, new: WriteBackEntry) -> None:
        self.pending.pop(new.record_id, None)
        if len(new.payload) > self.capacity:
            return
        self.pending[new.record_id] = new
        while sum(len(e.payload) for e in self.pending.values()) > self.capacity:
            victim = min(self.pending.values(), key=lambda e: e.space_saving)
            del self.pending[victim.record_id]

    def flush(self) -> WriteBackEntry | None:
        if not self.pending:
            return None
        best = max(self.pending.values(), key=lambda e: e.space_saving)
        return self.pending.pop(best.record_id)


@settings(max_examples=300)
@given(
    st.lists(
        st.one_of(
            st.tuples(
                st.just("put"),
                st.sampled_from("abcdefgh"),
                st.binary(min_size=1, max_size=9),
                st.integers(0, 2),  # few distinct savings: ties everywhere
            ),
            st.tuples(st.just("invalidate"), st.sampled_from("abcdefgh")),
            st.tuples(st.just("flush")),
            st.tuples(st.just("drain")),
        ),
        max_size=120,
    ),
    st.sampled_from([0, 16]),  # 0: the heaps are rebuilt at every chance
)
def test_property_flush_order_equals_full_scan(operations, slack):
    """The heap-backed flush picks what scanning every entry would:
    highest saving, earliest queued among equals — through any mix of
    re-puts, invalidations, flushes, capacity evictions and heap
    compactions."""
    with mock.patch.object(writeback, "_COMPACT_SLACK", slack):
        _check_against_scan(operations)


def _check_against_scan(operations):
    cache = LossyWriteBackCache(20)
    model = ScanModel(20)
    for op, *args in operations:
        if op == "put":
            cache.put(entry(*args))
            model.put(entry(*args))
        elif op == "invalidate":
            cache.invalidate(*args)
            model.pending.pop(*args, None)
        elif op == "flush":
            assert cache.flush_most_valuable() == model.flush()
        else:
            drained = cache.drain()
            assert drained == [model.flush() for _ in drained]
            assert model.flush() is None
        assert cache.pending_entries() == list(model.pending.values())
        assert cache.used_bytes == sum(len(e.payload) for e in model.pending.values())


def test_heaps_do_not_outgrow_the_live_entries():
    """Flushed, invalidated and evicted items are dropped from both lazy
    heaps once they outnumber the live ones — stale items hold payloads."""
    cache = LossyWriteBackCache(20)
    for round_ in range(200):
        if round_ % 5 == 0:
            cache.flush_most_valuable()
        if round_ % 11 == 0:
            cache.invalidate(f"r{(round_ + 1) % 7}")
        cache.put(entry(f"r{round_ % 7}", b"12345678", round_ % 3))  # overflows
        bound = 2 * len(cache) + 16
        assert len(cache._heap) <= bound and len(cache._flush_heap) <= bound

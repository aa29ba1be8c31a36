"""The source record cache as a byte-budget LRU cache."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cache.source_cache import SourceRecordCache


class TestBasics:
    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            SourceRecordCache(0)

    def test_get_miss_counts(self):
        cache = SourceRecordCache(100)
        assert cache.get("x") is None
        assert cache.misses == 1
        assert cache.miss_ratio == 1.0

    def test_put_get_hit(self):
        cache = SourceRecordCache(100)
        cache.admit("x", b"value")
        assert cache.get("x") == b"value"
        assert cache.hits == 1

    def test_peek_does_not_count(self):
        cache = SourceRecordCache(100)
        cache.admit("x", b"v")
        cache.peek("x")
        cache.peek("y")
        assert cache.hits == 0
        assert cache.misses == 0

    def test_pop(self):
        cache = SourceRecordCache(100)
        cache.admit("x", b"abc")
        cache.invalidate("x")
        assert "x" not in cache
        cache.invalidate("x")
        assert cache.used_bytes == 0

    def test_replace_updates_bytes(self):
        cache = SourceRecordCache(100)
        cache.admit("x", b"aaaa")
        cache.admit("x", b"bb")
        assert cache.used_bytes == 2
        assert len(cache) == 1


class TestEviction:
    def test_evicts_lru_on_overflow(self):
        cache = SourceRecordCache(10)
        cache.admit("a", b"12345")
        cache.admit("b", b"12345")
        cache.get("a")  # refresh a
        cache.admit("c", b"12345")  # evicts b
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache

    def test_oversized_value_rejected(self):
        cache = SourceRecordCache(4)
        cache.admit("big", b"12345")
        assert "big" not in cache
        assert cache.used_bytes == 0

    def test_oversized_replacement_removes_old(self):
        cache = SourceRecordCache(4)
        cache.admit("x", b"ab")
        cache.admit("x", b"123456")
        assert "x" not in cache
        assert cache.used_bytes == 0


@given(
    st.lists(
        st.tuples(st.sampled_from("abcdef"), st.binary(min_size=1, max_size=8)),
        max_size=60,
    )
)
def test_property_capacity_never_exceeded(puts):
    cache = SourceRecordCache(16)
    for key, value in puts:
        cache.admit(key, value)
        assert cache.used_bytes <= 16
        assert cache.used_bytes == sum(
            len(cache.peek(k)) for k in "abcdef" if cache.peek(k) is not None
        )

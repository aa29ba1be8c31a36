"""Cuckoo feature index: lookup/insert semantics, LRU, memory accounting."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing.murmur import murmur3_32
from repro.index.cuckoo import ENTRY_BYTES, CuckooFeatureIndex


@pytest.fixture()
def index() -> CuckooFeatureIndex:
    return CuckooFeatureIndex(num_buckets=64, slots_per_bucket=4, max_candidates=4)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_buckets": 0},
            {"slots_per_bucket": 0},
            {"max_candidates": 0},
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            CuckooFeatureIndex(**kwargs)


class TestLookupInsert:
    def test_miss_then_hit(self, index):
        assert index.lookup(12345) == []
        index.insert(12345, "rec-a")
        assert index.lookup(12345) == ["rec-a"]

    def test_lookup_and_insert_returns_prior_matches(self, index):
        first = index.lookup_and_insert(777, "rec-a")
        second = index.lookup_and_insert(777, "rec-b")
        assert first == []
        assert second == ["rec-a"]
        assert set(index.lookup(777)) >= {"rec-a", "rec-b"}

    def test_multiple_records_per_feature(self, index):
        for name in ("r1", "r2", "r3"):
            index.insert(42, name)
        assert set(index.lookup(42)) == {"r1", "r2", "r3"}

    def test_distinct_features_do_not_collide(self, index):
        index.insert(1, "rec-a")
        assert index.lookup(2) == [] or "rec-a" not in index.lookup(2)

    def test_max_candidates_caps_results_and_evicts_lru(self, index):
        for position in range(6):
            index.insert(99, f"rec-{position}")
        before = len(index)
        results = index.lookup(99)
        # Capped at max_candidates; hitting the cap evicts the LRU match,
        # so the returned list may be one shorter than the cap.
        assert 3 <= len(results) <= 4
        assert len(index) == before - 1  # the LRU entry was evicted

    def test_eviction_scans_past_the_cap_for_the_true_lru(self, index):
        """Regression: the cap eviction considers the FULL match set.

        Six same-feature entries overflow the first bucket (4 slots)
        into the second, so matches 5 and 6 sit past the
        ``max_candidates=4`` cap in scan order. The first lookup evicts
        the overall LRU (rec-0) and refreshes only the four returned
        matches — rec-5, beyond the cap, stays stale. The second lookup
        must therefore evict rec-5, the true LRU of the whole candidate
        set; an early-stopped scan would wrongly evict rec-1 (the LRU of
        the first four matches it happened to see) and keep the staler
        rec-5 alive.
        """
        for position in range(6):
            index.insert(99, f"rec-{position}")
        first = index.lookup(99)
        assert "rec-0" not in first  # overall LRU evicted at the cap
        second = index.lookup(99)
        survivors = index.record_ids()
        assert "rec-5" not in survivors  # stale-beyond-the-cap entry went
        assert "rec-1" in survivors      # refreshed match survived
        assert "rec-1" in second


class TestEvictionAndMemory:
    def test_memory_counts_entries(self, index):
        index.insert(1, "a")
        index.insert(2, "b")
        assert index.memory_bytes == 2 * ENTRY_BYTES
        assert len(index) == 2

    def test_remove_record(self, index):
        index.insert(5, "gone")
        index.insert(5, "stays")
        removed = index.remove_record("gone")
        assert removed == 1
        assert index.lookup(5) == ["stays"]

    def test_clear(self, index):
        for feature in range(20):
            index.insert(feature, f"r{feature}")
        index.clear()
        assert len(index) == 0
        assert index.memory_bytes == 0
        assert index.lookup(3) == []

    def test_full_buckets_displace_lru(self):
        tiny = CuckooFeatureIndex(num_buckets=2, slots_per_bucket=1, max_candidates=4)
        for feature in range(50):
            tiny.insert(feature, f"r{feature}")
        # Bounded: at most buckets * slots entries survive.
        assert len(tiny) <= 2 * 1

    def test_capacity_is_bounded_under_load(self):
        index = CuckooFeatureIndex(num_buckets=16, slots_per_bucket=2)
        for feature in range(10_000):
            index.insert(feature, f"r{feature}")
        assert len(index) <= 16 * 2
        assert index.memory_bytes <= 16 * 2 * ENTRY_BYTES


class TestChecksumBehaviour:
    def test_lookup_tolerates_checksum_false_positives(self, index):
        # 16-bit checksums may collide; lookups may return extra records but
        # never crash and never lose the true match.
        for feature in range(500):
            index.insert(feature, f"r{feature}")
        index.insert(100_000, "needle")
        assert "needle" in index.lookup(100_000)

    @settings(max_examples=25)
    @given(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=40, unique=True))
    def test_property_inserted_features_found(self, features):
        index = CuckooFeatureIndex(num_buckets=256, slots_per_bucket=4)
        for feature in features:
            index.insert(feature, f"rec-{feature}")
        found = sum(
            1 for feature in features if f"rec-{feature}" in index.lookup(feature)
        )
        # All found while capacity is ample.
        assert found == len(features)


class TestKeyHashClosedForm:
    """``_hashed`` unrolls murmur for 8-byte keys; the scalar function is
    the frozen oracle it must match bit for bit."""

    EDGES = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]

    @staticmethod
    def _oracle(feature: int, mask: int) -> tuple[int, int, int]:
        raw = feature.to_bytes(8, "little")
        first = murmur3_32(raw, seed=0x1) & mask
        second = murmur3_32(raw, seed=0x2) & mask
        if second == first:
            second = (first + 1) & mask
        return murmur3_32(raw, seed=0xC0FFEE) & 0xFFFF, first, second

    @pytest.fixture(scope="class")
    def features(self) -> list[int]:
        rng = random.Random(22)
        return self.EDGES + [
            rng.getrandbits(rng.randint(1, 64)) for _ in range(4000)
        ]

    @pytest.mark.parametrize("num_buckets", [2, 1 << 16])
    def test_matches_scalar_murmur(self, features, num_buckets):
        index = CuckooFeatureIndex(num_buckets=num_buckets)
        mask = num_buckets - 1
        bumped = 0
        for feature in features:
            hashed = index._hashed(feature)
            assert hashed == self._oracle(feature, mask), feature
            raw = feature.to_bytes(8, "little")
            bumped += hashed[2] != murmur3_32(raw, seed=0x2) & mask
        # Two buckets collide on every other key; 65 536 hardly ever.
        assert (bumped > 1000) == (num_buckets == 2)

    @pytest.mark.parametrize("num_buckets", [2, 1 << 16])
    def test_agrees_with_the_batch_lane(self, features, num_buckets):
        records = [f"r{position}" for position in range(len(features))]
        scalar = CuckooFeatureIndex(num_buckets=num_buckets)
        for feature, record in zip(features, records):
            scalar.insert(feature, record)
        batch = CuckooFeatureIndex(num_buckets=num_buckets)
        batch.insert_batch(features, records)
        assert [bucket.slots for bucket in scalar._buckets] == [
            bucket.slots for bucket in batch._buckets
        ]
        assert len(scalar) == len(batch) > 0

    @pytest.mark.parametrize("feature", [2**64, -1])
    def test_rejects_keys_that_do_not_fit_eight_bytes(self, index, feature):
        with pytest.raises(OverflowError):
            feature.to_bytes(8, "little")
        for operation in (index.lookup, lambda f: index.insert(f, "r")):
            with pytest.raises(OverflowError):
                operation(feature)
        with pytest.raises(OverflowError):
            index.lookup_and_insert(feature, "r")
        assert len(index) == 0

"""Budgeted feature index: budget, demotion/promotion, invalidation.

The safety-critical property pinned here is *negative accuracy*: a
record removed from both tiers can never be returned by any later
lookup, whatever its features and wherever they resided (hot tier, cold
band, or both). Positive imprecision (band-granular candidates, Bloom
false positives) is allowed by construction — the delta stage verifies
bytes — so the equivalence property is one-sided.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index import CuckooFeatureIndex, IndexSpec
from repro.index.cuckoo import HOT_ENTRY_BYTES


def tiered_spec(**overrides) -> IndexSpec:
    defaults = dict(
        hot_bytes_budget=HOT_ENTRY_BYTES * 32,
        promotion_hits=2,
        cold_bands=8,
        cold_band_records=64,
        cold_band_features=256,
    )
    defaults.update(overrides)
    return IndexSpec(**defaults)


class TestBudget:
    def test_hot_tier_never_exceeds_budget(self):
        index = CuckooFeatureIndex(tiered_spec())
        for position in range(500):
            index.insert(position * 7919, f"r{position}")
            assert index.hot_bytes <= index.hot_bytes_budget
        assert index.demotions > 0

    def test_insert_batch_respects_budget(self):
        index = CuckooFeatureIndex(tiered_spec())
        index.insert_batch(
            [position * 104_729 for position in range(400)],
            [f"r{position}" for position in range(400)],
        )
        assert index.hot_bytes <= index.hot_bytes_budget

    def test_unbounded_budget_never_demotes(self):
        index = CuckooFeatureIndex(tiered_spec(hot_bytes_budget=None))
        for position in range(300):
            index.lookup_and_insert(position * 7919, f"r{position}")
        assert index.demotions == 0
        assert index.cold_bytes == 0
        # No budget: the paper's 6 B entry, no feature kept to spill.
        assert index.memory_bytes == 6 * len(index) > 0

    def test_memory_is_sum_of_tiers(self):
        index = CuckooFeatureIndex(tiered_spec())
        for position in range(300):
            index.insert(position * 7919, f"r{position}")
        assert index.memory_bytes == index.hot_bytes + index.cold_bytes
        assert index.cold_bytes > 0  # bands materialized by demotion

    def test_maintenance_bytes_accumulate_and_drain(self):
        index = CuckooFeatureIndex(tiered_spec())
        for position in range(300):
            index.insert(position * 7919, f"r{position}")
        assert index.maintenance_bytes > 0
        drained = index.drain_maintenance_bytes()
        assert drained > 0
        assert index.maintenance_bytes == 0
        assert index.drain_maintenance_bytes() == 0


class TestLookupOutcomes:
    def test_exactly_one_outcome_per_lookup(self):
        index = CuckooFeatureIndex(tiered_spec())
        for position in range(300):
            index.lookup_and_insert(position * 7919, f"r{position}")
        for position in range(0, 300, 7):
            index.lookup(position * 7919)
        assert index.lookups == (
            index.hot_hits + index.cold_hits + index.misses
        )

    def test_demoted_feature_served_from_cold_tier(self):
        index = CuckooFeatureIndex(tiered_spec())
        for position in range(300):
            index.insert(position * 7919, f"r{position}")
        # Feature 0 was inserted first, so it demoted long ago.
        candidates = index.lookup(0)
        assert index.cold_hits >= 1
        assert candidates  # the band vouches for recent demoted records

    def test_promotion_after_repeated_cold_hits(self):
        index = CuckooFeatureIndex(tiered_spec(promotion_hits=2))
        for position in range(300):
            index.insert(position * 7919, f"r{position}")
        feature = 0
        index.lookup(feature)  # first cold hit: counted, no promotion
        assert index.promotions == 0
        index.lookup(feature)  # second cold hit: promotes
        assert index.promotions == 1
        before_hot = index.hot_hits
        index.lookup(feature)
        assert index.hot_hits == before_hot + 1

    def test_cold_false_positives_counted_separately(self):
        index = CuckooFeatureIndex(tiered_spec(cold_fpp=0.4))
        for position in range(400):
            index.insert(position * 7919, f"r{position}")
        # Probe features never inserted: any bloom hit is a false
        # positive and must be counted as such, never as a cold hit of a
        # genuinely demoted feature.
        for probe in range(1_000_000, 1_004_000):
            index.lookup(probe)
        assert index.lookups == (
            index.hot_hits + index.cold_hits + index.misses
        )
        assert index.cold_false_positives >= 0
        assert index.cold_false_positives <= index.cold_hits + index.misses


class TestInvalidation:
    def test_remove_record_covers_both_tiers(self):
        index = CuckooFeatureIndex(tiered_spec())
        for position in range(300):
            index.insert(position * 7919, f"r{position}")
        victims = [f"r{position}" for position in range(0, 300, 13)]
        for victim in victims:
            index.remove_record(victim)
        ids = index.record_ids()
        assert not ids.intersection(victims)
        for position in range(300):
            returned = index.lookup(position * 7919)
            assert not set(returned).intersection(victims)

    def test_cold_tier_delete_does_not_resurrect(self):
        # A record whose features live only in the cold tier must stay
        # gone after removal — the satellite-4 regression.
        index = CuckooFeatureIndex(tiered_spec())
        for position in range(300):
            index.insert(position * 7919, f"r{position}")
        index.remove_record("r0")
        for _ in range(3):  # repeated cold lookups, through promotion
            assert "r0" not in index.lookup(0)
        assert "r0" not in index.record_ids()

    def test_clear_drops_both_tiers(self):
        index = CuckooFeatureIndex(tiered_spec())
        for position in range(300):
            index.insert(position * 7919, f"r{position}")
        index.clear()
        assert len(index) == 0
        assert index.memory_bytes == 0
        assert index.lookup(0) == []


class TestEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 40),        # feature id (small, collisions)
                st.integers(0, 25),        # record id
                st.booleans(),             # True = delete that record
            ),
            min_size=1,
            max_size=80,
        )
    )
    def test_property_removed_records_never_resurrect(self, ops):
        """Deleted records never reappear, whatever tier churn occurred."""
        index = CuckooFeatureIndex(
            tiered_spec(hot_bytes_budget=HOT_ENTRY_BYTES * 8)
        )
        dead: set[str] = set()
        for feature_id, record_id, is_delete in ops:
            feature = feature_id * 104_729
            record = f"r{record_id}"
            if is_delete:
                index.remove_record(record)
                dead.add(record)
            else:
                index.insert(feature, record)
                dead.discard(record)
            returned = set(index.lookup(feature))
            assert not returned & dead
            assert not index.record_ids() & dead
            assert index.lookups == (
                index.hot_hits + index.cold_hits + index.misses
            )
            assert index.hot_bytes <= index.hot_bytes_budget

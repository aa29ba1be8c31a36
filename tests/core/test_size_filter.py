"""Adaptive size-based dedup filter (§3.4.2)."""

import pytest

from repro.core.size_filter import AdaptiveSizeFilter


class TestSizeFilter:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            AdaptiveSizeFilter(refresh_interval=0)

    def test_everything_passes_before_first_refresh(self):
        filt = AdaptiveSizeFilter(refresh_interval=100)
        assert all(filt.should_dedup("db", size) for size in (1, 10, 100))
        assert filt.threshold("db") == 0

    def test_threshold_learned_at_refresh(self):
        filt = AdaptiveSizeFilter(refresh_interval=10)
        for size in range(100, 1100, 100):  # 100..1000
            filt.should_dedup("db", size)
        threshold = filt.threshold("db")
        assert 400 <= threshold <= 500

    def test_small_records_skipped_after_refresh(self):
        filt = AdaptiveSizeFilter(refresh_interval=10)
        for size in range(100, 1100, 100):
            filt.should_dedup("db", size)
        assert not filt.should_dedup("db", 50)
        assert filt.should_dedup("db", 5000)
        assert filt.skipped == 1

    def test_disabled_filter_never_skips(self):
        filt = AdaptiveSizeFilter(refresh_interval=5, enabled=False)
        for size in (1000, 1000, 1000, 1000, 1000):
            filt.should_dedup("db", size)
        assert filt.should_dedup("db", 1)
        assert filt.skipped == 0

    def test_per_database_thresholds(self):
        filt = AdaptiveSizeFilter(refresh_interval=5)
        for _ in range(5):
            filt.should_dedup("big", 10_000)
            filt.should_dedup("small", 10)
        assert filt.threshold("big") > filt.threshold("small")

    def test_threshold_adapts_to_drift(self):
        filt = AdaptiveSizeFilter(refresh_interval=10, history=20)
        for _ in range(10):
            filt.should_dedup("db", 100)
        early = filt.threshold("db")
        for _ in range(20):
            filt.should_dedup("db", 10_000)
        assert filt.threshold("db") > early

"""DedupConfig validation."""

import dataclasses

import pytest

from repro.core.config import DedupConfig


class TestDefaults:
    def test_paper_defaults(self):
        config = DedupConfig()
        assert config.top_k == 8
        assert config.anchor_interval == 64
        assert config.hop_distance == 16
        assert config.cache_reward == 2
        assert config.encoding == "hop"
        assert config.source_cache_bytes == 32 * 1024 * 1024
        assert config.writeback_cache_bytes == 8 * 1024 * 1024
        assert config.governor_threshold == pytest.approx(1.1)
        assert config.size_filter_percentile == pytest.approx(40.0)


class TestValidation:
    def test_frozen(self):
        config = DedupConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.chunk_size = 64
        assert dataclasses.replace(config, chunk_size=64).chunk_size == 64

    def test_chunk_size_power_of_two(self):
        with pytest.raises(ValueError):
            DedupConfig(chunk_size=1000)

    def test_chunk_size_minimum(self):
        with pytest.raises(ValueError):
            DedupConfig(chunk_size=4)

    def test_top_k_positive(self):
        with pytest.raises(ValueError):
            DedupConfig(top_k=0)

    def test_encoding_names(self):
        for name in ("hop", "backward", "version-jumping", "forward"):
            assert DedupConfig(encoding=name).encoding == name
        with pytest.raises(ValueError):
            DedupConfig(encoding="zigzag")

    def test_min_savings_ratio_bounds(self):
        with pytest.raises(ValueError):
            DedupConfig(min_savings_ratio=0.0)
        with pytest.raises(ValueError):
            DedupConfig(min_savings_ratio=1.5)

    def test_hop_distance_minimum(self):
        with pytest.raises(ValueError):
            DedupConfig(hop_distance=1)

    def test_size_filter_percentile_bounds(self):
        with pytest.raises(ValueError):
            DedupConfig(size_filter_percentile=100.0)

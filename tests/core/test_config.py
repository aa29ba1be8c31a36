"""DedupConfig validation."""

import dataclasses

import pytest

from repro.core.admission import (
    GOVERNOR_THRESHOLD,
    LOCALITY_DEPTH,
    LOCALITY_WEIGHT,
)
from repro.core.config import DedupConfig
from repro.core.size_filter import CUT_PERCENTILE
from repro.db.failover import (
    FAILOVER_TIMEOUT_S,
    HEARTBEAT_INTERVAL_S,
    REJOIN_DELAY_S,
)
from repro.delta.dbdelta import DEFAULT_WINDOW
from repro.index.cuckoo import CuckooFeatureIndex
from repro.sketch.features import SketchExtractor


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
        # The values the paper fixes are module constants, not knobs.
        assert GOVERNOR_THRESHOLD == 1.1  # §3.4.1
        assert CUT_PERCENTILE == 40.0  # §3.4.2
        assert DEFAULT_WINDOW == 16  # §4.2, xDelta's window
        index = CuckooFeatureIndex()
        assert (index.slots_per_bucket, index.max_candidates) == (4, 8)
        assert SketchExtractor().seed == 0x5EED
        assert (LOCALITY_WEIGHT, LOCALITY_DEPTH) == (0.5, 64)
        assert (HEARTBEAT_INTERVAL_S, FAILOVER_TIMEOUT_S, REJOIN_DELAY_S) == (
            0.25,
            1.0,
            2.0,
        )


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

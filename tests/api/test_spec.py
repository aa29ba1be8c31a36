"""ClusterSpec: the consolidated, validated deployment description."""

import dataclasses

import pytest

from repro.api import ClusterSpec, open_cluster
from repro.core.config import DedupConfig


class TestValidation:
    def test_defaults_build(self):
        spec = ClusterSpec()
        assert spec.shards == 1
        assert spec.placement == "hash"

    def test_frozen(self):
        spec = ClusterSpec()
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.shards = 4

    def test_keyword_only(self):
        with pytest.raises(TypeError):
            ClusterSpec(DedupConfig())

    def test_rejects_bad_shards(self):
        with pytest.raises(ValueError):
            ClusterSpec(shards=0)

    def test_rejects_bad_placement(self):
        with pytest.raises(ValueError):
            ClusterSpec(placement="round-robin")

    def test_delegates_cluster_config_validation(self):
        with pytest.raises(ValueError):
            ClusterSpec(insert_batch_size=0)
        with pytest.raises(ValueError):
            ClusterSpec(read_preference="nearest")

    @pytest.mark.parametrize("field, value", [
        ("block_compression", "lzma"),
        ("batch_compression", "lzma"),
        ("page_size", 0),
        ("page_size", 1023),
        ("oplog_batch_bytes", -1),
        ("oplog_batch_bytes", 0),
        ("insert_batch_size", 0),
        ("num_secondaries", 0),
        ("read_preference", "nearest"),
        ("heartbeat_interval_s", 0),
        ("failover_timeout_s", 0.1),
        ("rejoin_delay_s", -1),
        ("shards", 0),
        ("placement", "round-robin"),
    ])
    def test_bad_value_fails_at_construction(self, field, value):
        # Not at open_cluster() and not at first use: the message names
        # the field or the rejected value.
        with pytest.raises(ValueError, match=f"{field}|{value}"):
            ClusterSpec(**{field: value})


class TestToClusterConfig:
    """The spec is the cluster's config: nothing is copied out of it."""

    def test_round_trips_every_shared_field(self):
        dedup = DedupConfig(chunk_size=128)
        spec = ClusterSpec(
            dedup=dedup,
            dedup_enabled=False,
            block_compression="snappy",
            batch_compression="zlib",
            use_writeback_cache=False,
            oplog_batch_bytes=1234,
            page_size=8192,
            insert_batch_size=4,
            num_secondaries=2,
            read_preference="secondary",
        )
        cluster = open_cluster(spec).cluster
        assert cluster.config is spec
        assert cluster.failover.config is spec
        nodes = [cluster.primary, *cluster.secondaries]
        assert len(nodes) == 3
        for node in nodes:
            assert node.spec is spec
            assert node.config is dedup
            assert node.dedup_enabled is False
            assert node.db.pages.page_size == 8192
            assert node.db.pages.compressor.name == "snappy"
        assert cluster.primary.use_writeback_cache is False
        assert cluster.primary.inline_block_compression is True
        assert cluster.link.batch_bytes == 1234
        assert cluster.link.batch_compressor.name == "zlib"

    def test_topology_fields_stay_on_spec(self):
        spec = ClusterSpec(shards=4, placement="prefix")
        sharded = open_cluster(spec).cluster
        assert sharded.config is spec
        assert sharded.router.shards == 4
        assert sharded.router.placement == "prefix"
        assert all(shard.config is spec for shard in sharded.shards)

    def test_one_field_per_knob(self):
        names = [field.name for field in dataclasses.fields(ClusterSpec)]
        assert len(names) == 21
        # No None-means-inherit twin of a DedupConfig knob survives.
        assert not set(names) & {
            field.name for field in dataclasses.fields(DedupConfig)
        }

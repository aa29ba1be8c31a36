"""ClusterSpec: the consolidated, validated deployment description."""

import ast
import dataclasses

import pytest

from repro.api import ClusterSpec, IndexSpec, open_cluster
from repro.core.config import DedupConfig
from tests.test_retired_tests import REPO_ROOT, is_defined


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
        # No None-means-inherit twin of a DedupConfig knob survives.
        assert not set(names) & {
            field.name for field in dataclasses.fields(DedupConfig)
        }


#: Config fields that no code under src/, benchmarks/ or tools/ sets,
#: each against the test that needs its non-default value (behaviour the
#: shipping code has, reachable only through the field).
TEST_ONLY_KNOBS = {
    "read_preference":
        "tests.db.test_read_preference.TestReadPreference"
        "::test_secondary_serves_synced_reads",
    "failover_enabled":
        "tests.api.test_failover_api.TestTypedErrors"
        "::test_disabled_failover_maps_to_retriable_error",
    "min_savings_ratio":
        "tests.core.test_pipeline_stats::test_weak_delta_increments_one_reason",
    "admission_inline_threshold":
        "tests.db.test_sharding_equivalence"
        "::test_per_shard_reports_match_for_one_shard",
    "admission_queue_records":
        "tests.integration.test_golden_runs"
        "::test_golden_run[hybrid-oltp-wikipedia]",
    "size_filter_interval":
        "tests.integration.test_golden_runs::test_golden_run[wikipedia]",
    "saving_sample_cap":
        "tests.core.test_pipeline_stats"
        "::test_engine_honours_configured_sample_cap",
}


def _set_fields(roots) -> set[str]:
    """Names set by a keyword argument or a string dict key anywhere
    under ``roots`` — not counting pass-throughs (``x=spec.x``)."""
    names = set()
    for root in roots:
        for path in root.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.keyword) and node.arg:
                    pairs = [(node.arg, node.value)]
                elif isinstance(node, ast.Dict):
                    pairs = [
                        (key.value, value)
                        for key, value in zip(node.keys, node.values)
                        if isinstance(key, ast.Constant)
                        and isinstance(key.value, str)
                    ]
                else:
                    continue
                names.update(
                    name
                    for name, value in pairs
                    if not (
                        isinstance(value, ast.Attribute) and value.attr == name
                    )
                )
    return names


def test_config_census():
    """A knob no caller sets is a constant: every field of the three
    config classes has a setter in src/, benchmarks/ or tools/, or is a
    :data:`TEST_ONLY_KNOBS` entry whose test exists."""
    fields = {
        field.name
        for cls in (ClusterSpec, DedupConfig, IndexSpec)
        for field in dataclasses.fields(cls)
    }
    set_fields = _set_fields(
        REPO_ROOT / root for root in ("src", "benchmarks", "tools")
    )
    assert sorted(fields - set_fields) == sorted(TEST_ONLY_KNOBS)
    for test_id in TEST_ONLY_KNOBS.values():
        assert is_defined(test_id), test_id

"""IndexSpec API: nesting, threading, deprecation shims, index_report."""

import warnings

import pytest

from repro.api import ClusterSpec, IndexSpec, open_cluster
from repro.core.config import DedupConfig
from repro.index import CuckooFeatureIndex, TieredFeatureIndex
from repro.util.deprecation import reset_deprecation_warnings
from repro.workloads import WikipediaWorkload


@pytest.fixture(autouse=True)
def fresh_warning_state():
    """Each test sees a process that has never warned."""
    reset_deprecation_warnings()
    yield
    reset_deprecation_warnings()


class TestIndexSpecValidation:
    @pytest.mark.parametrize("kwargs", [
        {"kind": "btree"},
        {"num_buckets": 0},
        {"slots_per_bucket": 0},
        {"max_candidates": 0},
        {"hot_bytes_budget": 0},
        {"hot_bytes_budget": -1},
        {"cold_fpp": 0.0},
        {"cold_fpp": 1.0},
        {"promotion_hits": 0},
        {"cold_bands": 0},
        {"cold_band_records": 0},
        {"cold_band_features": 0},
    ])
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            IndexSpec(**kwargs)

    def test_frozen(self):
        spec = IndexSpec()
        with pytest.raises(AttributeError):
            spec.kind = "tiered"

    def test_keyword_only(self):
        with pytest.raises(TypeError):
            IndexSpec("tiered")


class TestSpecThreading:
    def test_cluster_spec_nests_index(self):
        index = IndexSpec(kind="tiered", hot_bytes_budget=4096)
        spec = ClusterSpec(dedup=DedupConfig(index=index))
        engine = open_cluster(spec).cluster.primary.engine
        assert engine.config is spec.dedup
        assert engine.config.index is index
        assert engine.index_spec is index

    def test_open_cluster_builds_tiered_index(self):
        client = open_cluster(
            ClusterSpec(dedup=DedupConfig(
                index=IndexSpec(kind="tiered", hot_bytes_budget=2048)
            ))
        )
        workload = WikipediaWorkload(seed=7, target_bytes=60_000)
        client.run(workload.insert_trace())
        engine = client.cluster.primary.engine
        indexes = [engine.index_for(db) for db in ("db",)]
        assert all(isinstance(ix, TieredFeatureIndex) for ix in indexes)

    def test_default_stays_cuckoo(self):
        client = open_cluster(ClusterSpec())
        assert isinstance(
            client.cluster.primary.engine.index_for("db"), CuckooFeatureIndex
        )


class TestFlatKnobDeprecation:
    def test_flat_knobs_warn_exactly_once_per_process(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            DedupConfig(index_buckets=1 << 10).resolved_index()
            DedupConfig(index_slots=2).resolved_index()
        deprecations = [
            w for w in caught if issubclass(w.category, DeprecationWarning)
        ]
        assert len(deprecations) == 1
        assert "IndexSpec" in str(deprecations[0].message)

    def test_flat_knobs_still_shape_the_spec(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            spec = DedupConfig(
                index_buckets=1 << 10, index_slots=2, max_candidates=3
            ).resolved_index()
        assert spec.kind == "cuckoo"
        assert spec.num_buckets == 1 << 10
        assert spec.slots_per_bucket == 2
        assert spec.max_candidates == 3

    def test_defaults_never_warn(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            DedupConfig().resolved_index()
        assert not [
            w for w in caught if issubclass(w.category, DeprecationWarning)
        ]

    def test_spec_plus_flat_knob_conflict_raises(self):
        with pytest.raises(ValueError):
            DedupConfig(index=IndexSpec(), index_buckets=1 << 10)


@pytest.mark.parametrize("shards", [1, 2])
class TestIndexReport:
    def test_cuckoo_report_shape(self, shards):
        client = open_cluster(ClusterSpec(shards=shards))
        workload = WikipediaWorkload(seed=3, target_bytes=60_000)
        client.run(workload.insert_trace())
        report = client.index_report()["shards"]
        assert len(report) == shards
        for shard in report.values():
            assert shard["kind"] == "cuckoo"
            assert shard["maintenance_cpu_seconds"] == 0.0
            for body in shard["partitions"].values():
                assert body["kind"] == "cuckoo"
                assert body["cold_records"] == 0
                assert body["hot_bytes_budget"] is None
                assert body["bytes_per_record"] >= 0.0

    def test_tiered_report_shape(self, shards):
        client = open_cluster(ClusterSpec(
            shards=shards,
            dedup=DedupConfig(
                index=IndexSpec(kind="tiered", hot_bytes_budget=448)
            ),
        ))
        workload = WikipediaWorkload(seed=3, target_bytes=120_000)
        client.run(workload.insert_trace())
        report = client.index_report()["shards"]
        saw_demotion = False
        for shard in report.values():
            assert shard["kind"] == "tiered"
            for body in shard["partitions"].values():
                assert body["kind"] == "tiered"
                assert body["hot_bytes"] <= 448
                saw_demotion = saw_demotion or body["demotions"] > 0
        assert saw_demotion

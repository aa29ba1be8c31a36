"""IndexSpec API: nesting, threading, index_report."""

import pytest

from repro.api import ClusterSpec, IndexSpec, open_cluster
from repro.core.config import DedupConfig
from repro.index import CuckooFeatureIndex
from repro.workloads import WikipediaWorkload


class TestIndexSpecValidation:
    @pytest.mark.parametrize("kwargs", [
        {"num_buckets": 0},
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
            spec.hot_bytes_budget = 4096

    def test_keyword_only(self):
        with pytest.raises(TypeError):
            IndexSpec(1 << 10)


class TestSpecThreading:
    def test_cluster_spec_nests_index(self):
        index = IndexSpec(hot_bytes_budget=4096)
        spec = ClusterSpec(dedup=DedupConfig(index=index))
        engine = open_cluster(spec).cluster.primary.engine
        assert engine.config is spec.dedup
        assert engine.config.index is index

    def test_open_cluster_builds_tiered_index(self):
        client = open_cluster(
            ClusterSpec(dedup=DedupConfig(
                index=IndexSpec(hot_bytes_budget=2048)
            ))
        )
        workload = WikipediaWorkload(seed=7, target_bytes=60_000)
        client.run(workload.insert_trace())
        engine = client.cluster.primary.engine
        indexes = [engine.index_for(db) for db in ("db",)]
        assert all(ix.hot_bytes_budget == 2048 for ix in indexes)

    def test_default_stays_cuckoo(self):
        client = open_cluster(ClusterSpec())
        assert isinstance(
            client.cluster.primary.engine.index_for("db"), CuckooFeatureIndex
        )


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
                index=IndexSpec(hot_bytes_budget=448)
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

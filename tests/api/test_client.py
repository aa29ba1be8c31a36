"""DedupClient facade: open, operate, inspect — on both topologies."""

import pytest

from repro.api import ClusterSpec, DedupClient, IndexSpec, open_cluster
from repro.core.config import DedupConfig
from repro.db.cluster import Cluster
from repro.db.sharding import ShardedCluster
from repro.workloads import WikipediaWorkload


class TestOpenCluster:
    def test_one_shard_opens_plain_cluster(self):
        client = open_cluster(ClusterSpec())
        assert isinstance(client, DedupClient)
        assert isinstance(client.cluster, Cluster)
        assert client.shards == 1

    def test_many_shards_open_sharded_cluster(self):
        client = open_cluster(ClusterSpec(shards=3))
        assert isinstance(client.cluster, ShardedCluster)
        assert client.shards == 3

    def test_overrides_without_spec(self):
        client = open_cluster(shards=2, placement="prefix")
        assert client.shards == 2
        assert client.spec.placement == "prefix"

    def test_overrides_on_top_of_spec(self):
        base = ClusterSpec(insert_batch_size=4)
        client = open_cluster(base, shards=2)
        assert client.shards == 2
        assert client.spec.insert_batch_size == 4

    def test_bad_override_raises(self):
        with pytest.raises(ValueError):
            open_cluster(shards=-1)


@pytest.mark.parametrize("shards", [1, 3])
class TestOperations:
    def test_crud_round_trip(self, shards):
        client = open_cluster(ClusterSpec(shards=shards))
        client.insert("db", "doc/1", b"alpha" * 100)
        assert client.read("db", "doc/1") == b"alpha" * 100
        client.update("db", "doc/1", b"beta" * 100)
        assert client.read("db", "doc/1") == b"beta" * 100
        client.delete("db", "doc/1")
        client.finalize()
        assert client.read("db", "doc/1") is None
        assert client.read("db", "doc/never") is None

    def test_insert_many_batches(self, shards):
        client = open_cluster(ClusterSpec(shards=shards))
        latency = client.insert_many(
            ("db", f"doc/{i}", b"payload" * 50) for i in range(8)
        )
        assert latency > 0
        assert all(
            client.read("db", f"doc/{i}") == b"payload" * 50 for i in range(8)
        )
        assert client.insert_many([]) == 0.0

    def test_run_and_stats(self, shards):
        client = open_cluster(ClusterSpec(shards=shards, insert_batch_size=4))
        workload = WikipediaWorkload(seed=5, target_bytes=100_000)
        result = client.run(workload.insert_trace())
        stats = client.stats()
        assert stats["inserts"] == result.inserts
        assert stats["logical_bytes"] == result.logical_bytes
        assert stats["shards"] == shards
        assert client.replicas_converged()

    def test_check_invariants(self, shards):
        client = open_cluster(ClusterSpec(shards=shards))
        workload = WikipediaWorkload(seed=5, target_bytes=60_000)
        client.run(workload.insert_trace())
        report = client.check_invariants()
        assert report.ok
        assert report.nodes_checked == 2 * shards

    def test_checkpoint(self, shards, tmp_path):
        client = open_cluster(ClusterSpec(shards=shards))
        workload = WikipediaWorkload(seed=5, target_bytes=60_000)
        client.run(workload.insert_trace())
        truncated = client.checkpoint(tmp_path / "ckpt")
        assert truncated > 0


class TestIntrospection:
    def test_exposes_clock_registry_tracer(self):
        client = open_cluster(ClusterSpec(shards=2))
        assert client.clock is client.cluster.clock
        assert client.registry is client.cluster.registry
        assert client.tracer is client.cluster.tracer

    @pytest.mark.parametrize("shards", [1, 2])
    def test_spec_is_the_config_the_engines_run(self, shards):
        # Non-default admission, GC and index settings: the spec the
        # client reports is the object every engine was built from.
        dedup = DedupConfig(
            admission_mode="hybrid",
            admission_queue_records=8,
            gc_enabled=True,
            gc_reclaim_threshold_bytes=4096,
            index=IndexSpec(hot_bytes_budget=4096),
        )
        client = open_cluster(ClusterSpec(dedup=dedup), shards=shards)
        assert client.spec is client.cluster.config
        assert client.spec.dedup is dedup
        for primary in client._primaries():
            assert primary.engine.config is client.spec.dedup
            assert primary.engine.admission.mode == "hybrid"

    def test_wrapping_existing_cluster(self):
        cluster = Cluster(ClusterSpec())
        client = DedupClient(cluster)
        assert client.cluster is cluster
        assert client.spec is cluster.config
        assert client.shards == 1

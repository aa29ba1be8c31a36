"""Cluster: end-to-end replication, convergence, measurements."""

import pytest

from repro.core.config import DedupConfig
from repro.api import ClusterSpec, open_cluster
from repro.workloads.base import Operation
from repro.workloads.wikipedia import WikipediaWorkload


def dedup_cluster(**dedup_overrides):
    defaults = dict(chunk_size=64)
    defaults.update(dedup_overrides)
    return open_cluster(ClusterSpec(dedup=DedupConfig(**defaults))).cluster


class TestBasicOperation:
    def test_insert_and_read(self):
        cluster = dedup_cluster()
        latency = cluster.execute(
            Operation(kind="insert", database="db", record_id="r1",
                      content=b"hello world " * 100)
        )
        assert latency > 0
        read_latency = cluster.execute(
            Operation(kind="read", database="db", record_id="r1")
        )
        assert read_latency > 0
        content, _ = cluster.primary.read("db", "r1")
        assert content == b"hello world " * 100

    def test_unknown_operation_rejected(self):
        cluster = dedup_cluster()
        with pytest.raises(ValueError):
            cluster.execute(Operation(kind="merge", database="db", record_id="r"))

    def test_update_and_delete_replicate(self):
        cluster = dedup_cluster()
        cluster.execute(Operation("insert", "db", "r1", b"original" * 50))
        cluster.execute(Operation("update", "db", "r1", b"updated" * 50))
        cluster.execute(Operation("delete", "db", "r1"))
        cluster.finalize()
        content, _ = cluster.secondary.db.read("db", "r1")
        assert content is None

    def test_idle_operation_advances_clock(self):
        cluster = dedup_cluster()
        before = cluster.clock.now
        cluster.execute(Operation(kind="idle", idle_seconds=2.0))
        assert cluster.clock.now == pytest.approx(before + 2.0, rel=0.01)


class TestReplication:
    def test_replicas_converge_on_wikipedia(self):
        cluster = dedup_cluster()
        workload = WikipediaWorkload(seed=11, target_bytes=300_000)
        cluster.run(workload.insert_trace())
        assert cluster.replicas_converged()

    def test_replication_traffic_compressed(self):
        cluster = dedup_cluster()
        workload = WikipediaWorkload(seed=11, target_bytes=300_000)
        result = cluster.run(workload.insert_trace())
        assert result.network_compression_ratio > 2.0

    def test_batching_defers_shipping(self):
        cluster = open_cluster(
            ClusterSpec(
                dedup=DedupConfig(chunk_size=64),
                oplog_batch_bytes=10_000_000,  # never triggers mid-run
            )
        ).cluster
        cluster.execute(Operation("insert", "db", "r1", b"x" * 1000))
        assert len(cluster.secondary.db.records) == 0
        cluster.finalize()
        assert len(cluster.secondary.db.records) == 1

    def test_secondary_storage_matches_primary(self):
        cluster = dedup_cluster()
        workload = WikipediaWorkload(seed=12, target_bytes=200_000)
        cluster.run(workload.insert_trace())
        assert cluster.primary.db.stored_bytes == cluster.secondary.db.stored_bytes


class TestConfigurations:
    def test_dedup_disabled_baseline(self):
        cluster = open_cluster(ClusterSpec(dedup_enabled=False)).cluster
        workload = WikipediaWorkload(seed=11, target_bytes=200_000)
        result = cluster.run(workload.insert_trace())
        assert result.storage_compression_ratio == pytest.approx(1.0, rel=0.01)
        assert result.index_memory_bytes == 0
        assert cluster.replicas_converged()

    def test_snappy_baseline_compresses_physically(self):
        cluster = open_cluster(
            ClusterSpec(dedup_enabled=False, block_compression="snappy")
        ).cluster
        workload = WikipediaWorkload(seed=11, target_bytes=200_000)
        result = cluster.run(workload.insert_trace())
        assert result.physical_compression_ratio > 1.3
        assert result.storage_compression_ratio == pytest.approx(1.0, rel=0.01)

    def test_dedup_beats_baseline_storage(self):
        workload_args = dict(seed=11, target_bytes=300_000)
        dedup = dedup_cluster().run(
            WikipediaWorkload(**workload_args).insert_trace()
        )
        plain = open_cluster(ClusterSpec(dedup_enabled=False)).cluster.run(
            WikipediaWorkload(**workload_args).insert_trace()
        )
        assert dedup.stored_bytes < plain.stored_bytes / 2

    def test_run_result_properties(self):
        cluster = dedup_cluster()
        result = cluster.run(
            WikipediaWorkload(seed=11, target_bytes=120_000).insert_trace()
        )
        assert result.operations == result.inserts
        assert result.duration_s > 0
        assert result.throughput_ops > 0
        assert result.latency_percentile(50) > 0

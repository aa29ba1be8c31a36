"""Fan-out replication to multiple secondaries."""

import pytest

from repro.core.config import DedupConfig
from repro.api import ClusterSpec, open_cluster
from repro.workloads.wikipedia import WikipediaWorkload


class TestMultiSecondary:
    def test_invalid_count(self):
        with pytest.raises(ValueError):
            ClusterSpec(num_secondaries=0)

    def test_all_secondaries_converge(self):
        cluster = open_cluster(
            ClusterSpec(dedup=DedupConfig(chunk_size=64), num_secondaries=3)
        ).cluster
        workload = WikipediaWorkload(seed=71, target_bytes=150_000)
        cluster.run(workload.insert_trace())
        assert len(cluster.secondaries) == 3
        assert cluster.replicas_converged()

    def test_secondaries_store_identically(self):
        cluster = open_cluster(
            ClusterSpec(dedup=DedupConfig(chunk_size=64), num_secondaries=2)
        ).cluster
        workload = WikipediaWorkload(seed=71, target_bytes=120_000)
        cluster.run(workload.insert_trace())
        first, second = cluster.secondaries
        assert first.db.stored_bytes == second.db.stored_bytes
        # Byte-identical storage forms, not just equal contents.
        for record_id, record in first.db.records.items():
            other = second.db.records[record_id]
            assert record.payload == other.payload
            assert record.base_id == other.base_id

    def test_network_bytes_scale_with_fanout(self):
        def run(n):
            cluster = open_cluster(
                ClusterSpec(dedup=DedupConfig(chunk_size=64), num_secondaries=n)
            ).cluster
            workload = WikipediaWorkload(seed=71, target_bytes=120_000)
            result = cluster.run(workload.insert_trace())
            return result.network_bytes

        one = run(1)
        two = run(2)
        assert two == pytest.approx(2 * one, rel=0.01)

    def test_independent_cursors(self):
        cluster = open_cluster(
            ClusterSpec(
                dedup=DedupConfig(chunk_size=64),
                num_secondaries=2,
                oplog_batch_bytes=10_000_000,
            )
        ).cluster
        workload = WikipediaWorkload(seed=71, target_bytes=120_000)
        ops = list(workload.insert_trace())
        for op in ops:
            cluster.execute(op)
        # Sync only the first link; the second stays behind.
        cluster.links[0].sync()
        assert len(cluster.secondaries[0].db.records) == len(ops)
        assert len(cluster.secondaries[1].db.records) == 0
        cluster.links[1].sync()
        assert len(cluster.secondaries[1].db.records) == len(ops)

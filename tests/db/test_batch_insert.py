"""Batch admission: ``Database.insert_many`` and the node/cluster path."""

import pytest

from repro.core.config import DedupConfig
from repro.api import ClusterSpec, open_cluster
from repro.db.database import Database
from repro.db.errors import RecordExists
from repro.workloads import make_workload


@pytest.fixture()
def db() -> Database:
    return Database()


class TestInsertMany:
    def test_inserts_all_records(self, db, revision_pair):
        base, revised = revision_pair
        latency = db.insert_many(
            [("wiki", "v0", base), ("wiki", "v1", revised)]
        )
        assert latency > 0
        assert db.read("wiki", "v0")[0] == base
        assert db.read("wiki", "v1")[0] == revised

    def test_duplicate_against_store_is_atomic(self, db, document):
        db.insert("wiki", "v0", document)
        with pytest.raises(RecordExists):
            db.insert_many([("wiki", "v1", document), ("wiki", "v0", document)])
        # Nothing from the failed batch was admitted.
        assert db.read("wiki", "v1") == (None, 0.0)

    def test_duplicate_within_batch_is_atomic(self, db, document):
        with pytest.raises(RecordExists):
            db.insert_many([("wiki", "dup", document), ("wiki", "dup", document)])
        assert db.read("wiki", "dup") == (None, 0.0)

    def test_empty_batch_is_noop(self, db):
        assert db.insert_many([]) == 0.0


class TestClusterBatchPath:
    def run_pair(self, batch_size: int):
        """Run the same trace per-record and batched; return both results."""
        results = []
        clusters = []
        for size in (1, batch_size):
            cluster = open_cluster(
                ClusterSpec(
                    dedup=DedupConfig(chunk_size=64),
                    insert_batch_size=size,
                )
            ).cluster
            workload = make_workload("enron", seed=5, target_bytes=100_000)
            results.append(cluster.run(workload.insert_trace()))
            clusters.append(cluster)
        return results, clusters

    def test_batched_run_matches_per_record(self):
        (sequential, batched), (c1, c2) = self.run_pair(batch_size=16)
        assert batched.inserts == sequential.inserts
        assert batched.stored_bytes == sequential.stored_bytes
        assert batched.network_bytes == sequential.network_bytes
        assert c1.replicas_converged() and c2.replicas_converged()
        assert c1.primary.engine.stats == c2.primary.engine.stats

    def test_batch_size_must_be_positive(self):
        with pytest.raises(ValueError):
            ClusterSpec(insert_batch_size=0)

    def test_mixed_trace_flushes_before_reads(self):
        cluster = open_cluster(
            ClusterSpec(
                dedup=DedupConfig(chunk_size=64), insert_batch_size=32
            )
        ).cluster
        workload = make_workload("enron", seed=5, target_bytes=80_000)
        result = cluster.run(workload.mixed_trace())
        assert result.reads > 0
        assert cluster.replicas_converged()

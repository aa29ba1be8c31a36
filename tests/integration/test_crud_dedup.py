"""CRUD against dedup-encoded records, end to end through the cluster."""

import pytest

from repro.core.config import DedupConfig
from repro.api import ClusterSpec, open_cluster
from repro.workloads.base import Operation
from repro.workloads.wikipedia import WikipediaWorkload


@pytest.fixture()
def loaded_cluster():
    cluster = open_cluster(ClusterSpec(dedup=DedupConfig(chunk_size=64))).cluster
    workload = WikipediaWorkload(seed=31, target_bytes=150_000, num_articles=1)
    ops = list(workload.insert_trace())
    for op in ops:
        cluster.execute(op)
    cluster.finalize()
    return cluster, ops


class TestReadsAfterEncoding:
    def test_every_version_reads_back(self, loaded_cluster):
        cluster, ops = loaded_cluster
        for op in ops:
            content, _ = cluster.primary.read(op.database, op.record_id)
            assert content == op.content

    def test_latest_version_is_raw(self, loaded_cluster):
        cluster, ops = loaded_cluster
        assert cluster.primary.db.decode_cost(ops[-1].record_id) == 0

    def test_old_versions_are_encoded(self, loaded_cluster):
        cluster, ops = loaded_cluster
        assert cluster.primary.db.decode_cost(ops[0].record_id) > 0


class TestUpdateDeleteOnChains:
    def test_update_encoded_record(self, loaded_cluster):
        cluster, ops = loaded_cluster
        victim = ops[3].record_id
        cluster.execute(
            Operation("update", "wikipedia", victim, b"rewritten body " * 20)
        )
        content, _ = cluster.primary.read("wikipedia", victim)
        assert content == b"rewritten body " * 20
        # Neighbours still decode.
        for op in (ops[2], ops[4]):
            content, _ = cluster.primary.read("wikipedia", op.record_id)
            assert content == op.content

    def test_delete_mid_chain_preserves_others(self, loaded_cluster):
        cluster, ops = loaded_cluster
        victim = ops[5].record_id
        cluster.execute(Operation("delete", "wikipedia", victim))
        gone, _ = cluster.primary.read("wikipedia", victim)
        assert gone is None
        for op in ops[:5] + ops[6:8]:
            content, _ = cluster.primary.read("wikipedia", op.record_id)
            assert content == op.content

    def test_delete_every_record(self, loaded_cluster):
        cluster, ops = loaded_cluster
        for op in ops:
            cluster.execute(Operation("delete", "wikipedia", op.record_id))
        for op in ops:
            content, _ = cluster.primary.read("wikipedia", op.record_id)
            assert content is None

    def test_reinsert_after_full_delete_cycle(self, loaded_cluster):
        cluster, ops = loaded_cluster
        for op in ops:
            cluster.execute(Operation("delete", "wikipedia", op.record_id))
        # Repeated reads drive garbage collection splices.
        cluster.execute(Operation("insert", "wikipedia", "fresh", b"new start " * 50))
        content, _ = cluster.primary.read("wikipedia", "fresh")
        assert content == b"new start " * 50

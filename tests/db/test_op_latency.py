"""Per-op latency histograms and first-class SLO events on the cluster."""

from __future__ import annotations

import pytest

from repro.api import ClusterSpec, open_cluster
from repro.workloads.base import Operation
from repro.obs.registry import SLO_EVENTS_FAMILY


def _latency_children(cluster):
    return dict(cluster.registry.get("op_latency_seconds")._children)


class TestOpLatencyHistograms:
    def test_insert_and_read_land_in_labeled_children(self):
        client = open_cluster(ClusterSpec())
        cluster = client.cluster
        cluster.execute(Operation(kind="insert", database="acme",
                                  record_id="r1", content=b"x" * 500))
        cluster.execute(Operation(kind="read", database="acme",
                                  record_id="r1"))
        children = _latency_children(cluster)
        assert children[("insert", "acme")].count == 1
        assert children[("read", "acme")].count == 1
        assert children[("insert", "acme")].sum > 0.0

    def test_tenants_kept_apart(self):
        client = open_cluster(ClusterSpec())
        cluster = client.cluster
        for index, tenant in enumerate(("a", "b", "a")):
            cluster.execute(Operation(kind="insert", database=tenant,
                                      record_id=f"{tenant}/r{index}",
                                      content=b"y" * 200))
        children = _latency_children(cluster)
        assert children[("insert", "a")].count == 2
        assert children[("insert", "b")].count == 1

    def test_batch_insert_splits_latency_share(self):
        client = open_cluster(ClusterSpec(insert_batch_size=4))
        cluster = client.cluster
        ops = [
            Operation(kind="insert", database="db", record_id=f"e/{i}",
                      content=b"z" * 300)
            for i in range(4)
        ]
        latency = cluster.execute_insert_batch(ops)
        child = _latency_children(cluster)[("insert", "db")]
        assert child.count == 4
        assert child.sum == latency

    def test_batch_spanning_shards_splits_latency_share(self):
        client = open_cluster(ClusterSpec(shards=2, insert_batch_size=64))
        records = [
            ("db", f"e{index % 16}/{index}", b"z" * 300) for index in range(64)
        ]
        counts = client.cluster.router.counts
        latency = client.insert_many(records)
        assert min(counts) > 0, "batch must span both shards"
        rows = [
            row
            for row in client.registry.snapshot()["op_latency_seconds"]["values"]
            if row["labels"]["op"] == "insert"
        ]
        assert sum(row["count"] for row in rows) == 64
        assert sum(row["sum"] for row in rows) == pytest.approx(
            latency, rel=1e-12
        )

    def test_sharded_registry_merges_histograms(self):
        client = open_cluster(ClusterSpec(shards=2))
        for index in range(8):
            client.cluster.execute(
                Operation(kind="insert", database="db",
                          record_id=f"e{index}/r", content=b"w" * 200)
            )
        snapshot = client.registry.snapshot()
        rows = snapshot["op_latency_seconds"]["values"]
        total = sum(row["count"] for row in rows)
        assert total == 8


class TestFailoverStallEvents:
    def test_promotion_wait_emits_failover_stall(self):
        client = open_cluster(ClusterSpec(num_secondaries=2))
        cluster = client.cluster
        cluster.execute(Operation(kind="insert", database="tenant1",
                                  record_id="e/1", content=b"v" * 300))
        cluster.primary.crash()
        cluster.execute(Operation(kind="insert", database="tenant1",
                                  record_id="e/2", content=b"v" * 300))
        events = dict(cluster.registry.get(SLO_EVENTS_FAMILY).items())
        assert events.get(("failover_stall", "tenant1"), 0) >= 1
        assert cluster.failover.stalled_ops >= 1

    def test_no_events_without_a_crash(self):
        client = open_cluster(ClusterSpec())
        cluster = client.cluster
        cluster.execute(Operation(kind="insert", database="t",
                                  record_id="e/1", content=b"v" * 100))
        assert cluster.registry.total(SLO_EVENTS_FAMILY) == 0.0

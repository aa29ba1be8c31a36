"""Secondary read preference: scale-out reads with stale fallback."""

import pytest

from repro.core.config import DedupConfig
from repro.api import ClusterSpec
from repro.db.cluster import Cluster
from repro.workloads.base import Operation
from repro.workloads.wikipedia import WikipediaWorkload


def cluster_with(read_preference: str, **kwargs) -> Cluster:
    return Cluster(
        ClusterSpec(
            dedup=DedupConfig(chunk_size=64),
            read_preference=read_preference,
            **kwargs,
        )
    )


class TestReadPreference:
    def test_invalid_preference_rejected(self):
        with pytest.raises(ValueError):
            ClusterSpec(read_preference="nearest")

    def test_secondary_serves_synced_reads(self):
        cluster = cluster_with("secondary", oplog_batch_bytes=1)
        cluster.execute(Operation("insert", "db", "r1", b"payload " * 100))
        content, latency = cluster.read("db", "r1")
        assert content == b"payload " * 100
        assert cluster.secondary_reads == 1
        assert cluster.stale_read_fallbacks == 0
        assert latency > 0

    def test_unsynced_record_falls_back_to_primary(self):
        cluster = cluster_with("secondary", oplog_batch_bytes=10_000_000)
        cluster.execute(Operation("insert", "db", "r1", b"payload " * 100))
        content, _ = cluster.read("db", "r1")
        assert content == b"payload " * 100
        assert cluster.stale_read_fallbacks == 1

    def test_round_robin_across_secondaries(self):
        cluster = cluster_with("secondary", num_secondaries=3, oplog_batch_bytes=1)
        cluster.execute(Operation("insert", "db", "r1", b"data " * 50))
        for _ in range(6):
            cluster.read("db", "r1")
        assert cluster.secondary_reads == 6
        # Round robin touched every replica's disk.
        for secondary in cluster.secondaries:
            assert secondary.db.disk.reads >= 1

    def test_mixed_trace_under_secondary_reads(self):
        cluster = cluster_with("secondary", oplog_batch_bytes=4096)
        workload = WikipediaWorkload(seed=33, target_bytes=120_000)
        contents = {}
        for op in workload.mixed_trace():
            if op.kind == "insert":
                contents[op.record_id] = op.content
            cluster.execute(op)
        # Spot-check correctness through the preference path.
        for record_id, expected in list(contents.items())[:10]:
            content, _ = cluster.read("wikipedia", record_id)
            assert content == expected
        assert cluster.secondary_reads > 0

    def test_primary_preference_never_touches_secondaries(self):
        cluster = cluster_with("primary", oplog_batch_bytes=1)
        cluster.execute(Operation("insert", "db", "r1", b"data " * 50))
        cluster.read("db", "r1")
        assert cluster.secondary_reads == 0

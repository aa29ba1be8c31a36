"""End-to-end integration: full cluster runs across workloads and configs."""

import pytest

from repro.core.config import DedupConfig
from repro.api import ClusterSpec, open_cluster
from repro.workloads import make_workload

WORKLOADS = ("wikipedia", "enron", "stackexchange", "messageboards")


@pytest.mark.parametrize("name", WORKLOADS)
class TestAllWorkloadsConverge:
    def test_insert_trace_replicates_exactly(self, name):
        cluster = open_cluster(ClusterSpec(dedup=DedupConfig(chunk_size=64))).cluster
        workload = make_workload(name, seed=21, target_bytes=150_000)
        result = cluster.run(workload.insert_trace())
        assert cluster.replicas_converged()
        assert result.storage_compression_ratio >= 1.0
        assert result.network_compression_ratio >= 1.0

    def test_mixed_trace_reads_return_correct_content(self, name):
        cluster = open_cluster(ClusterSpec(dedup=DedupConfig(chunk_size=64))).cluster
        workload = make_workload(name, seed=21, target_bytes=100_000)
        contents: dict[str, bytes] = {}
        checked = 0
        for op in workload.mixed_trace():
            cluster.execute(op)
            if op.kind == "insert":
                contents[op.record_id] = op.content
            elif op.kind == "read" and checked < 50:
                content, _ = cluster.primary.read(op.database, op.record_id)
                assert content == contents[op.record_id]
                checked += 1
        assert checked > 0


class TestEncodingSchemesEndToEnd:
    @pytest.mark.parametrize("encoding", ["backward", "hop", "version-jumping", "forward"])
    def test_every_scheme_converges(self, encoding):
        cluster = open_cluster(
            ClusterSpec(
                dedup=DedupConfig(chunk_size=64, encoding=encoding, hop_distance=4)
            )
        ).cluster
        workload = make_workload("wikipedia", seed=22, target_bytes=150_000)
        cluster.run(workload.insert_trace())
        assert cluster.replicas_converged()

    def test_forward_mode_compresses_network_only(self):
        cluster = open_cluster(
            ClusterSpec(dedup=DedupConfig(chunk_size=64, encoding="forward"))
        ).cluster
        workload = make_workload("wikipedia", seed=22, target_bytes=150_000)
        result = cluster.run(workload.insert_trace())
        assert result.network_compression_ratio > 2.0
        assert result.storage_compression_ratio == pytest.approx(1.0, rel=0.02)

    def test_hop_reduces_decode_cost_vs_backward(self):
        from itertools import islice

        from repro.workloads.wikipedia import WikipediaWorkload

        results = {}
        for encoding in ("backward", "hop"):
            cluster = open_cluster(
                ClusterSpec(
                    dedup=DedupConfig(
                        chunk_size=64, encoding=encoding, hop_distance=4
                    )
                )
            ).cluster
            # Single article, 48 revisions → one long chain.
            workload = WikipediaWorkload(
                seed=23, target_bytes=100_000_000, num_articles=1,
                median_article_bytes=3000,
            )
            cluster.run(islice(workload.insert_trace(), 48))
            db = cluster.primary.db
            results[encoding] = max(
                db.decode_cost(record_id) for record_id in db.records
            )
        assert results["hop"] < results["backward"] / 2


class TestCombinedCompression:
    def test_dedup_plus_snappy_beats_either_alone(self):
        workload_args = dict(seed=24, target_bytes=250_000)

        def run(dedup_enabled, block):
            cluster = open_cluster(
                ClusterSpec(
                    dedup=DedupConfig(chunk_size=64),
                    dedup_enabled=dedup_enabled,
                    block_compression=block,
                )
            ).cluster
            workload = make_workload("wikipedia", **workload_args)
            return cluster.run(workload.insert_trace())

        both = run(True, "snappy")
        dedup_only = run(True, "none")
        snappy_only = run(False, "snappy")
        assert both.physical_compression_ratio > dedup_only.physical_compression_ratio
        assert both.physical_compression_ratio > snappy_only.physical_compression_ratio

"""Oplog-batch compression on the replication link."""

import pytest

from repro.core.config import DedupConfig
from repro.api import ClusterSpec, open_cluster
from repro.workloads.wikipedia import WikipediaWorkload


def run_cluster(batch_compression: str, dedup_enabled: bool = True):
    config = ClusterSpec(
        dedup=DedupConfig(chunk_size=64),
        dedup_enabled=dedup_enabled,
        batch_compression=batch_compression,
    )
    cluster = open_cluster(config).cluster
    workload = WikipediaWorkload(seed=41, target_bytes=200_000)
    result = cluster.run(workload.insert_trace())
    return cluster, result


class TestBatchCompression:
    def test_compressed_batches_cut_wire_bytes(self):
        _, plain = run_cluster("none")
        _, compressed = run_cluster("snappy")
        assert compressed.network_bytes < plain.network_bytes

    def test_uncompressed_accounting_preserved(self):
        cluster, result = run_cluster("snappy")
        # The link records both sides of the batch compressor.
        assert cluster.link.uncompressed_bytes > result.network_bytes
        assert cluster.link.batches_shipped >= 1

    def test_secondary_still_converges(self):
        cluster, _ = run_cluster("snappy")
        assert cluster.replicas_converged()

    def test_composes_with_dedup(self):
        _, baseline = run_cluster("snappy", dedup_enabled=False)
        _, stacked = run_cluster("snappy", dedup_enabled=True)
        assert stacked.network_bytes < baseline.network_bytes

    def test_unknown_compressor_rejected(self):
        with pytest.raises(ValueError, match="lzma"):
            ClusterSpec(batch_compression="lzma")

"""Full cluster on the slotted-page physical engine."""

import pytest

from repro.core.config import DedupConfig
from repro.api import ClusterSpec, open_cluster
from repro.storage.bufferpool import BufferPool
from repro.storage.heapfile import HeapFileStore
from repro.workloads.wikipedia import WikipediaWorkload


@pytest.fixture()
def physical_cluster():
    return open_cluster(
        ClusterSpec(
            dedup=DedupConfig(chunk_size=64),
            physical_storage=True,
            block_compression="zlib",
            page_size=8192,
        )
    ).cluster


class TestPhysicalCluster:
    def test_nodes_use_heapfile_store(self, physical_cluster):
        assert isinstance(physical_cluster.primary.db.pages, HeapFileStore)
        assert isinstance(physical_cluster.secondary.db.pages, HeapFileStore)

    def test_run_converges(self, physical_cluster):
        workload = WikipediaWorkload(seed=55, target_bytes=100_000)
        result = physical_cluster.run(workload.insert_trace())
        assert physical_cluster.replicas_converged()
        assert result.storage_compression_ratio > 1.5

    def test_physical_bytes_from_real_pages(self, physical_cluster):
        workload = WikipediaWorkload(seed=55, target_bytes=100_000)
        result = physical_cluster.run(workload.insert_trace())
        # Real page images include slack, but zlib squeezes the padding;
        # physical must still be well under raw.
        assert 0 < result.physical_bytes < result.logical_bytes

    def test_reads_decode_through_buffer_pool(self, physical_cluster):
        workload = WikipediaWorkload(
            seed=55, target_bytes=80_000, num_articles=1
        )
        ops = list(workload.insert_trace())
        for op in ops:
            physical_cluster.execute(op)
        physical_cluster.finalize()
        for op in ops:
            content, _ = physical_cluster.primary.read(
                op.database, op.record_id
            )
            assert content == op.content
        pool = physical_cluster.primary.db.pages.pool
        assert pool.hits + pool.misses > 0

    def test_bufferpool_metrics_count_every_page_request(
        self, physical_cluster, monkeypatch
    ):
        # Regression: the collectors looked for ``pages.pool`` while the
        # pool lived at ``pages.heap.pool``, so every physical-storage
        # run exported zeros.
        nodes = (physical_cluster.primary, physical_cluster.secondary)
        requests = {node.node_name: 0 for node in nodes}
        pools = {id(node.db.pages.pool): node.node_name for node in nodes}
        original = BufferPool.get

        def counting_get(pool, page_id):
            requests[pools[id(pool)]] += 1
            return original(pool, page_id)

        monkeypatch.setattr(BufferPool, "get", counting_get)
        workload = WikipediaWorkload(seed=55, target_bytes=100_000)
        physical_cluster.run(workload.insert_trace())
        snapshot = physical_cluster.registry.snapshot()

        def exported(family, node):
            return sum(
                row["value"]
                for row in snapshot[family]["values"]
                if row["labels"]["node"] == node
            )

        for node in requests:
            hits = exported("bufferpool_hits_total", node)
            misses = exported("bufferpool_misses_total", node)
            assert hits > 0
            assert hits + misses == requests[node]

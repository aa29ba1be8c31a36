"""One insert, observed end-to-end: spans, costs, export, reconciliation.

The acceptance scenario for the observability layer: run a dedup-friendly
workload on a traced cluster and assert that (a) a single insert's span
tree covers sketch → index lookup → source select → encode → oplog ship →
replica apply with nonzero simulated cost attribution, (b) the exported
metrics document validates and reconciles cleanly, and (c) the registry
and the legacy paper-facing counters are the same numbers (no drift).
"""

import random

from repro.core.config import DedupConfig
from repro.api import ClusterSpec
from repro.db.cluster import Cluster
from repro.obs.export import (
    check_reconciliation,
    metrics_document,
    validate_metrics_document,
)
from repro.workloads.base import Operation


def _observed_cluster() -> Cluster:
    # oplog_batch_bytes=1 ships every insert immediately, so replication
    # spans nest inside the same root as the encode stages.
    config = ClusterSpec(
        dedup=DedupConfig(chunk_size=64),
        oplog_batch_bytes=1,
        trace=True,
        sample_every_ops=5,
    )
    return Cluster(config)


def _dedup_friendly_ops(count: int = 12) -> list[Operation]:
    # Large shared base with one small localized mutation per record:
    # almost every chunk recurs, so inserts take the full dedup path.
    rng = random.Random(7)
    base = bytes(rng.randrange(256) for _ in range(32 * 1024))
    ops = []
    for i in range(count):
        mutated = bytearray(base)
        offset = 1024 + 8 * i
        mutated[offset : offset + 8] = bytes(
            rng.randrange(256) for _ in range(8)
        )
        ops.append(Operation("insert", "db", f"r{i}", bytes(mutated)))
    return ops


class TestEndToEndObservability:
    REQUIRED_SPANS = {
        "stage:sketch",
        "stage:index_lookup",
        "stage:source_select",
        "stage:forward_delta",
        "stage:writeback_plan",
        "replicate",
        "oplog_ship",
        "replica_apply",
    }

    def _run(self):
        cluster = _observed_cluster()
        cluster.run(_dedup_friendly_ops())
        assert cluster.replicas_converged()
        return cluster

    def test_one_insert_traced_through_every_layer(self):
        cluster = self._run()
        covering = [
            root
            for root in cluster.tracer.roots
            if self.REQUIRED_SPANS
            <= {span.name for span in root.walk()}
        ]
        assert covering, "no insert trace covers the full dedup path"
        costs = covering[0].total_costs()
        assert costs.get("cpu_s", 0) > 0
        assert costs.get("disk_s", 0) > 0
        assert costs.get("network_s", 0) > 0
        # The replica's apply work is attributed under its own span.
        apply_span = covering[0].find("replica_apply")
        assert apply_span.total_costs().get("cpu_s", 0) > 0

    def test_exported_document_validates_and_reconciles(self):
        cluster = self._run()
        document = metrics_document(cluster.registry, cluster.sampler)
        assert validate_metrics_document(document) == []
        assert check_reconciliation(document) == []
        assert document["series"]["samples"], "sampler recorded nothing"

    def test_registry_matches_legacy_stats_exactly(self):
        cluster = self._run()
        stats = cluster.primary.engine.stats
        registry = cluster.registry
        assert (
            registry.value("dedup_records_seen_total", "_total")
            == stats.records_seen
        )
        assert (
            registry.value("dedup_records_deduped_total", "_total")
            == stats.records_deduped
        )
        assert registry.value("dedup_bytes_in_total", "_total") == stats.bytes_in
        # Satellite 1: cache accounting is unified — the stats view, the
        # cache's own counters, and the registry agree by construction.
        source_cache = cluster.primary.engine.source_cache
        assert stats.source_cache_hits == source_cache.hits
        assert stats.source_cache_misses == source_cache.misses
        assert (
            registry.total("source_cache_hits_total") == source_cache.hits
        )
        assert (
            registry.total("source_cache_misses_total")
            == source_cache.misses
        )

    def test_node_collectors_export_native_counters(self):
        cluster = self._run()
        registry = cluster.registry
        disk = cluster.primary.db.disk
        assert (
            registry.value("disk_writes_total", "primary")
            == disk.writes
        )
        writeback = cluster.primary.db.writeback_cache
        assert (
            registry.value("writeback_cache_flushed_total", "primary")
            == writeback.flushed
        )
        assert registry.total("network_bytes_sent_total") == (
            cluster.network.bytes_sent
        )

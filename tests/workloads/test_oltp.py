"""OLTP negative-control workload."""

import pytest

from repro.core.config import DedupConfig
from repro.api import ClusterSpec, open_cluster
from repro.workloads.oltp import OltpWorkload


class TestGenerator:
    def test_meets_target(self):
        workload = OltpWorkload(seed=3, target_bytes=100_000)
        total = sum(len(op.content) for op in workload.insert_trace())
        assert total >= 100_000

    def test_records_are_small(self):
        workload = OltpWorkload(seed=3, target_bytes=50_000)
        sizes = [len(op.content) for op in workload.insert_trace()]
        assert max(sizes) < 1024

    def test_deterministic(self):
        a = [op.content for op in OltpWorkload(seed=3, target_bytes=50_000).insert_trace()]
        b = [op.content for op in OltpWorkload(seed=3, target_bytes=50_000).insert_trace()]
        assert a == b

    def test_invalid_update_fraction(self):
        with pytest.raises(ValueError):
            OltpWorkload(update_fraction=1.0)

    def test_mixed_trace_well_formed(self):
        workload = OltpWorkload(seed=3, target_bytes=60_000)
        live = set()
        kinds = set()
        for op in workload.mixed_trace():
            kinds.add(op.kind)
            if op.kind == "insert":
                live.add(op.record_id)
            else:
                assert op.record_id in live
        assert kinds == {"insert", "read", "update"}


class TestNegativeControl:
    def test_dedup_finds_little(self):
        config = ClusterSpec(
            dedup=DedupConfig(chunk_size=64, governor_window=10**9)
        )
        cluster = open_cluster(config).cluster
        workload = OltpWorkload(seed=3, target_bytes=120_000)
        result = cluster.run(workload.insert_trace())
        assert result.storage_compression_ratio < 1.3

    def test_governor_disables_oltp_database(self):
        config = ClusterSpec(
            dedup=DedupConfig(chunk_size=64, governor_window=150)
        )
        cluster = open_cluster(config).cluster
        workload = OltpWorkload(seed=3, target_bytes=120_000)
        cluster.run(workload.insert_trace())
        engine = cluster.primary.engine
        assert not engine.admission.is_enabled("oltp")
        assert engine.stats.records_bypassed > 0
        # The index partition was dropped with it.
        assert engine.index_memory_bytes == 0

    def test_mixed_trace_replicates(self):
        config = ClusterSpec(dedup=DedupConfig(chunk_size=64))
        cluster = open_cluster(config).cluster
        workload = OltpWorkload(seed=4, target_bytes=80_000)
        cluster.run(workload.mixed_trace())
        assert cluster.replicas_converged()

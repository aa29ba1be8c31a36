"""Engine state rebuild after restart (snapshot/replay recovery path)."""

import pytest

from repro.core.config import DedupConfig
from repro.core.engine import DedupEngine
from repro.api import ClusterSpec
from repro.db.cluster import Cluster
from repro.db.snapshot import dump_database, load_database
from repro.workloads.wikipedia import WikipediaWorkload


@pytest.fixture()
def restored_node():
    """A database restored from snapshot, plus the original trace."""
    cluster = Cluster(ClusterSpec(dedup=DedupConfig(chunk_size=64)))
    workload = WikipediaWorkload(seed=77, target_bytes=120_000, num_articles=2)
    ops = list(workload.insert_trace())
    for op in ops:
        cluster.execute(op)
    cluster.finalize()
    restored = load_database(dump_database(cluster.primary.db))
    # Continue the revision stream past the restart point.
    more = WikipediaWorkload(seed=77, target_bytes=240_000, num_articles=2)
    future_ops = list(more.insert_trace())[len(ops):]
    return restored, ops, future_ops


class TestRebuild:
    def test_rebuild_counts_live_records(self, restored_node):
        restored, ops, _ = restored_node
        engine = DedupEngine(config=DedupConfig(chunk_size=64, size_filter_enabled=False))
        indexed = engine.rebuild_from(restored)
        assert indexed == len(ops)
        assert engine.index_memory_bytes > 0

    def test_new_inserts_dedup_against_restored_corpus(self, restored_node):
        restored, ops, future_ops = restored_node
        if not future_ops:
            pytest.skip("trace continuation produced no extra revisions")
        engine = DedupEngine(config=DedupConfig(chunk_size=64, size_filter_enabled=False))
        engine.rebuild_from(restored, order=[op.record_id for op in ops])
        hits = 0
        for op in future_ops[:6]:
            result = engine.encode(
                op.database, op.record_id, op.content, provider=restored
            )
            restored.insert(op.database, op.record_id, op.content)
            hits += int(result.deduped)
        # Revisions of existing articles must find their restored parents.
        assert hits >= 1

    def test_without_rebuild_no_dedup(self, restored_node):
        restored, _, future_ops = restored_node
        if not future_ops:
            pytest.skip("trace continuation produced no extra revisions")
        engine = DedupEngine(config=DedupConfig(chunk_size=64, size_filter_enabled=False))
        op = future_ops[0]
        result = engine.encode(op.database, op.record_id, op.content,
                               provider=restored)
        assert not result.deduped

    def test_rebuild_skips_tombstones(self, restored_node):
        restored, ops, _ = restored_node
        victim = ops[0].record_id
        restored.records[victim].deleted = True
        engine = DedupEngine(config=DedupConfig(chunk_size=64, size_filter_enabled=False))
        indexed = engine.rebuild_from(restored)
        assert indexed == len(ops) - 1

"""Background compaction: reclaiming overlapped-encoding orphans."""

import random

import pytest

from repro.core.config import DedupConfig
from repro.core.maintenance import BackgroundCompactor
from repro.api import ClusterSpec, open_cluster
from repro.db.record import RecordForm
from repro.workloads.base import Operation
from repro.workloads.edits import revise
from repro.workloads.text import TextGenerator


def forked_cluster():
    """Build a chain with a deliberate fork, orphaning the old tail.

    v0 → v1 → v2 (normal chain), then 'fork' derives from v0 directly and
    we force the engine's selection by planting v0 as the only candidate
    the fork resembles strongly... simpler: we drive the databases through
    the cluster and then check for raw orphans generically.
    """
    cluster = open_cluster(
        ClusterSpec(
            dedup=DedupConfig(chunk_size=64, size_filter_enabled=False)
        )
    ).cluster
    rng = random.Random(5)
    text_gen = TextGenerator(seed=5)
    body = text_gen.document(4000)
    contents = {}
    previous = body
    for version in range(6):
        record_id = f"v{version}"
        cluster.execute(
            Operation("insert", "db", record_id, previous.encode())
        )
        contents[record_id] = previous.encode()
        previous = revise(rng, text_gen, previous, num_edits=2)
    # A divergent branch derived from the very first version: its edits
    # make it most similar to v0, forking the chain and orphaning v5's
    # lineage or v0's old successor depending on selection.
    branch = revise(rng, text_gen, contents["v0"].decode(), num_edits=1)
    cluster.execute(Operation("insert", "db", "branch", branch.encode()))
    contents["branch"] = branch.encode()
    cluster.finalize()
    return cluster, contents


class TestCompaction:
    def test_compactor_reduces_raw_records(self):
        cluster, contents = forked_cluster()
        db = cluster.primary.db
        raw_before = sum(
            1 for record in db.records.values()
            if record.form is RecordForm.RAW
        )
        report = cluster.primary.compact_storage()
        cluster.primary.db.drain_writebacks()
        raw_after = sum(
            1 for record in db.records.values()
            if record.form is RecordForm.RAW
        )
        assert raw_after <= raw_before
        if report.compacted:
            assert raw_after < raw_before
            assert db.logical_raw_bytes / db.stored_bytes >= 1.0

    def test_contents_intact_after_compaction(self):
        cluster, contents = forked_cluster()
        cluster.primary.compact_storage()
        cluster.primary.db.drain_writebacks()
        for record_id, expected in contents.items():
            content, _ = cluster.primary.read("db", record_id)
            assert content == expected

    def test_no_decode_cycles_after_compaction(self):
        cluster, contents = forked_cluster()
        cluster.primary.compact_storage()
        cluster.primary.db.drain_writebacks()
        for record_id in contents:
            # decode_cost raises CorruptChain on cycles.
            assert cluster.primary.db.decode_cost(record_id) >= 0

    def test_hot_tail_never_compacted(self):
        # The newest record overall can have no strictly newer base, so
        # compaction must leave it raw.
        cluster, contents = forked_cluster()
        cluster.primary.compact_storage()
        cluster.primary.db.drain_writebacks()
        newest = max(
            cluster.primary.db.records,
            key=lambda rid: cluster.primary.engine._insert_seq.get(rid, -1),
        )
        assert cluster.primary.db.records[newest].form is RecordForm.RAW

    def test_bases_point_forward_in_time(self):
        cluster, contents = forked_cluster()
        cluster.primary.compact_storage()
        cluster.primary.db.drain_writebacks()
        sequence = cluster.primary.engine._insert_seq
        for record in cluster.primary.db.records.values():
            if record.base_id is not None:
                assert sequence.get(record.base_id, -1) > sequence.get(
                    record.record_id, -1
                )

    def test_compaction_on_dedup_disabled_node(self):
        cluster = open_cluster(ClusterSpec(dedup_enabled=False)).cluster
        cluster.execute(Operation("insert", "db", "r", b"data " * 50))
        assert cluster.primary.compact_storage() is None

    def test_idempotent_when_nothing_to_do(self):
        cluster, _ = forked_cluster()
        cluster.primary.compact_storage()
        cluster.primary.db.drain_writebacks()
        second = cluster.primary.compact_storage()
        # Second pass finds nothing new to compact.
        assert second.compacted == 0


class TestMutualOrphanSafety:
    def test_two_similar_orphans_do_not_cycle(self):
        """Two raw records most similar to each other must not end up
        encoding against one another."""
        cluster = open_cluster(
            ClusterSpec(
                dedup=DedupConfig(
                    chunk_size=64, size_filter_enabled=False,
                    min_savings_ratio=0.99,
                )
            )
        ).cluster
        text_gen = TextGenerator(seed=8)
        rng = random.Random(8)
        base = text_gen.document(3000)
        twin = revise(rng, text_gen, base, num_edits=1)
        # Insert as unique (engine may or may not link them; force raw by
        # clearing the write-back cache afterwards).
        cluster.execute(Operation("insert", "db", "a", base.encode()))
        cluster.execute(Operation("insert", "db", "b", twin.encode()))
        db = cluster.primary.db
        db.writeback_cache.drain()
        # Both raw now (any queued delta was drained without applying).
        report = cluster.primary.compact_storage()
        db.drain_writebacks()
        for record_id, expected in (("a", base.encode()), ("b", twin.encode())):
            content, _ = cluster.primary.read("db", record_id)
            assert content == expected
            db.decode_cost(record_id)  # raises on cycles

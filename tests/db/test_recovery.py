"""Oplog-replay recovery."""

import pytest

from repro.core.config import DedupConfig
from repro.api import ClusterSpec, open_cluster
from repro.db.oplog import OplogEntry
from repro.db.recovery import replay_oplog
from repro.workloads.base import Operation
from repro.workloads.wikipedia import WikipediaWorkload


@pytest.fixture()
def run_cluster():
    cluster = open_cluster(
        ClusterSpec(dedup=DedupConfig(chunk_size=64))
    ).cluster
    workload = WikipediaWorkload(seed=61, target_bytes=150_000)
    ops = list(workload.insert_trace())
    for op in ops:
        cluster.execute(op)
    # Mix in an update and a delete so replay covers every op type.
    cluster.execute(Operation("update", "wikipedia", ops[0].record_id,
                              b"post-crash update " * 8))
    cluster.execute(Operation("delete", "wikipedia", ops[1].record_id))
    cluster.finalize()
    return cluster, ops


class TestReplay:
    def test_replay_reproduces_client_state(self, run_cluster):
        cluster, ops = run_cluster
        recovered, report = replay_oplog(cluster.primary.oplog.entries())
        assert report.decode_failures == 0
        for op in ops:
            expected, _ = cluster.primary.db.read("wikipedia", op.record_id)
            actual, _ = recovered.read("wikipedia", op.record_id)
            assert actual == expected
        assert report.applied == len(ops) + 2

    def test_replay_stores_raw(self, run_cluster):
        cluster, ops = run_cluster
        recovered, _ = replay_oplog(cluster.primary.oplog.entries())
        # Recovery deliberately skips storage re-encoding.
        assert all(record.is_raw or record.pending_updates
                   for record in recovered.records.values())

    def test_partial_log_prefix_is_consistent(self, run_cluster):
        cluster, ops = run_cluster
        entries = cluster.primary.oplog.entries()
        prefix = entries[: len(entries) // 2]
        recovered, report = replay_oplog(prefix)
        assert report.decode_failures == 0
        # Every record the prefix created reads back.
        for entry in prefix:
            if entry.op == "insert":
                content, _ = recovered.read(entry.database, entry.record_id)
                assert content is not None

    def test_dangling_operations_counted_not_fatal(self):
        entries = [
            OplogEntry(0, 0.0, "delete", "db", "never-existed"),
            OplogEntry(1, 0.0, "update", "db", "also-missing", payload=b"x"),
            OplogEntry(2, 0.0, "insert", "db", "ok", payload=b"fine"),
        ]
        recovered, report = replay_oplog(entries)
        assert report.skipped == 2
        assert report.applied == 1
        content, _ = recovered.read("db", "ok")
        assert content == b"fine"

    def test_missing_base_counted(self):
        entries = [
            OplogEntry(0, 0.0, "insert", "db", "child", payload=b"\x01\x00\x05",
                       base_id="ghost", encoded=True),
        ]
        recovered, report = replay_oplog(entries)
        assert report.decode_failures == 1
        assert len(recovered.records) == 0


class TestReplayReportPaths:
    """Every skipped / decode-failure branch of ``replay_oplog``."""

    def test_garbage_delta_payload_is_a_decode_failure(self):
        entries = [
            OplogEntry(0, 0.0, "insert", "db", "base", payload=b"base bytes"),
            OplogEntry(1, 0.0, "insert", "db", "child",
                       payload=b"\xff\xff not a delta", base_id="base",
                       encoded=True),
        ]
        recovered, report = replay_oplog(entries)
        assert report.decode_failures == 1
        assert report.applied == 1
        content, _ = recovered.read("db", "base")
        assert content == b"base bytes"
        assert "child" not in recovered.records

    def test_duplicate_insert_is_skipped_not_fatal(self):
        entries = [
            OplogEntry(0, 0.0, "insert", "db", "r", payload=b"first"),
            OplogEntry(1, 0.0, "insert", "db", "r", payload=b"second"),
        ]
        recovered, report = replay_oplog(entries)
        assert report.applied == 1
        assert report.skipped == 1
        content, _ = recovered.read("db", "r")
        assert content == b"first"

    def test_unknown_op_is_skipped(self):
        entries = [OplogEntry(0, 0.0, "noop", "db", "r", payload=b"")]
        _, report = replay_oplog(entries)
        assert report.skipped == 1
        assert report.applied == 0

    def test_encoded_entry_decodes_against_into_database(self):
        """A snapshot-seeded replay finds forward-delta bases in ``into``."""
        from repro.db.database import Database
        from repro.delta.dbdelta import DeltaCompressor

        base_content = b"the quick brown fox jumps over the lazy dog" * 8
        child_content = base_content.replace(b"lazy", b"sleepy")
        seeded = Database()
        seeded.insert("db", "base", base_content)
        forward = DeltaCompressor().compress(base_content, child_content)
        entries = [
            OplogEntry(0, 0.0, "insert", "db", "child",
                       payload=forward, base_id="base",
                       encoded=True),
        ]
        recovered, report = replay_oplog(entries, into=seeded)
        assert report.decode_failures == 0
        assert report.applied == 1
        content, _ = recovered.read("db", "child")
        assert content == child_content

    def test_mixed_failures_still_salvage_the_rest(self):
        entries = [
            OplogEntry(0, 0.0, "insert", "db", "a", payload=b"alpha"),
            OplogEntry(1, 0.0, "insert", "db", "b", payload=b"\x00",
                       base_id="ghost", encoded=True),   # missing base
            OplogEntry(2, 0.0, "delete", "db", "ghost"),  # missing target
            OplogEntry(3, 0.0, "update", "db", "a", payload=b"alpha v2"),
            OplogEntry(4, 0.0, "insert", "db", "a", payload=b"dup"),
        ]
        recovered, report = replay_oplog(entries)
        assert report.applied == 2
        assert report.skipped == 2
        assert report.decode_failures == 1
        content, _ = recovered.read("db", "a")
        assert content == b"alpha v2"

"""Checkpointing: snapshot + oplog truncation + recovery from both."""

import pytest

from repro.core.config import DedupConfig
from repro.api import ClusterSpec, open_cluster
from repro.db.node import SecondaryNode
from repro.db.oplog import Oplog
from repro.db.recovery import replay_oplog
from repro.db.snapshot import load_snapshot
from repro.workloads.base import Operation
from repro.workloads.wikipedia import WikipediaWorkload


class TestOplogTruncation:
    def test_truncate_synced_prefix(self):
        oplog = Oplog()
        for index in range(5):
            oplog.append(0.0, "insert", "db", f"r{index}", payload=b"x")
        oplog.take_unsynced()
        dropped = oplog.truncate_before(3)
        assert dropped == 3
        assert oplog.truncated_before == 3
        assert [entry.seq for entry in oplog.entries()] == [3, 4]

    def test_seq_continues_after_truncation(self):
        oplog = Oplog()
        for index in range(3):
            oplog.append(0.0, "insert", "db", f"r{index}")
        oplog.take_unsynced()
        oplog.truncate_before(3)
        entry = oplog.append(0.0, "insert", "db", "r3")
        assert entry.seq == 3

    def test_refuses_cutting_unsynced_entries(self):
        # With the built-in single-consumer cursor in use, unshipped
        # entries are protected.
        oplog = Oplog()
        oplog.append(0.0, "insert", "db", "r0")
        oplog.take_unsynced()
        oplog.append(0.0, "insert", "db", "r1")  # not yet shipped
        with pytest.raises(ValueError):
            oplog.truncate_before(2)
        assert oplog.truncate_before(1) == 1

    def test_uncoordinated_log_truncates_freely(self):
        # Without any consumer, the caller owns coordination.
        oplog = Oplog()
        oplog.append(0.0, "insert", "db", "r0")
        assert oplog.truncate_before(1) == 1

    def test_cursor_into_truncated_region_rejected(self):
        oplog = Oplog()
        for index in range(4):
            oplog.append(0.0, "insert", "db", f"r{index}")
        oplog.take_unsynced()
        oplog.truncate_before(2)
        with pytest.raises(ValueError):
            oplog.entries_since(0)
        assert len(oplog.entries_since(2)) == 2

    def test_idempotent_truncation(self):
        oplog = Oplog()
        oplog.append(0.0, "insert", "db", "r0")
        oplog.take_unsynced()
        oplog.truncate_before(1)
        assert oplog.truncate_before(1) == 0


class TestClusterCheckpoint:
    def test_checkpoint_then_recover(self, tmp_path):
        cluster = open_cluster(
            ClusterSpec(dedup=DedupConfig(chunk_size=64))
        ).cluster
        workload = WikipediaWorkload(seed=44, target_bytes=120_000)
        ops = list(workload.insert_trace())
        midpoint = len(ops) // 2
        for op in ops[:midpoint]:
            cluster.execute(op)
        cluster.link.sync()
        path = tmp_path / "ckpt.snapshot"
        discarded = cluster.checkpoint(path)
        assert discarded > 0
        # More writes after the checkpoint.
        for op in ops[midpoint:]:
            cluster.execute(op)
        cluster.finalize()

        # Disaster: rebuild from snapshot + retained oplog tail.
        recovered = load_snapshot(path)
        tail = cluster.primary.oplog.entries()
        recovered, report = replay_oplog(tail, into=recovered)
        assert report.decode_failures == 0
        for op in ops:
            expected, _ = cluster.primary.db.read("wikipedia", op.record_id)
            actual, _ = recovered.read("wikipedia", op.record_id)
            assert actual == expected

    def test_checkpoint_respects_lagging_replica(self, tmp_path):
        cluster = open_cluster(
            ClusterSpec(
                dedup=DedupConfig(chunk_size=64),
                num_secondaries=2,
                oplog_batch_bytes=10_000_000,
            )
        ).cluster
        for index in range(5):
            cluster.execute(
                Operation("insert", "db", f"r{index}", b"payload " * 50)
            )
        cluster.links[0].sync()  # replica 0 caught up; replica 1 lagging
        discarded = cluster.checkpoint(tmp_path / "c.snapshot")
        assert discarded == 0  # replica 1 still needs everything
        cluster.links[1].sync()
        assert cluster.checkpoint(tmp_path / "c2.snapshot") == 5


class TestTruncatedHistory:
    """A checkpoint-truncated oplog cannot rebuild a node on its own."""

    CONTENT = b"payload " * 50

    def _checkpointed(self, tmp_path, **overrides):
        cluster = open_cluster(
            ClusterSpec(oplog_batch_bytes=1, **overrides)
        ).cluster
        for index in range(5):
            cluster.execute(
                Operation("insert", "db", f"r{index}", self.CONTENT)
            )
        assert cluster.checkpoint(tmp_path / "c.snapshot") == 5
        return cluster

    def test_restart_refuses_and_leaves_the_node_down(self, tmp_path):
        cluster = self._checkpointed(tmp_path)
        primary = cluster.primary
        store, engine = primary.db, primary.engine
        primary.crash()
        with pytest.raises(ValueError, match="truncated at a checkpoint"):
            primary.restart()
        assert not primary.is_available
        assert primary.db is store and primary.engine is engine
        assert store.fetch_content("r0") == self.CONTENT
        # The documented remedy: the snapshot, then the retained tail.
        recovered, _ = replay_oplog(
            primary.oplog.entries(),
            into=load_snapshot(tmp_path / "c.snapshot"),
        )
        assert recovered.fetch_content("r4") == self.CONTENT

    def test_demotion_refuses_before_dropping_any_entry(self, tmp_path):
        cluster = self._checkpointed(tmp_path)
        old = cluster.primary
        old.insert("db", "r5", self.CONTENT)
        with pytest.raises(ValueError, match="recovery needs"):
            SecondaryNode.from_demoted_primary(old, 5)
        assert [entry.record_id for entry in old.oplog.entries()] == ["r5"]

    def test_rejoin_is_blocked_and_leaves_the_node_out(self, tmp_path):
        cluster = self._checkpointed(tmp_path, num_secondaries=2)
        old = cluster.primary
        old.crash()
        cluster.failover.settle()
        kinds = [event.kind for event in cluster.failover.events]
        assert kinds == ["promote", "rejoin-blocked"]
        assert cluster.primary is not old
        assert cluster.failover.awaiting_rejoin is None
        assert len(cluster.secondaries) == 1
        assert all(node.node_name != old.node_name for _, node in cluster.nodes())

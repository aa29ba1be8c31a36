"""Unit tests for the failover subsystem: checksums, divergence, election.

Everything cluster-shaped is built through the public API
(:func:`repro.api.open_cluster`); the ``.cluster`` escape hatch exposes
the internals under test.
"""

from __future__ import annotations

import pytest

from repro.api import ClusterSpec, NodeUnavailableError, open_cluster
from repro.db import divergence_point
from repro.db.oplog import Oplog


def make_cluster(**overrides):
    defaults = dict(num_secondaries=2, oplog_batch_bytes=1)
    defaults.update(overrides)
    return open_cluster(ClusterSpec(**defaults)).cluster


class TestEntryChecksum:
    def test_position_independent(self):
        first, second = Oplog(), Oplog()
        first.append(1.0, "insert", "db", "r1", b"payload")
        second.append(9.0, "insert", "db", "r1", b"payload")
        a, b = first.entry_at(0), second.entry_at(0)
        assert a.timestamp != b.timestamp
        assert a.checksum == b.checksum

    def test_sensitive_to_content_and_operation(self):
        log = Oplog()
        base = log.append(0.0, "insert", "db", "r1", b"payload")
        other_payload = Oplog().append(0.0, "insert", "db", "r1", b"payloaX")
        other_op = Oplog().append(0.0, "update", "db", "r1", b"payload")
        other_base = Oplog().append(
            0.0, "insert", "db", "r1", b"payload", base_id="r0", encoded=True
        )
        assert base.checksum != other_payload.checksum
        assert base.checksum != other_op.checksum
        assert base.checksum != other_base.checksum


class TestTruncateFrom:
    def _log(self, count: int) -> Oplog:
        log = Oplog()
        for index in range(count):
            log.append(0.0, "insert", "db", f"r{index}", b"x" * 10)
        return log

    def test_drops_suffix_and_returns_it(self):
        log = self._log(5)
        dropped = log.truncate_from(3)
        assert [entry.record_id for entry in dropped] == ["r3", "r4"]
        assert log.next_seq == 3
        assert log.entry_at(3) is None
        assert log.entry_at(2).record_id == "r2"

    def test_appends_counter_is_monotonic(self):
        log = self._log(5)
        log.truncate_from(2)
        assert len(log) == 2
        assert log.appends == 5
        log.append(0.0, "insert", "db", "again", b"y")
        assert log.appends == 6

    def test_noop_at_or_past_head(self):
        log = self._log(3)
        assert log.truncate_from(3) == []
        assert log.truncate_from(7) == []
        assert log.next_seq == 3

    def test_refuses_checkpointed_history(self):
        log = self._log(6)
        log.take_unsynced()
        log.truncate_before(4)
        with pytest.raises(ValueError, match="checkpoint"):
            log.truncate_from(2)

    def test_total_bytes_shrink(self):
        log = self._log(4)
        before = log.total_bytes
        dropped = log.truncate_from(1)
        assert log.total_bytes == before - sum(e.wire_size for e in dropped)


class TestDivergencePoint:
    def _fill(self, log: Oplog, ids) -> None:
        for record_id in ids:
            log.append(0.0, "insert", "db", record_id, record_id.encode())

    def test_identical_logs_agree_at_head(self):
        ours, theirs = Oplog(), Oplog()
        self._fill(ours, ["a", "b", "c"])
        self._fill(theirs, ["a", "b", "c"])
        assert divergence_point(ours, theirs) == 3

    def test_lagging_log_points_at_own_head(self):
        ours, theirs = Oplog(), Oplog()
        self._fill(ours, ["a", "b"])
        self._fill(theirs, ["a", "b", "c", "d"])
        assert divergence_point(ours, theirs) == 2

    def test_first_mismatch_wins(self):
        ours, theirs = Oplog(), Oplog()
        self._fill(ours, ["a", "b", "x", "y"])
        self._fill(theirs, ["a", "b", "c"])
        assert divergence_point(ours, theirs) == 2

    def test_no_overlap_needs_snapshot(self):
        ours, theirs = Oplog(), Oplog()
        self._fill(ours, ["a"])
        self._fill(theirs, ["a", "b", "c", "d", "e"])
        theirs.take_unsynced()
        theirs.truncate_before(3)
        assert divergence_point(ours, theirs) is None


class TestElection:
    def test_most_caught_up_secondary_wins(self):
        # Nothing ships on its own (huge threshold); hand-sync replica 1
        # so it is strictly more caught up than replica 0 at the crash.
        cluster = make_cluster(oplog_batch_bytes=1 << 30)
        client_ops = [("db", f"e/{i}", b"v" * 200) for i in range(8)]
        for database, record_id, content in client_ops:
            cluster.primary.insert(database, record_id, content)
        cluster.links[1].sync()
        assert cluster.secondaries[1].oplog.next_seq > 0
        assert cluster.secondaries[0].oplog.next_seq == 0
        cluster.primary.crash()
        cluster.failover.settle()
        assert cluster.failover.failovers == 1
        assert cluster.primary.node_name == "secondary1"

    def test_tie_breaks_to_lowest_index(self):
        cluster = make_cluster()
        cluster.execute_insert_batch([])  # no-op; links stay at seq 0
        cluster.primary.crash()
        cluster.failover.settle()
        assert cluster.primary.node_name == "secondary0"

    def test_promoted_index_backlog_drains(self):
        cluster = make_cluster()
        for index in range(12):
            cluster.primary.insert("db", f"e/{index}", bytes([index]) * 300)
        for link in cluster.links:
            link.sync()
        cluster.primary.crash()
        cluster.failover.settle()
        assert cluster.primary.index_backlog_len == 0
        assert cluster.primary.engine is not None


    @pytest.mark.parametrize("compression", ["none", "zlib"])
    def test_promoted_and_rejoined_nodes_run_the_same_spec(self, compression):
        # Promotion and rejoin rebuild nodes from the spec, not from a
        # field-by-field copy: the promoted primary charges inline
        # compression CPU exactly when the spec compresses pages (the
        # copy used to charge it always), and keeps the write-back knob.
        cluster = make_cluster(
            block_compression=compression, use_writeback_cache=False
        )
        spec = cluster.config
        cluster.primary.insert("db", "r1", b"x" * 300)
        cluster.primary.crash()
        cluster.failover.settle()
        promoted = cluster.primary
        assert promoted.node_name.startswith("secondary")
        assert promoted.spec is spec
        assert promoted.inline_block_compression is (compression != "none")
        assert promoted.use_writeback_cache is False
        assert all(node.spec is spec for _, node in cluster.nodes())
        assert len(cluster.secondaries) == 2  # old primary rejoined


class TestUnavailableErrors:
    def test_disabled_failover_raises_typed_error(self):
        cluster = make_cluster(failover_enabled=False)
        cluster.primary.crash()
        with pytest.raises(NodeUnavailableError) as caught:
            cluster.primary.insert("db", "r1", b"x")
        assert caught.value.retriable is True
        assert caught.value.node_name == "primary"

    def test_reads_and_mutations_guarded(self):
        cluster = make_cluster(failover_enabled=False)
        cluster.primary.insert("db", "r1", b"x")
        cluster.primary.crash()
        for method, args in [
            ("read", ("db", "r1")),
            ("update", ("db", "r1", b"y")),
            ("delete", ("db", "r1")),
        ]:
            with pytest.raises(NodeUnavailableError):
                getattr(cluster.primary, method)(*args)

    def test_crashed_secondary_not_shipped_to(self):
        cluster = make_cluster(oplog_batch_bytes=1 << 30)
        cluster.primary.insert("db", "r1", b"x" * 100)
        cluster.secondaries[0].crash()
        assert cluster.links[0].sync() == 0
        assert cluster.links[0].cursor == 0
        assert cluster.links[1].sync() > 0

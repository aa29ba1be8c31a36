"""Unit tests for the invariant checker: every check catches its seeded bug."""

from zlib import crc32

import pytest

from repro.core.config import DedupConfig
from repro.api import ClusterSpec
from repro.db.cluster import Cluster
from repro.db.database import Database
from repro.db.invariants import (
    ClusterInvariantError,
    InvariantReport,
    check_cluster,
    check_database,
)
from repro.db.record import RecordForm
from repro.index.cuckoo import CuckooFeatureIndex
from repro.workloads.base import Operation


def checks_of(report):
    return {violation.check for violation in report.violations}


def make_db(count=4):
    db = Database()
    for index in range(count):
        db.insert("db", f"r{index}", b"payload %d " % index * 20)
    return db


class TestDatabaseChecks:
    def test_clean_database_passes(self):
        report = check_database(make_db())
        assert report.ok
        assert report.nodes_checked == 1
        assert report.records_checked == 4

    def test_corrupt_payload_fails_checksum(self):
        db = make_db()
        db.records["r1"].payload = b"flipped bits"
        report = check_database(db)
        assert "checksum" in checks_of(report)

    def test_unrepaired_quarantine_is_a_violation(self):
        db = make_db()
        db.quarantine.add("r2")
        report = check_database(db)
        assert "checksum" in checks_of(report)

    def test_wrong_ref_count_is_caught(self):
        db = make_db()
        db.records["r0"].ref_count += 1
        report = check_database(db)
        assert "refcount" in checks_of(report)

    def test_tombstone_with_no_referents_is_caught(self):
        db = make_db()
        db.records["r3"].deleted = True  # bypass delete(): fake leaked stone
        report = check_database(db)
        assert "tombstone" in checks_of(report)

    def test_dangling_base_is_caught(self):
        db = make_db()
        record = db.records["r2"]
        record.form = RecordForm.DELTA
        record.base_id = "ghost"
        report = check_database(db)
        assert "structure" in checks_of(report)

    def test_raw_record_with_base_pointer_is_caught(self):
        db = make_db()
        db.records["r0"].base_id = "r1"
        report = check_database(db)
        assert "structure" in checks_of(report)

    def test_base_pointer_cycle_is_caught(self):
        db = make_db()
        for record_id, base_id in (("r0", "r1"), ("r1", "r0")):
            record = db.records[record_id]
            record.form = RecordForm.DELTA
            record.base_id = base_id
            record.ref_count = 1
        report = check_database(db)
        assert "structure" in checks_of(report)

    def test_index_referencing_dead_record_is_caught(self):
        db = make_db()
        index = CuckooFeatureIndex()
        index.insert(0x1234, "r1")
        index.insert(0x5678, "zombie")  # never stored
        report = check_database(db, index_partitions=[("db", index)])
        assert "index" in checks_of(report)
        assert any(
            violation.record_id == "zombie" for violation in report.violations
        )

    def test_oplog_divergence_is_caught(self):
        cluster = Cluster(ClusterSpec())
        cluster.execute(Operation("insert", "db", "r0", b"truth " * 30))
        db = cluster.primary.db
        # Store different bytes but keep the checksum honest, so only the
        # replay ground-truth check can see the divergence.
        db.records["r0"].payload = b"lies " * 30
        db._checksums["r0"] = crc32(db.records["r0"].payload)
        report = check_database(db, oplog=cluster.primary.oplog)
        assert report.oplog_checked
        assert "oplog" in checks_of(report)

    def test_truncated_oplog_skips_ground_truth(self):
        cluster = Cluster(ClusterSpec())
        for index in range(4):
            cluster.execute(
                Operation("insert", "db", f"r{index}", b"x %d " % index * 20)
            )
        cluster.finalize()
        oplog = cluster.primary.oplog
        oplog.truncate_before(2)
        report = check_database(cluster.primary.db, oplog=oplog)
        assert not report.oplog_checked
        assert report.ok


class TestHopBoundGating:
    def test_clean_drained_cluster_arms_the_bound(self):
        cluster = Cluster(
            ClusterSpec(
                dedup=DedupConfig(chunk_size=64, size_filter_enabled=False)
            )
        )
        base = b"the quick brown fox jumps over the lazy dog " * 30
        for index in range(12):
            content = base + b"variant %d" % index
            cluster.execute(Operation("insert", "db", f"r{index}", content))
        report = check_cluster(cluster)
        assert report.ok
        assert report.hop_bound_checked

    def test_pending_writebacks_disarm_the_bound(self):
        from repro.cache.writeback import WriteBackEntry
        from repro.delta.dbdelta import DeltaCompressor
        from repro.delta.instructions import serialize

        cluster = Cluster(
            ClusterSpec(
                dedup=DedupConfig(chunk_size=64, size_filter_enabled=False)
            )
        )
        base = b"the quick brown fox jumps over the lazy dog " * 30
        for index in range(4):
            content = base + b"variant %d" % index
            cluster.execute(Operation("insert", "db", f"r{index}", content))
        # Hold one write-back in the cache: the conditional bound must not
        # arm while a planned encoding has yet to land.
        delta = DeltaCompressor().compress(base + b"variant 1", base + b"variant 0")
        cluster.primary.db.schedule_writebacks(
            [
                WriteBackEntry(
                    record_id="r0",
                    base_id="r1",
                    payload=serialize(delta),
                    space_saving=100,
                )
            ]
        )
        assert len(cluster.primary.db.writeback_cache) > 0
        report = check_database(
            cluster.primary.db,
            node="primary",
            planner=cluster.primary.engine.planner,
        )
        assert not report.hop_bound_checked


class TestClusterCheck:
    def _loaded_cluster(self):
        cluster = Cluster(ClusterSpec())
        for index in range(6):
            cluster.execute(
                Operation("insert", "db", f"r{index}", b"content %d " % index * 25)
            )
        cluster.finalize()
        return cluster

    def test_clean_cluster_passes_strict(self):
        cluster = self._loaded_cluster()
        report = check_cluster(cluster)
        assert report.ok
        assert report.nodes_checked == 2
        assert report.convergence_checked
        assert report.oplog_checked

    def test_lost_replica_record_fails_convergence(self):
        cluster = self._loaded_cluster()
        del cluster.secondary.db.records["r3"]
        report = check_cluster(cluster, strict=False)
        assert "convergence" in checks_of(report)

    def test_strict_mode_raises_with_the_report(self):
        cluster = self._loaded_cluster()
        del cluster.secondary.db.records["r3"]
        with pytest.raises(ClusterInvariantError) as excinfo:
            check_cluster(cluster)
        assert not excinfo.value.report.ok
        assert "FAILED" in str(excinfo.value)

    def test_check_resumes_a_suspended_fault_plan(self):
        from repro.sim.faults import DropBatches, FaultPlan

        cluster = self._loaded_cluster()
        plan = FaultPlan(seed=1, rules=[DropBatches(every=1000)])
        plan.install(cluster)
        check_cluster(cluster)
        assert plan.active  # resumed after the sweep
        plan.suspend()
        check_cluster(cluster)
        assert not plan.active  # stays suspended if it was suspended


class TestReportFormatting:
    def test_ok_summary(self):
        report = InvariantReport(nodes_checked=2, records_checked=10)
        report.oplog_checked = True
        text = report.summary()
        assert "OK" in text
        assert "2 node(s)" in text
        assert "oplog" in text

    def test_failure_summary_lists_violations(self):
        report = InvariantReport(nodes_checked=1, records_checked=3)
        report.add("primary", "checksum", "stored payload fails checksum", "r1")
        text = report.summary()
        assert "FAILED" in text
        assert "[checksum] primary/r1" in text

    def test_violation_cap(self):
        from repro.db.invariants import MAX_VIOLATIONS

        report = InvariantReport()
        for index in range(MAX_VIOLATIONS + 50):
            report.add("primary", "decode", "boom", f"r{index}")
        assert len(report.violations) == MAX_VIOLATIONS

"""Unit tests for the invariant checker: every check catches its seeded bug."""

from zlib import crc32

import pytest

from repro.core.config import DedupConfig
from repro.api import ClusterSpec, open_cluster
from repro.db.database import Database
from repro.db.invariants import (
    ClusterInvariantError,
    InvariantReport,
    check_cluster,
    check_database,
)
from repro.db.record import RecordForm
from repro.index.cuckoo import CuckooFeatureIndex
from repro.workloads import WikipediaWorkload
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
        cluster = open_cluster(ClusterSpec()).cluster
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
        cluster = open_cluster(ClusterSpec()).cluster
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
        cluster = open_cluster(
            ClusterSpec(
                dedup=DedupConfig(chunk_size=64, size_filter_enabled=False)
            )
        ).cluster
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

        cluster = open_cluster(
            ClusterSpec(
                dedup=DedupConfig(chunk_size=64, size_filter_enabled=False)
            )
        ).cluster
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
                    payload=delta,
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

    def test_dangling_base_is_reported_with_the_bound_armed(self):
        # The hop-bound check walks every chain; a base pointer into
        # nothing must surface as a structure violation, not a KeyError.
        cluster = open_cluster(
            ClusterSpec(dedup=DedupConfig(chunk_size=64, encoding="hop"))
        ).cluster
        cluster.run(WikipediaWorkload(7, 60_000).insert_trace())
        db = cluster.primary.db
        victim = next(
            record for record in db.records.values()
            if record.form is RecordForm.DELTA
        )
        victim.base_id = "ghost"
        report = check_database(db, planner=cluster.primary.engine.planner)
        assert report.hop_bound_checked
        assert any(
            violation.check == "structure"
            and "dangling base" in violation.detail
            for violation in report.violations
        )


class TestClusterCheck:
    def _loaded_cluster(self):
        cluster = open_cluster(ClusterSpec()).cluster
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


def details(report, check):
    return [
        (violation.record_id, violation.detail)
        for violation in report.violations
        if violation.check == check
    ]


class TestViolationMessages:
    """One seeded fault per oplog / convergence message, named exactly."""

    def _logged_cluster(self):
        cluster = open_cluster(ClusterSpec()).cluster
        for index in range(3):
            cluster.execute(
                Operation("insert", "db", f"r{index}", b"logged %d " % index * 25)
            )
        return cluster

    def _loaded_cluster(self):
        cluster = self._logged_cluster()
        cluster.finalize()
        return cluster

    def test_unlogged_record_is_absent_from_oplog_replay(self):
        cluster = self._logged_cluster()
        db = cluster.primary.db
        db.insert("db", "stray", b"never logged " * 20)  # bypasses the oplog
        report = check_database(db, oplog=cluster.primary.oplog)
        assert details(report, "oplog") == [
            ("stray", "live record absent from oplog replay")
        ]

    def test_unlogged_delete_is_a_record_the_store_lost(self):
        cluster = self._logged_cluster()
        db = cluster.primary.db
        db.delete("r1")  # bypasses the oplog
        report = check_database(db, oplog=cluster.primary.oplog)
        assert details(report, "oplog") == [
            ("r1", "oplog replay yields record the store lost")
        ]

    def test_unlogged_update_diverges_from_oplog_replay(self):
        cluster = self._logged_cluster()
        db = cluster.primary.db
        db.update("r2", b"rewritten " * 5)  # bypasses the oplog
        report = check_database(db, oplog=cluster.primary.oplog)
        [(record_id, detail)] = details(report, "oplog")
        assert record_id == "r2"
        assert detail.startswith("content diverges from oplog replay")
        assert "(50 vs 225 bytes)" in detail

    def test_undelivered_tail_leaves_the_cursor_behind(self, monkeypatch):
        cluster = self._loaded_cluster()
        monkeypatch.setattr(cluster.links[0], "sync", lambda: 0)
        cluster.execute(Operation("insert", "db", "late", b"undelivered " * 20))
        head = cluster.primary.oplog.next_seq
        report = check_cluster(cluster, strict=False)
        assert (
            None,
            f"replication cursor {cluster.links[0].cursor} behind oplog "
            f"head {head}",
        ) in details(report, "convergence")
        assert ("late", "missing replicated record") in details(
            report, "convergence"
        )
        assert not cluster.replicas_converged()

    def test_lost_replica_record_is_a_missing_replicated_record(self):
        cluster = self._loaded_cluster()
        cluster.secondary.db.delete("r1")
        report = check_cluster(cluster, strict=False)
        assert details(report, "convergence") == [
            ("r1", "missing replicated record")
        ]
        assert not cluster.replicas_converged()

    def test_extra_replica_record_is_absent_on_primary(self):
        cluster = self._loaded_cluster()
        cluster.secondary.db.insert("db", "extra", b"replica only " * 20)
        report = check_cluster(cluster, strict=False)
        assert details(report, "convergence") == [
            ("extra", "record absent on primary")
        ]
        assert not cluster.replicas_converged()

    def test_replica_content_diverges_from_primary(self):
        cluster = self._loaded_cluster()
        cluster.secondary.db.update("r0", b"drifted " * 5)
        report = check_cluster(cluster, strict=False)
        assert details(report, "convergence") == [
            ("r0", "content diverges from primary (40 vs 225 bytes)")
        ]
        assert not cluster.replicas_converged()


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

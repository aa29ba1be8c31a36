"""Unit tests for the rollback-safe garbage collector.

Chains are built by hand (insert raw, then convert to deltas) so every
test controls exactly which record is a base, a dependent, or a
tombstone — the GC's planner must find precisely the cohorts these
fixtures construct and nothing else.
"""

from __future__ import annotations

import random

import pytest

from repro.core.gc import (
    OUTCOME_APPLIED,
    OUTCOME_NOOP,
    OUTCOME_ROLLED_BACK,
    GarbageCollector,
)
from repro.db.database import Database
from repro.db.invariants import check_database
from repro.db.record import RecordForm
from repro.delta.dbdelta import DeltaCompressor


def _content(seed: int, size: int = 4000) -> bytes:
    rng = random.Random(seed)
    return bytes(rng.getrandbits(8) for _ in range(size))


def _make_delta(db: Database, record_id: str, base_id: str) -> None:
    """Convert a stored raw record into a delta against ``base_id``."""
    compressor = DeltaCompressor()
    record = db.records[record_id]
    base_content = db.decode_stored_content(base_id)
    content = db.decode_stored_content(record_id)
    record.payload = compressor.compress(base_content, content)
    record.form = RecordForm.DELTA
    record.base_id = base_id
    db.records[base_id].ref_count += 1
    db.pages.update(record_id, db._disk_image(record))
    db._note_checksum(record)


def _chain(db: Database, contents: dict[str, bytes], edges: list[tuple[str, str]]):
    """Insert ``contents`` raw, then delta-link every (child, base) edge."""
    for record_id, content in contents.items():
        db.insert("d", record_id, content)
    for child, base in edges:
        _make_delta(db, child, base)


class TestPlan:
    def test_clean_store_plans_nothing(self):
        db = Database()
        db.insert("d", "a", _content(1))
        plan = GarbageCollector(db).plan()
        assert plan.empty
        assert plan.estimated_reclaim_bytes == 0

    def test_tombstone_with_dependent_is_planned(self):
        db = Database()
        base = _content(1)
        _chain(db, {"a": base, "b": base[:3000] + b"x" + base[3000:]},
               [("b", "a")])
        db.delete("a")
        plan = GarbageCollector(db).plan()
        assert len(plan.reroots) == 1
        action = plan.reroots[0]
        assert action.tombstone_id == "a"
        assert action.dependent_ids == ("b",)
        assert action.grandbase_id is None  # raw tombstone -> promotion
        assert plan.reclaimable_bytes == db.records["a"].stored_size

    def test_middle_tombstone_reroots_onto_grandbase(self):
        db = Database()
        base = _content(1)
        _chain(
            db,
            {
                "a": base,
                "b": base[:2000] + b"y" + base[2000:],
                "c": base[:1000] + b"z" + base[1000:],
            },
            [("b", "a"), ("c", "b")],
        )
        db.delete("b")
        plan = GarbageCollector(db).plan()
        assert len(plan.reroots) == 1
        assert plan.reroots[0].grandbase_id == "a"

    def test_pending_writeback_base_is_skipped(self):
        db = Database()
        base = _content(1)
        _chain(db, {"a": base, "b": base + b"!"}, [("b", "a")])
        db.delete("a")

        class _FakeEntry:
            base_id = "a"

        db.writeback_cache.pending_entries = lambda: [_FakeEntry()]
        plan = GarbageCollector(db).plan()
        assert not plan.reroots

    def test_quarantined_dependent_is_skipped(self):
        db = Database()
        base = _content(1)
        _chain(db, {"a": base, "b": base + b"!"}, [("b", "a")])
        db.delete("a")
        db.quarantine.add("b")
        plan = GarbageCollector(db).plan()
        assert not plan.reroots

    def test_planning_charges_scan_cpu(self):
        db = Database()
        db.insert("d", "a", _content(1))
        gc = GarbageCollector(db)
        gc.plan()
        assert gc.cpu_seconds > 0


class TestRun:
    def test_reroot_keeps_bytes_and_removes_tombstone(self):
        db = Database()
        base = _content(1)
        contents = {
            "a": base,
            "b": base[:2000] + b"y" + base[2000:],
            "c": base[:1000] + b"z" + base[1000:],
        }
        _chain(db, contents, [("b", "a"), ("c", "b")])
        db.delete("b")
        before = db.stored_bytes
        report = GarbageCollector(db).run()
        assert report.outcome == OUTCOME_APPLIED
        assert report.tombstones_removed == 1
        assert "b" not in db.records
        assert db.records["c"].base_id == "a"
        assert db.decode_stored_content("c") == contents["c"]
        assert db.stored_bytes <= before
        assert check_database(db).ok

    def test_raw_tombstone_promotes_largest_dependent(self):
        db = Database()
        base = _content(1)
        contents = {
            "a": base,
            "b": base[:500] + b"bb" + base[500:],  # larger content
            "c": base[:500],                       # smaller content
        }
        _chain(db, contents, [("b", "a"), ("c", "a")])
        db.delete("a")
        report = GarbageCollector(db).run()
        assert report.outcome == OUTCOME_APPLIED
        assert report.promotions == 1
        assert "a" not in db.records
        assert db.records["b"].form is RecordForm.RAW
        assert db.records["c"].base_id == "b"
        for record_id, content in (("b", contents["b"]), ("c", contents["c"])):
            assert db.decode_stored_content(record_id) == content
        assert check_database(db).ok

    def test_noop_on_clean_store(self):
        db = Database()
        db.insert("d", "a", _content(1))
        gc = GarbageCollector(db)
        report = gc.run()
        assert report.outcome == OUTCOME_NOOP
        assert gc.batches[OUTCOME_NOOP] == 1

    def test_batch_budget_defers_remaining_cohorts(self):
        db = Database()
        contents = {}
        edges = []
        for index in range(4):
            base = _content(index)
            contents[f"t{index}"] = base
            contents[f"d{index}"] = base[:700] + b"*" + base[700:]
            edges.append((f"d{index}", f"t{index}"))
        _chain(db, contents, edges)
        for index in range(4):
            db.delete(f"t{index}")
        gc = GarbageCollector(db)
        # Four independent one-dependent cohorts; a budget of 2 admits
        # exactly two and leaves the rest for the next idle slice.
        report = gc.run(max_records=2)
        assert report.reroots_applied == 2
        assert report.tombstones_removed == 2
        report = gc.run()
        assert report.reroots_applied == 2
        assert sum(1 for r in db.records.values() if r.deleted) == 0
        for index in range(4):
            assert db.decode_stored_content(f"d{index}") == contents[f"d{index}"]

    def test_footprint_guard_skips_growing_cohorts(self):
        # A raw tombstone whose dependents were stored as very small
        # deltas: promotion would materialize a full raw copy and grow
        # the store, so the cohort must be left alone.
        db = Database()
        base = _content(1)
        contents = {"a": base}
        edges = []
        for index in range(4):
            rid = f"dep{index}"
            contents[rid] = base[: 100 * index] + b"#" + base[100 * index:]
            edges.append((rid, "a"))
        _chain(db, contents, edges)
        db.delete("a")
        before = db.stored_bytes
        report = GarbageCollector(db).run()
        assert report.reroots_applied == 0
        assert "a" in db.records  # tombstone deferred, not reaped
        assert db.stored_bytes == before

    def test_run_never_touches_oplog_state(self):
        # GC is invisible to the WAL: replay after GC must equal replay
        # before GC (the crash-safety argument rests on this).
        db = Database()
        base = _content(1)
        _chain(db, {"a": base, "b": base + b"!"}, [("b", "a")])
        db.delete("a")
        logical_before = {
            rid: db.decode_stored_content(rid)
            for rid, rec in db.records.items()
            if not rec.deleted
        }
        GarbageCollector(db).run()
        logical_after = {
            rid: db.decode_stored_content(rid)
            for rid, rec in db.records.items()
            if not rec.deleted
        }
        assert logical_before == logical_after


class TestRollback:
    def _poisoned_db(self):
        db = Database()
        base = _content(7)
        contents = {"a": base, "b": base[:1500] + b"mid" + base[1500:]}
        _chain(db, contents, [("b", "a")])
        db.delete("a")
        return db, contents

    def test_failed_post_validation_rolls_back(self):
        db, contents = self._poisoned_db()
        gc = GarbageCollector(db)

        def corrupt(db_, prepared):
            record = db_.records["b"]
            record.payload = b"garbage" + record.payload

        gc.on_post_validate = corrupt
        report = gc.run()
        assert report.outcome == OUTCOME_ROLLED_BACK
        assert report.violations
        assert gc.batches[OUTCOME_ROLLED_BACK] == 1
        # Pre-batch state restored exactly: tombstone back, chain intact.
        assert "a" in db.records and db.records["a"].deleted
        assert db.records["b"].base_id == "a"
        assert db.decode_stored_content("b") == contents["b"]
        assert check_database(db).ok

    def test_cumulative_counters_only_advance_on_success(self):
        db, _ = self._poisoned_db()
        gc = GarbageCollector(db)
        gc.on_post_validate = lambda db_, prepared: db_.records[
            "b"
        ].__setattr__("payload", b"junk")
        gc.run()
        assert gc.reclaimed_bytes == 0
        assert gc.tombstones_removed == 0

    def test_clean_retry_after_rollback_succeeds(self):
        db, contents = self._poisoned_db()
        gc = GarbageCollector(db)
        gc.on_post_validate = lambda db_, prepared: db_.records[
            "b"
        ].__setattr__("payload", b"junk")
        assert gc.run().outcome == OUTCOME_ROLLED_BACK
        gc.on_post_validate = None
        report = gc.run()
        assert report.outcome == OUTCOME_APPLIED
        assert "a" not in db.records
        assert db.decode_stored_content("b") == contents["b"]
        assert check_database(db).ok


class TestAccountingIdentity:
    """Satellite regression: tombstone bytes must hit the reclaimed
    counter, and written - reclaimed == live footprint at all times."""

    @pytest.mark.parametrize("physical", [False, True])
    def test_written_minus_reclaimed_equals_stored(self, physical):
        db = _store(physical)
        contents = {f"r{i}": _content(i, 2000 + 100 * i) for i in range(8)}
        for record_id, content in contents.items():
            db.insert("d", record_id, content)
        assert db.stored_bytes_total - db.reclaimed_bytes_total == db.stored_bytes

        db.update("r1", _content(99, 1500))
        assert db.stored_bytes_total - db.reclaimed_bytes_total == db.stored_bytes

        reclaimed_before = db.reclaimed_bytes_total
        for record_id in ("r2", "r4", "r6"):
            db.delete(record_id)
        # The drift this fixes: deletes must surface in the counter.
        assert db.reclaimed_bytes_total > reclaimed_before
        assert db.stored_bytes_total - db.reclaimed_bytes_total == db.stored_bytes
        assert db.reclaimed_bytes_total <= db.stored_bytes_total

    @pytest.mark.parametrize("physical", [False, True])
    def test_identity_survives_gc(self, physical):
        db = _store(physical)
        base = _content(3)
        _chain(db, {"a": base, "b": base[:900] + b"@" + base[900:]},
               [("b", "a")])
        db.delete("a")
        GarbageCollector(db).run()
        assert db.stored_bytes_total - db.reclaimed_bytes_total == db.stored_bytes
        assert db.reclaimed_bytes_total <= db.stored_bytes_total


def _store(physical: bool) -> Database:
    if not physical:
        return Database()
    from repro.sim.clock import SimClock
    from repro.sim.costs import CostModel
    from repro.sim.disk import SimDisk
    from repro.storage.heapfile import HeapFileStore

    clock = SimClock()
    disk = SimDisk(clock, CostModel())
    return Database(
        clock=clock,
        disk=disk,
        page_store=HeapFileStore(page_size=4096, disk=disk),
    )

"""Hypothesis stateful machines: long adversarial CRUD interleavings.

RuleBasedStateMachine explores operation sequences the list-based property
tests never reach — interleavings where write-backs, tombstones, pending
updates, compaction and page relocation all overlap.
"""

from __future__ import annotations

import random

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    multiple,
    rule,
)

from repro.cache.source_cache import SourceRecordCache
from repro.cache.writeback import WriteBackEntry
from repro.core.config import DedupConfig
from repro.api import ClusterSpec
from repro.db.cluster import Cluster
from repro.db.database import Database
from repro.db.errors import CorruptChain, RecordExists, RecordNotFound
from repro.db.record import RecordForm, StoredRecord
from repro.db.invariants import check_cluster
from repro.delta.dbdelta import DeltaCompressor
from repro.delta.decode import apply_delta
from repro.delta.instructions import deserialize
from repro.sim.faults import CorruptPageReads, FaultPlan, TransientIOErrors
from repro.storage.heapfile import HeapFile
from repro.workloads.base import Operation

_COMPRESSOR = DeltaCompressor(anchor_interval=16)


class OracleDatabase(Database):
    """``Database`` whose chain decode is the pre-``apply_payload`` one.

    ``_materialize`` below is that method's body frozen as it stood when
    the read path switched to decoding each hop straight from its wire
    payload: one loop collects the chain, then every hop is decoded
    through ``deserialize`` + ``apply_delta``. :class:`DatabaseMachine`
    runs it as a twin of the real store and compares every simulated
    effect of every read.
    """

    def _materialize(
        self, record: StoredRecord, charge_foreground: bool
    ) -> tuple[bytes, float]:
        """Decode a record's current content, charging disk traffic.

        Walks the base-pointer chain; every record fetched from storage is
        one disk read (the record cache short-circuits the walk). Deleted
        records encountered along the path are spliced out (§4.1 GC).
        """
        if record.pending_updates:
            latency = self._charge_read(len(record.pending_updates[-1]), charge_foreground)
            return record.pending_updates[-1], latency

        # Collect the chain from the queried record up to a raw base or a
        # cache hit.
        chain: list[StoredRecord] = []
        cursor = record
        latency = 0.0
        cached_content: bytes | None = None
        seen: set[str] = set()
        while True:
            if cursor.record_id in seen:
                raise CorruptChain(f"cycle at {cursor.record_id!r}")
            seen.add(cursor.record_id)
            # The cache shortcut is only sound for records whose client
            # content equals their stored decode content. A record with
            # pending updates breaks that: the engine's fetch path admits
            # the *updated* content (what dedup wants), while dependents'
            # deltas decode against the retained old payload.
            if (
                self.record_cache is not None
                and chain
                and not cursor.pending_updates
            ):
                cached = self.record_cache.peek(cursor.record_id)
                if cached is not None:
                    cached_content = cached
                    break
            chain.append(cursor)
            latency += self._charge_read(cursor.stored_size, charge_foreground)
            if cursor.form is RecordForm.RAW:
                break
            base = self.records.get(cursor.base_id)
            if base is None:
                raise CorruptChain(
                    f"{cursor.record_id!r} has dangling base {cursor.base_id!r}"
                )
            self.decode_base_fetches += 1
            cursor = base

        # Decode top-down: last element is raw (or decodes from cache).
        contents: dict[str, bytes] = {}
        base_content = cached_content
        for rec in reversed(chain):
            payload = self._read_payload(rec)
            if rec.form is RecordForm.RAW:
                base_content = payload
            else:
                insts = deserialize(payload)
                base_content = apply_delta(base_content, insts)
            contents[rec.record_id] = base_content
            # §4.1: decoded bases go through the source record cache, so a
            # second read of any record on this path skips the chain walk.
            if (
                self.record_cache is not None
                and not rec.deleted
                and not rec.pending_updates
            ):
                self.record_cache.admit(rec.record_id, base_content)

        self._gc_along_path(chain, contents)
        result = contents[record.record_id]
        if record.pending_updates:
            result = record.pending_updates[-1]
        return result, latency


#: Small enough that reads evict: the source record cache then breaks
#: chain walks at different hops from read to read.
_CACHE_BYTES = 4096


def _read_effects(db: Database) -> tuple:
    """Every simulated effect a read can have on ``db``."""
    return (
        db.disk.reads,
        db.disk.bytes_read,
        db.disk.writes,
        db.disk.bytes_written,
        db.clock.now,
        db.decode_base_fetches,
        db.gc_splices,
        list(db.record_cache._entries),
    )


class DatabaseMachine(RuleBasedStateMachine):
    """Database vs dict model, with write-backs and idle flushes as rules.

    An :class:`OracleDatabase` twin receives every operation in lockstep;
    each read must return the same content and latency from both and
    leave both with the same disk counters, clock, base-fetch and splice
    counts and record-cache order.
    """

    records = Bundle("records")

    @initialize()
    def setup(self) -> None:
        self.db = Database(record_cache=SourceRecordCache(_CACHE_BYTES))
        self.oracle = OracleDatabase(record_cache=SourceRecordCache(_CACHE_BYTES))
        self.model: dict[str, bytes] = {}
        self.rng = random.Random(0xDB)
        self.counter = 0

    def _content(self, size_hint: int) -> bytes:
        words = [f"tok{self.rng.randrange(150)}" for _ in range(40 + size_hint * 12)]
        return " ".join(words).encode()

    def _both(self, op):
        """Run ``op`` on the store and its twin; both must agree."""
        outcomes = []
        for db in (self.db, self.oracle):
            try:
                outcomes.append(op(db))
            except RecordNotFound:
                outcomes.append(RecordNotFound)
        assert outcomes[0] == outcomes[1]
        return outcomes[0]

    def _read(self, record_id: str) -> bytes | None:
        content = self._both(lambda db: db.read("db", record_id))[0]
        assert _read_effects(self.db) == _read_effects(self.oracle)
        return content

    def _insert(self, content: bytes) -> str:
        record_id = f"r{self.counter}"
        self.counter += 1
        self._both(lambda db: db.insert("db", record_id, content))
        self.model[record_id] = content
        return record_id

    @rule(target=records, size_hint=st.integers(0, 6))
    def insert(self, size_hint):
        return self._insert(self._content(size_hint))

    @rule(target=records, length=st.integers(2, 5))
    def insert_versions(self, length):
        """Versions of one document, each older one written back against
        the next: an encoding chain for reads, deletes and updates to hit."""
        words = self._content(2).split()
        ids = []
        for version in range(length):
            words[self.rng.randrange(len(words))] = b"v%d" % version
            ids.append(self._insert(b" ".join(words)))
        for older, newer in zip(ids, ids[1:]):
            self.schedule_writeback(older, newer)
        self.idle_flush()
        return multiple(*ids)

    @rule(record_id=records, size_hint=st.integers(0, 4))
    def update(self, record_id, size_hint):
        content = self._content(size_hint) + b" v2"
        if self._both(lambda db: db.update(record_id, content)) is RecordNotFound:
            assert record_id not in self.model
        else:
            self.model[record_id] = content

    @rule(record_id=records)
    def delete(self, record_id):
        if self._both(lambda db: db.delete(record_id)) is RecordNotFound:
            assert record_id not in self.model
        else:
            assert record_id in self.model
            del self.model[record_id]

    @rule(record_id=records, base_id=records)
    def schedule_writeback(self, record_id, base_id):
        if record_id == base_id:
            return
        # Only backward-in-time bases (newer record), mirroring the engine.
        if int(base_id[1:]) < int(record_id[1:]):
            record_id, base_id = base_id, record_id
        target = self.model.get(record_id)
        base = self.model.get(base_id)
        record = self.db.records.get(record_id)
        if target is None or base is None or record is None:
            return
        if record.pending_updates or not record.is_raw:
            return
        delta = _COMPRESSOR.compress(base, target)
        for db in (self.db, self.oracle):
            db.schedule_writebacks(
                [
                    WriteBackEntry(
                        record_id=record_id,
                        base_id=base_id,
                        payload=delta,
                        space_saving=max(1, len(target) - 10),
                    )
                ]
            )

    @rule()
    def idle_flush(self):
        # Each applied write-back leaves the disk busy, which ends a
        # flush; idle periods in between let up to four through.
        for _ in range(4):
            for db in (self.db, self.oracle):
                db.clock.advance(30.0)
            self._both(lambda db: db.flush_writebacks_if_idle(max_flushes=4))

    @rule(record_id=records)
    def read(self, record_id):
        assert self._read(record_id) == self.model.get(record_id)

    @rule(record_id=records)
    def fetch_content(self, record_id):
        # The engine's background fetch: same walk, no foreground charge.
        self._both(lambda db: db.fetch_content(record_id))
        assert _read_effects(self.db) == _read_effects(self.oracle)

    @rule()
    def read_everything(self):
        for record_id, expected in self.model.items():
            assert self._read(record_id) == expected

    @invariant()
    def deleted_records_invisible(self):
        for record_id in list(self.db.records):
            if record_id not in self.model:
                assert self._read(record_id) is None

    @invariant()
    def live_counts_match(self):
        assert self.db.live_records >= len(self.model) - 0
        # Tombstones may keep extra records around, but never fewer.


class HeapFileMachine(RuleBasedStateMachine):
    """Heap file vs dict model under put/delete/flush and page pressure."""

    handles = Bundle("handles")

    @initialize()
    def setup(self) -> None:
        self.heap = HeapFile(page_size=512, buffer_frames=2)
        self.model: dict[str, bytes] = {}
        self.counter = 0

    @rule(target=handles, size=st.integers(0, 1400), fill=st.integers(33, 126))
    def put_new(self, size, fill):
        handle = f"h{self.counter}"
        self.counter += 1
        data = bytes([fill]) * size
        self.heap.put(handle, data)
        self.model[handle] = data
        return handle

    @rule(handle=handles, size=st.integers(0, 900), fill=st.integers(33, 126))
    def put_existing(self, handle, size, fill):
        if handle not in self.model:
            return
        data = bytes([fill]) * size
        self.heap.put(handle, data)
        self.model[handle] = data

    @rule(handle=handles)
    def delete(self, handle):
        if handle not in self.model:
            return
        self.heap.delete(handle)
        del self.model[handle]

    @rule()
    def flush(self):
        self.heap.flush()

    @invariant()
    def contents_match(self):
        assert len(self.heap) == len(self.model)
        for handle, expected in self.model.items():
            assert self.heap.get(handle) == expected


class ClusterFaultMachine(RuleBasedStateMachine):
    """Cluster vs dict model with fault events interleaved into CRUD.

    The machine keeps a live :class:`FaultPlan` injecting background
    noise (transient I/O errors plus occasional sticky page corruption)
    while rules insert, update, delete and read — and two extra rules
    crash-and-restart either node mid-sequence. Reads go through the
    cluster's repair path, so the model comparison holds even when a
    read lands on a corrupted page. Every example tears down through a
    strict :func:`check_cluster` sweep.
    """

    records = Bundle("records")

    @initialize(seed=st.integers(0, 2**16))
    def setup(self, seed) -> None:
        self.cluster = Cluster(
            ClusterSpec(
                dedup=DedupConfig(chunk_size=64, size_filter_enabled=False),
                oplog_batch_bytes=2048,
            )
        )
        self.plan = FaultPlan(
            seed=seed,
            rules=[
                TransientIOErrors(probability=0.02),
                CorruptPageReads(probability=0.01, sticky=True),
            ],
        )
        self.plan.install(self.cluster)
        self.rng = random.Random(seed)
        self.model: dict[str, bytes] = {}
        self.counter = 0

    def _content(self, size_hint: int) -> bytes:
        words = [
            f"tok{self.rng.randrange(150)}" for _ in range(40 + size_hint * 12)
        ]
        return " ".join(words).encode()

    @rule(target=records, size_hint=st.integers(0, 5))
    def insert(self, size_hint):
        record_id = f"c{self.counter}"
        self.counter += 1
        content = self._content(size_hint)
        self.cluster.execute(Operation("insert", "db", record_id, content))
        self.model[record_id] = content
        return record_id

    @rule(record_id=records, size_hint=st.integers(0, 4))
    def update(self, record_id, size_hint):
        if record_id not in self.model:
            return
        content = self._content(size_hint) + b" v2"
        self.cluster.execute(Operation("update", "db", record_id, content))
        self.model[record_id] = content

    @rule(record_id=records)
    def delete(self, record_id):
        if record_id not in self.model:
            return
        self.cluster.execute(Operation("delete", "db", record_id))
        del self.model[record_id]

    @rule(record_id=records)
    def read(self, record_id):
        content, _ = self.cluster.read("db", record_id)
        assert content == self.model.get(record_id)

    @rule()
    def crash_primary(self):
        self.cluster.primary.crash()
        self.cluster.primary.restart()

    @rule()
    def crash_secondary(self):
        self.cluster.secondary.crash()
        self.cluster.secondary.restart()

    @rule()
    def scrub(self):
        self.cluster.scrub()

    @invariant()
    def primary_serves_model(self):
        # Cheap per-step probe: one modelled record read back exactly.
        if not self.model:
            return
        record_id = sorted(self.model)[0]
        content, _ = self.cluster.read("db", record_id)
        assert content == self.model[record_id]

    def teardown(self):
        if not hasattr(self, "cluster"):
            return  # example ended before initialize ran
        report = check_cluster(self.cluster)
        assert report.ok
        # Direct db reads bypass the repair path, so stop injecting
        # before the final byte comparison.
        self.plan.suspend()
        for record_id, expected in self.model.items():
            content, _ = self.cluster.secondary.db.read("db", record_id)
            assert content == expected


def test_database_machine_reaches_splices_and_pending_updates():
    """A fixed rule sequence through :class:`DatabaseMachine`: the twin
    comparison covers a read of a record with pending updates and a read
    whose chain walk splices a tombstone out."""
    machine = DatabaseMachine()
    machine.setup()
    older, middle, newest = (machine.insert(0) for _ in range(3))
    machine.schedule_writeback(older, middle)
    machine.schedule_writeback(middle, newest)
    machine.idle_flush()
    assert machine.db.records[older].form is RecordForm.DELTA
    assert machine.db.records[middle].form is RecordForm.DELTA
    machine.update(newest, 1)
    assert machine.db.records[newest].pending_updates
    machine.read(newest)
    machine.delete(middle)
    machine.read(older)
    assert machine.db.gc_splices == machine.oracle.gc_splices == 1
    assert machine.db.records[older].base_id == newest
    machine.read_everything()


TestDatabaseMachine = DatabaseMachine.TestCase
TestDatabaseMachine.settings = settings(
    max_examples=50, stateful_step_count=50, deadline=None
)
TestHeapFileMachine = HeapFileMachine.TestCase
TestHeapFileMachine.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None
)
TestClusterFaultMachine = ClusterFaultMachine.TestCase
TestClusterFaultMachine.settings = settings(
    max_examples=10, stateful_step_count=15, deadline=None
)

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
    rule,
)

from repro.cache.writeback import WriteBackEntry
from repro.core.config import DedupConfig
from repro.api import ClusterSpec
from repro.db.cluster import Cluster
from repro.db.database import Database
from repro.db.errors import RecordExists, RecordNotFound
from repro.db.invariants import check_cluster
from repro.delta.dbdelta import DeltaCompressor
from repro.delta.instructions import serialize
from repro.sim.faults import CorruptPageReads, FaultPlan, TransientIOErrors
from repro.storage.heapfile import HeapFile
from repro.workloads.base import Operation

_COMPRESSOR = DeltaCompressor(anchor_interval=16)


class DatabaseMachine(RuleBasedStateMachine):
    """Database vs dict model, with write-backs and idle flushes as rules."""

    records = Bundle("records")

    @initialize()
    def setup(self) -> None:
        self.db = Database()
        self.model: dict[str, bytes] = {}
        self.rng = random.Random(0xDB)
        self.counter = 0

    def _content(self, size_hint: int) -> bytes:
        words = [f"tok{self.rng.randrange(150)}" for _ in range(40 + size_hint * 12)]
        return " ".join(words).encode()

    @rule(target=records, size_hint=st.integers(0, 6))
    def insert(self, size_hint):
        record_id = f"r{self.counter}"
        self.counter += 1
        content = self._content(size_hint)
        self.db.insert("db", record_id, content)
        self.model[record_id] = content
        return record_id

    @rule(record_id=records, size_hint=st.integers(0, 4))
    def update(self, record_id, size_hint):
        content = self._content(size_hint) + b" v2"
        try:
            self.db.update(record_id, content)
            self.model[record_id] = content
        except RecordNotFound:
            assert record_id not in self.model

    @rule(record_id=records)
    def delete(self, record_id):
        try:
            self.db.delete(record_id)
            assert record_id in self.model
            del self.model[record_id]
        except RecordNotFound:
            assert record_id not in self.model

    @rule(record_id=records, base_id=records)
    def schedule_writeback(self, record_id, base_id):
        if record_id == base_id:
            return
        target = self.model.get(record_id)
        base = self.model.get(base_id)
        record = self.db.records.get(record_id)
        if target is None or base is None or record is None:
            return
        if record.pending_updates or not record.is_raw:
            return
        # Only backward-in-time bases (newer record), mirroring the engine.
        if int(base_id[1:]) <= int(record_id[1:]):
            return
        delta = _COMPRESSOR.compress(base, target)
        self.db.schedule_writebacks(
            [
                WriteBackEntry(
                    record_id=record_id,
                    base_id=base_id,
                    payload=serialize(delta),
                    space_saving=max(1, len(target) - 10),
                )
            ]
        )

    @rule()
    def idle_flush(self):
        self.db.clock.advance(30.0)
        self.db.flush_writebacks_if_idle(max_flushes=4)

    @rule()
    def read_everything(self):
        for record_id, expected in self.model.items():
            content, _ = self.db.read("db", record_id)
            assert content == expected

    @invariant()
    def deleted_records_invisible(self):
        for record_id in list(self.db.records):
            if record_id not in self.model:
                content, _ = self.db.read("db", record_id)
                assert content is None

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


TestDatabaseMachine = DatabaseMachine.TestCase
TestDatabaseMachine.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestHeapFileMachine = HeapFileMachine.TestCase
TestHeapFileMachine.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None
)
TestClusterFaultMachine = ClusterFaultMachine.TestCase
TestClusterFaultMachine.settings = settings(
    max_examples=10, stateful_step_count=15, deadline=None
)

"""Node-local record store with §4.1's CRUD + encoding-chain semantics.

One :class:`Database` instance is a node's whole data store (it can hold
records of many logical databases, like a MongoDB instance). It owns

* the page store (block-compression accounting),
* the lossy write-back cache and its idle-triggered flushing,
* reference counts, deferred deletes, append-style updates, and the
  read-path garbage collection that splices deleted records out of
  encoding chains.

All disk traffic is charged to the simulated disk so the queue-length
idleness signal and the latency numbers mean something.
"""

from __future__ import annotations

import weakref
from typing import Sequence
from zlib import crc32

from repro.cache.source_cache import SourceRecordCache
from repro.cache.writeback import LossyWriteBackCache, WriteBackEntry
from repro.compression.block import BlockCompressor
from repro.db.errors import CorruptChain, CorruptPage, RecordExists, RecordNotFound
from repro.db.pagestore import PageStore
from repro.db.record import RecordForm, StoredRecord
from repro.delta.dbdelta import DeltaCompressor
from repro.delta.decode import apply_delta, apply_payload
from repro.delta.instructions import deserialize
from repro.sim.clock import SimClock
from repro.sim.disk import SimDisk
from repro.sim.faults import TransientIOError

#: Attempts before a transiently failing disk request is abandoned. The
#: data is already safe in memory structures; only the simulated I/O
#: accounting is lost, so giving up degrades latency numbers, not data.
IO_RETRY_LIMIT = 6

#: Base backoff between transient-I/O retries (doubles per attempt).
IO_RETRY_BACKOFF_S = 0.001


class Database:
    """Record store for one node."""

    def __init__(
        self,
        clock: SimClock | None = None,
        disk: SimDisk | None = None,
        page_size: int = 32 * 1024,
        block_compressor: BlockCompressor | None = None,
        writeback_capacity: int = 8 * 1024 * 1024,
        record_cache: SourceRecordCache | None = None,
        idle_queue_threshold: int = 0,
        page_store=None,
        node_role: str = "node",
    ) -> None:
        self.clock = clock if clock is not None else SimClock()
        self.disk = disk if disk is not None else SimDisk(self.clock)
        # Default: the accounting page store. Pass a
        # repro.storage.HeapFileStore for the full physical engine.
        self.pages = (
            page_store
            if page_store is not None
            else PageStore(page_size=page_size, compressor=block_compressor)
        )
        self.writeback_cache = LossyWriteBackCache(writeback_capacity)
        self.record_cache = record_cache
        self.idle_queue_threshold = idle_queue_threshold
        self.records: dict[str, StoredRecord] = {}
        # Through a weak proxy: a bound method stored on a cache this store
        # owns would make every Database a reference cycle, freed only when
        # a full collection happens to run — and the invariant sweep replays
        # each node's oplog into a scratch store the size of the corpus, so
        # peak RSS would depend on when the collector gets to the first one.
        owner = weakref.proxy(self)
        self.writeback_cache.on_drop = lambda entry: owner._on_writeback_drop(entry)
        # GC re-encoding runs rarely; default compressor parameters suffice.
        self._gc_compressor = DeltaCompressor()
        self.writebacks_applied = 0
        self.gc_splices = 0
        self.decode_base_fetches = 0
        #: Which cluster role owns this store ("primary"/"secondary") —
        #: fault rules target roles (see :mod:`repro.sim.faults`).
        self.node_role = node_role
        #: Optional fault injector with an ``on_page_read`` hook.
        self.fault_injector = None
        #: crc32 of each record's stored payload, written alongside it.
        self._checksums: dict[str, int] = {}
        #: Records whose storage failed checksum verification, awaiting
        #: repair from a healthy replica (see ``Cluster.repair_record``).
        self.quarantine: set[str] = set()
        self.corrupt_reads_detected = 0
        self.corrupt_reads_recovered = 0
        self.io_retries = 0
        self.io_failures = 0

    # -- client-facing CRUD (§4.1) -------------------------------------------

    def insert(self, database: str, record_id: str, content: bytes) -> float:
        """Store a new record raw; returns the disk latency to absorb.

        Raises:
            RecordExists: on duplicate live record ids.
        """
        return self.insert_many([(database, record_id, content)])

    def insert_many(
        self, items: Sequence[tuple[str, str, bytes]]
    ) -> float:
        """Store a batch of new records raw; returns the summed disk latency.

        ``items`` is ``(database, record_id, content)`` triples. The batch
        is validated before anything is stored, so a duplicate id —
        against existing records or within the batch itself — raises
        :class:`RecordExists` with the store untouched (atomic admission,
        unlike a half-applied loop of :meth:`insert`).
        """
        seen: set[str] = set()
        for _, record_id, _ in items:
            if record_id in self.records or record_id in seen:
                # Tombstoned ids stay reserved too: their chains may still
                # need the old content.
                raise RecordExists(record_id)
            seen.add(record_id)
        latency = 0.0
        for database, record_id, content in items:
            record = StoredRecord(
                record_id=record_id,
                database=database,
                form=RecordForm.RAW,
                payload=content,
                raw_size=len(content),
            )
            self.records[record_id] = record
            self.pages.place(record_id, content)
            self._note_checksum(record)
            latency += self._disk_request("write", len(content))
        return latency

    def read(self, database: str, record_id: str) -> tuple[bytes | None, float]:
        """Client read: ``(content, latency)``; content is None for deleted
        or missing records (reads of deleted records return empty, §4.1)."""
        record = self.records.get(record_id)
        if record is None or record.deleted:
            return None, 0.0
        content, latency = self._materialize(record, charge_foreground=True)
        return content, latency

    def update(self, record_id: str, content: bytes) -> float:
        """Replace a record's content (full-record update semantics).

        If other records decode from this one, the new content is appended
        and the old payload retained so dependents still decode; otherwise
        the record is rewritten raw in place.
        """
        record = self._live_record(record_id)
        # §4.1: pending write-backs for this record are superseded.
        self.writeback_cache.invalidate(record_id)
        if self.record_cache is not None:
            self.record_cache.invalidate(record_id)
        if record.ref_count > 0:
            record.pending_updates.append(content)
            self.pages.update(record_id, self._disk_image(record))
            return self._disk_request("write", len(content))
        old_base = record.base_id
        record.form = RecordForm.RAW
        record.payload = content
        record.base_id = None
        record.raw_size = len(content)
        record.pending_updates.clear()
        self.pages.update(record_id, content)
        self._note_checksum(record)
        if old_base is not None:
            self._release_base(old_base)
        return self._disk_request("write", len(content))

    def delete(self, record_id: str) -> float:
        """Delete a record, deferring if others decode from it (§4.1)."""
        record = self._live_record(record_id)
        self.writeback_cache.invalidate(record_id)
        if self.record_cache is not None:
            self.record_cache.invalidate(record_id)
        if record.ref_count > 0:
            record.deleted = True
            return 0.0
        return self._remove(record)

    # -- dedup integration ------------------------------------------------------

    def schedule_writebacks(self, entries) -> None:
        """Queue backward/hop deltas in the lossy write-back cache.

        Each queued entry takes a *pending reference* on its base record:
        the delta was computed against the base's current bytes, so until
        the entry is flushed or dropped, client updates to the base must
        append (preserving the old payload) rather than rewrite in place.
        The cache's drop callback releases the reference for entries that
        leave without being applied.
        """
        for entry in entries:
            record = self.records.get(entry.record_id)
            base = self.records.get(entry.base_id)
            if record is None or base is None or record.pending_updates:
                continue  # superseded by a client write; drop silently
            base.ref_count += 1
            self.writeback_cache.put(entry)

    def _on_writeback_drop(self, entry: WriteBackEntry) -> None:
        """Release the pending base reference of a dropped entry."""
        self._release_base(entry.base_id)

    def flush_writebacks_if_idle(self, max_flushes: int | None = None) -> int:
        """Apply pending write-backs while the disk queue is idle (§3.3.2)."""
        applied = 0
        while self.disk.is_idle(self.idle_queue_threshold):
            if max_flushes is not None and applied >= max_flushes:
                break
            entry = self.writeback_cache.flush_most_valuable()
            if entry is None:
                break
            if self.apply_writeback(entry):
                applied += 1
            self._release_base(entry.base_id)  # the pending reference
        return applied

    def drain_writebacks(self) -> int:
        """Apply every pending write-back regardless of disk load."""
        applied = 0
        for entry in self.writeback_cache.drain():
            if self.apply_writeback(entry):
                applied += 1
            self._release_base(entry.base_id)  # the pending reference
        return applied

    def apply_writeback(self, entry: WriteBackEntry) -> bool:
        """Replace a record's stored form with its backward delta.

        Skipped (returns False) when the record or its base vanished or the
        record took client updates meanwhile — losing a write-back is
        always safe, that is the cache's whole premise.
        """
        record = self.records.get(entry.record_id)
        base = self.records.get(entry.base_id)
        if record is None or base is None or record.pending_updates:
            return False
        old_base = record.base_id
        record.form = RecordForm.DELTA
        record.payload = entry.payload
        record.base_id = entry.base_id
        base.ref_count += 1
        self.pages.update(entry.record_id, self._disk_image(record))
        self._note_checksum(record)
        self._disk_request("write", len(entry.payload))  # background write
        if old_base is not None:
            self._release_base(old_base)
        self.writebacks_applied += 1
        return True

    # -- RecordProvider protocol (engine-facing) ---------------------------------

    def fetch_content(self, record_id: str) -> bytes | None:
        """Raw content for the dedup engine; charges background disk reads.

        A corrupt page along the decode path reads as *unavailable* (the
        engine then treats the record as a cache miss and encodes less
        aggressively) — background dedup must never turn detected
        corruption into a failed client write. The record is already
        quarantined for the repair path by the time this returns.
        """
        record = self.records.get(record_id)
        if record is None:
            return None
        try:
            content, _ = self._materialize(record, charge_foreground=False)
        except CorruptPage:
            return None
        return content

    def stored_size(self, record_id: str) -> int:
        """Bytes the record occupies on disk (0 if unknown)."""
        record = self.records.get(record_id)
        return record.stored_size if record is not None else 0

    def decode_stored_content(self, record_id: str) -> bytes | None:
        """What a record's *stored* chain decodes to, for GC validation.

        Unlike :meth:`read`/:meth:`fetch_content` this ignores the
        record's own pending client updates and bypasses the record
        cache — it answers "what do dependents' deltas decode against",
        which is the byte identity garbage collection must preserve.
        Charges background disk reads; returns None when a page along
        the chain is corrupt (the GC batch then skips or rolls back).

        Raises:
            CorruptChain: on cycles or dangling base pointers.
        """
        record = self.records.get(record_id)
        if record is None:
            return None
        chain: list[StoredRecord] = []
        cursor = record
        seen: set[str] = set()
        while True:
            if cursor.record_id in seen:
                raise CorruptChain(f"cycle at {cursor.record_id!r}")
            seen.add(cursor.record_id)
            chain.append(cursor)
            if cursor.form is RecordForm.RAW:
                break
            base = self.records.get(cursor.base_id)
            if base is None:
                raise CorruptChain(
                    f"{cursor.record_id!r} has dangling base "
                    f"{cursor.base_id!r}"
                )
            cursor = base
        content: bytes | None = None
        try:
            for rec in reversed(chain):
                payload = self._read_payload(rec)
                self._charge_read(rec.stored_size, foreground=False)
                if rec.form is RecordForm.RAW:
                    content = payload
                else:
                    content = apply_payload(content, payload)
        except CorruptPage:
            return None
        return content

    # -- measurements ------------------------------------------------------------

    @property
    def live_records(self) -> int:
        """Number of non-deleted records."""
        return sum(1 for record in self.records.values() if not record.deleted)

    @property
    def logical_raw_bytes(self) -> int:
        """Original (pre-dedup) bytes of all live records."""
        return sum(
            len(record.pending_updates[-1]) if record.pending_updates else record.raw_size
            for record in self.records.values()
            if not record.deleted
        )

    @property
    def stored_bytes(self) -> int:
        """Post-dedup, pre-block-compression storage footprint."""
        return self.pages.logical_bytes

    @property
    def stored_bytes_total(self) -> int:
        """Monotonic bytes ever written to storage.

        With :attr:`reclaimed_bytes_total` this fixes the tombstone
        accounting drift: ``stored_bytes_total - reclaimed_bytes_total
        == stored_bytes`` at all times, so savings reports can subtract
        deleted records' bytes instead of overstating dedup.
        """
        return getattr(self.pages, "bytes_written_total", 0)

    @property
    def reclaimed_bytes_total(self) -> int:
        """Monotonic bytes reclaimed from storage (deletes, shrinking
        rewrites, GC). Never exceeds :attr:`stored_bytes_total`."""
        return getattr(self.pages, "bytes_reclaimed_total", 0)

    @property
    def tombstone_bytes(self) -> int:
        """Stored bytes held by deferred-deleted records awaiting GC."""
        return sum(
            record.stored_size
            for record in self.records.values()
            if record.deleted
        )

    def physical_bytes(self) -> int:
        """Post-dedup, post-block-compression storage footprint."""
        return self.pages.physical_bytes()

    def decode_cost(self, record_id: str) -> int:
        """Number of base records a read of ``record_id`` must retrieve."""
        record = self.records.get(record_id)
        if record is None:
            raise RecordNotFound(record_id)
        steps = 0
        seen = set()
        while record.form is RecordForm.DELTA:
            if record.record_id in seen:
                raise CorruptChain(f"cycle at {record.record_id!r}")
            seen.add(record.record_id)
            steps += 1
            record = self.records[record.base_id]
        return steps

    # -- internals ---------------------------------------------------------------

    def _live_record(self, record_id: str) -> StoredRecord:
        record = self.records.get(record_id)
        if record is None or record.deleted:
            raise RecordNotFound(record_id)
        return record

    def _disk_image(self, record: StoredRecord) -> bytes:
        """What the page store holds for a record (payload + pendings)."""
        if record.pending_updates:
            return record.payload + b"".join(record.pending_updates)
        return record.payload

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

    def _charge_read(self, nbytes: int, foreground: bool) -> float:
        wait = self._disk_request("read", nbytes)
        return wait if foreground else 0.0

    def _disk_request(self, kind: str, nbytes: int) -> float:
        """Submit one disk request, retrying transient fault injections.

        Transient errors back off exponentially (the backoff is charged
        as extra latency). After :data:`IO_RETRY_LIMIT` failures the
        request is abandoned — only simulated accounting is lost, the
        in-memory data structures are already consistent.
        """
        delay = 0.0
        for attempt in range(IO_RETRY_LIMIT):
            try:
                return delay + self.disk.submit(kind, nbytes)
            except TransientIOError:
                self.io_retries += 1
                delay += IO_RETRY_BACKOFF_S * (2**attempt)
        self.io_failures += 1
        return delay

    # -- page checksums and quarantine (fault tolerance) -------------------------

    def _note_checksum(self, record: StoredRecord) -> None:
        """Record the checksum written alongside a (re)written payload."""
        self._checksums[record.record_id] = crc32(record.payload)
        self.quarantine.discard(record.record_id)

    def _read_payload(self, record: StoredRecord) -> bytes:
        """A record's payload as read from storage, checksum-verified.

        The fault injector may corrupt the returned bytes. A mismatch
        against the stored checksum triggers one re-read: if the storage
        copy still verifies, the corruption was transient (a bad DMA, a
        bit flip on the wire) and the clean bytes are returned. If the
        storage copy itself is corrupt, the record is quarantined and the
        read fails — the repair path must restore it from a replica.
        """
        payload = record.payload
        if self.fault_injector is not None:
            payload = self.fault_injector.on_page_read(self, record, payload)
        expected = self._checksums.get(record.record_id)
        if expected is None or crc32(payload) == expected:
            return payload
        self.corrupt_reads_detected += 1
        if crc32(record.payload) == expected:
            # Transient read-path corruption: the re-read heals it.
            self.corrupt_reads_recovered += 1
            self._charge_read(record.stored_size, foreground=False)
            return record.payload
        self.quarantine.add(record.record_id)
        raise CorruptPage(record.record_id)

    def verify_checksums(self) -> list[str]:
        """Scrub pass: verify every stored payload against its checksum.

        Corrupt records are quarantined and returned; the caller repairs
        them from a healthy replica (``Cluster.repair_record``).
        """
        corrupt = []
        for record_id, record in self.records.items():
            expected = self._checksums.get(record_id)
            if expected is not None and crc32(record.payload) != expected:
                self.quarantine.add(record_id)
                corrupt.append(record_id)
        return corrupt

    def dependents_of(self, record_id: str) -> list[str]:
        """Records whose stored delta decodes directly from ``record_id``."""
        return [
            other_id
            for other_id, other in self.records.items()
            if other.base_id == record_id
        ]

    def restore_record_raw(self, record_id: str, content: bytes) -> bool:
        """Repair a quarantined record: rewrite it raw with known-good bytes.

        Used by the quarantine path after corruption. The record leaves
        its encoding chain (its old base reference is released) and any
        pending write-back for it is invalidated — compression is lost,
        data is not. Returns False when the record no longer exists.
        """
        record = self.records.get(record_id)
        if record is None:
            return False
        self.writeback_cache.invalidate(record_id)
        if self.record_cache is not None:
            self.record_cache.invalidate(record_id)
        old_base = record.base_id
        record.form = RecordForm.RAW
        record.payload = content
        record.base_id = None
        record.raw_size = len(content)
        record.pending_updates.clear()
        self.pages.update(record_id, content)
        self._note_checksum(record)
        self._disk_request("write", len(content))
        if old_base is not None:
            self._release_base(old_base)
        return True

    def _gc_along_path(
        self, chain: list[StoredRecord], contents: dict[str, bytes]
    ) -> None:
        """§4.1 GC: splice deleted records out of the decode path.

        For a deleted record B with dependent X (X.base == B), re-encode X
        directly against B's base C and drop B once nothing references it.
        """
        for position in range(len(chain) - 1):
            dependent = chain[position]
            middle = chain[position + 1]
            if not middle.deleted or middle.form is not RecordForm.DELTA:
                continue
            # Consecutive tombstones: an earlier iteration's splice may
            # have reaped either record already (``_remove`` cascades
            # through ``_release_base``); the chain list is stale then.
            if (
                dependent.record_id not in self.records
                or middle.record_id not in self.records
            ):
                continue
            grandbase = self.records.get(middle.base_id)
            if grandbase is None or grandbase.record_id not in contents:
                # Base decoded from the record cache: skip the splice this
                # time; a later uncached read will do it.
                continue
            dependent.payload = self._gc_compressor.compress(
                contents[grandbase.record_id], contents[dependent.record_id]
            )
            dependent.base_id = grandbase.record_id
            grandbase.ref_count += 1
            self.pages.update(dependent.record_id, self._disk_image(dependent))
            self._note_checksum(dependent)
            self._disk_request("write", len(dependent.payload))
            middle.ref_count -= 1
            self.gc_splices += 1
            if middle.ref_count <= 0:
                self._remove(middle)

    def _release_base(self, base_id: str) -> None:
        """Decrement a base's refcount; reap it if it was tomb-stoned."""
        base = self.records.get(base_id)
        if base is None:
            return
        base.ref_count -= 1
        if base.deleted and base.ref_count <= 0:
            self._remove(base)

    def _remove(self, record: StoredRecord) -> float:
        """Physically remove a record and release its own base."""
        self.pages.remove(record.record_id)
        self.records.pop(record.record_id, None)
        self._checksums.pop(record.record_id, None)
        self.quarantine.discard(record.record_id)
        if self.record_cache is not None:
            self.record_cache.invalidate(record.record_id)
        if record.base_id is not None:
            self._release_base(record.base_id)
        return 0.0

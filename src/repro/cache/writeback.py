"""Lossy write-back delta cache (§3.3.2).

Backward encoding turns every insert into *two* writes: the new record and
the re-encoded source. The second write is special — skipping it loses
nothing but compression, because the source record's full content stays on
disk until the delta replaces it. dbDedup exploits that "lossy" property:

* deltas wait in this cache instead of being written immediately;
* they are flushed only when the disk is relatively idle (the database
  polls the simulated I/O queue length);
* entries are prioritized by the absolute space saving they realize, so
  when memory runs out the *least* valuable delta is discarded, and when
  I/O goes idle the *most* valuable delta is flushed first.

Discarding an entry is always safe: the affected record simply remains
stored raw.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field


#: Paper configuration: "lossy write-back cache (8 MB)".
DEFAULT_CAPACITY_BYTES = 8 * 1024 * 1024

#: Stale heap items tolerated beyond the live count before a rebuild.
_COMPACT_SLACK = 16


@dataclass(frozen=True)
class WriteBackEntry:
    """One pending write-back: replace ``record_id``'s payload with a delta.

    Attributes:
        record_id: the (older) record to be re-encoded on disk.
        base_id: the record the delta decodes from.
        payload: serialized backward delta.
        space_saving: bytes saved if this write-back is applied — the
            record's current stored size minus ``len(payload)``.
    """

    record_id: str
    base_id: str
    payload: bytes
    space_saving: int


@dataclass(order=True)
class _HeapItem:
    # Min-heap by saving: the root is the *least* valuable entry, which is
    # both the eviction victim and the last to flush.
    space_saving: int
    tiebreak: int
    entry: WriteBackEntry = field(compare=False)
    stale: bool = field(default=False, compare=False)


class LossyWriteBackCache:
    """Bounded cache of pending backward-delta write-backs.

    While an entry is pending, its *base* record must not be rewritten —
    the delta was computed against the base's current bytes. The cache
    therefore notifies its owner whenever an entry leaves *without* being
    flushed (``on_drop``), so the owner can release the pending reference
    it acquired on the base when scheduling.
    """

    def __init__(self, capacity_bytes: int = DEFAULT_CAPACITY_BYTES) -> None:
        if capacity_bytes < 1:
            raise ValueError(f"capacity_bytes must be >= 1, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self._by_record: dict[str, _HeapItem] = {}
        self._heap: list[_HeapItem] = []
        # The same items keyed the other way round: the root is the most
        # valuable entry, earliest queued among equals. Both heaps delete
        # lazily — an item that left by the other door is marked stale
        # and skipped when it surfaces, or dropped by ``_compact``.
        self._flush_heap: list[tuple[int, int, _HeapItem]] = []
        self._used = 0
        self._counter = itertools.count()
        self.discarded = 0
        self.discarded_savings = 0
        self.flushed = 0
        #: Entries removed because the record was updated/deleted or a
        #: newer delta superseded them (distinct from capacity discards).
        self.invalidated = 0
        #: Called with each entry discarded or invalidated (not flushed).
        self.on_drop = None

    def __len__(self) -> int:
        return len(self._by_record)

    def __contains__(self, record_id: str) -> bool:
        return record_id in self._by_record

    def pending_base_of(self, record_id: str) -> str | None:
        """The base the pending entry for ``record_id`` decodes from."""
        item = self._by_record.get(record_id)
        return item.entry.base_id if item is not None else None

    def pending_entries(self) -> list[WriteBackEntry]:
        """Snapshot of every queued entry (invariant checking / inspection)."""
        return [item.entry for item in self._by_record.values()]

    @property
    def used_bytes(self) -> int:
        """Bytes currently held by cached entries."""
        return self._used

    def put(self, entry: WriteBackEntry) -> None:
        """Queue a write-back, displacing least-valuable entries if needed.

        A newer delta for the same record replaces the old one (only the
        latest backward encoding is meaningful). Entries whose payload
        exceeds the whole budget are dropped immediately — recorded as a
        discard, exactly as a capacity eviction would be.
        """
        self.invalidate(entry.record_id)
        if len(entry.payload) > self.capacity_bytes:
            self.discarded += 1
            self.discarded_savings += entry.space_saving
            self._notify_drop(entry)
            return
        item = _HeapItem(entry.space_saving, next(self._counter), entry)
        self._by_record[entry.record_id] = item
        heapq.heappush(self._heap, item)
        heapq.heappush(self._flush_heap, (-item.space_saving, item.tiebreak, item))
        self._used += len(entry.payload)
        while self._used > self.capacity_bytes:
            victim = self._pop_least_valuable()
            if victim is None:
                break
            self.discarded += 1
            self.discarded_savings += victim.space_saving
            self._notify_drop(victim)
        if max(len(self._heap), len(self._flush_heap)) > (
            2 * len(self._by_record) + _COMPACT_SLACK
        ):
            self._compact()

    def invalidate(self, record_id: str) -> WriteBackEntry | None:
        """Remove a pending write-back (client updated/deleted the record,
        or a newer delta supersedes it); the drop callback fires.

        §4.1: "dbDedup always checks the cache for each update. If it finds
        a record with the same ID ... it invalidates the entry and proceeds
        normally."
        """
        entry = self._remove(record_id)
        if entry is not None:
            self.invalidated += 1
            self._notify_drop(entry)
        return entry

    def flush_most_valuable(self) -> WriteBackEntry | None:
        """Remove and return the highest-saving entry (None when empty).

        Flushing is not a drop: the caller applies the entry and is
        responsible for releasing the pending base reference afterwards.
        """
        while self._flush_heap:
            item = heapq.heappop(self._flush_heap)[2]
            if item.stale:
                continue
            self.flushed += 1
            return self._remove(item.entry.record_id)
        return None

    def _remove(self, record_id: str) -> WriteBackEntry | None:
        item = self._by_record.pop(record_id, None)
        if item is None:
            return None
        item.stale = True
        self._used -= len(item.entry.payload)
        return item.entry

    def _compact(self) -> None:
        """Rebuild both heaps from the live items.

        Stale items keep their payloads reachable, so without this the
        heaps — not ``capacity_bytes`` — would bound memory on a run that
        overflows often and flushes rarely, or the other way round. Called
        once stale items outnumber live ones, so the O(live) rebuild is
        paid for by the removals that made them stale.
        """
        live = list(self._by_record.values())
        self._heap = live
        heapq.heapify(self._heap)
        self._flush_heap = [(-item.space_saving, item.tiebreak, item) for item in live]
        heapq.heapify(self._flush_heap)

    def _notify_drop(self, entry: WriteBackEntry) -> None:
        if self.on_drop is not None:
            self.on_drop(entry)

    def drain(self) -> list[WriteBackEntry]:
        """Flush everything, most valuable first (used at shutdown/idle).

        Like :meth:`flush_most_valuable`, drained entries do not fire the
        drop callback — the caller applies them.
        """
        entries = []
        while True:
            entry = self.flush_most_valuable()
            if entry is None:
                return entries
            entries.append(entry)

    def _pop_least_valuable(self) -> WriteBackEntry | None:
        while self._heap:
            item = heapq.heappop(self._heap)
            if item.stale:
                continue
            return self._remove(item.entry.record_id)
        return None

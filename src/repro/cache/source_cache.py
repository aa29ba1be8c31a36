"""Source record cache (§3.3.1).

Delta compression needs the *source* record's bytes; fetching them from
disk would contend with client queries. The cache exploits the temporal
locality of dedup-friendly workloads — updates to an article / thread /
mailbox cluster in time — by retaining, per encoding chain, exactly the
records a future encode is likely to need:

* the chain tail (the most recent record), replaced in place whenever the
  chain grows, and
* the latest hop base of each hop level, so hop-base re-encodings also hit.

Everything else follows plain byte-budget LRU. The cache's hit ratio is
what Fig. 13a measures against the cache-aware selection reward score.
"""

from __future__ import annotations

from collections import OrderedDict

#: Paper configuration: "a small source record cache (32 MB)".
DEFAULT_CAPACITY_BYTES = 32 * 1024 * 1024


class SourceRecordCache:
    """Record-id → raw content cache with chain-aware replacement.

    The capacity is a byte budget, not an entry count: each entry costs
    ``len(content)``. Content bigger than the whole budget is rejected
    rather than evicting everything else.
    """

    def __init__(self, capacity_bytes: int = DEFAULT_CAPACITY_BYTES) -> None:
        if capacity_bytes < 1:
            raise ValueError(f"capacity_bytes must be >= 1, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self._entries: OrderedDict[str, bytes] = OrderedDict()
        #: Bytes currently held by cached entries.
        self.used_bytes = 0
        #: Lookups served from the cache / that fell through to storage.
        self.hits = 0
        self.misses = 0
        #: Entries the byte budget pushed out (invalidations and
        #: same-key replacements do not count).
        self.evictions = 0

    def __contains__(self, record_id: str) -> bool:
        return record_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def miss_ratio(self) -> float:
        """Fraction of lookups that missed (0.0 when never queried)."""
        total = self.hits + self.misses
        return self.misses / total if total else 0.0

    def get(self, record_id: str) -> bytes | None:
        """Fetch a cached record's raw content (counts hit/miss)."""
        content = self._entries.get(record_id)
        if content is None:
            self.misses += 1
            return None
        self._entries.move_to_end(record_id)
        self.hits += 1
        return content

    def peek(self, record_id: str) -> bytes | None:
        """Fetch without touching recency or hit/miss counters (decode path)."""
        return self._entries.get(record_id)

    def admit(self, record_id: str, content: bytes) -> None:
        """Cache a record fetched from storage or freshly inserted."""
        size = len(content)
        capacity = self.capacity_bytes
        if size > capacity:
            self._invalidate(record_id)
            return
        entries = self._entries
        old = entries.pop(record_id, None)
        used = self.used_bytes + size
        if old is not None:
            used -= len(old)
        entries[record_id] = content
        if used > capacity:
            evict = entries.popitem
            evicted = 0
            while used > capacity:
                used -= len(evict(last=False)[1])
                evicted += 1
            self.evictions += evicted
        self.used_bytes = used

    def invalidate(self, record_id: str) -> None:
        """Drop a record (its raw content changed or it was deleted)."""
        content = self._entries.pop(record_id, None)
        if content is not None:
            self.used_bytes -= len(content)

    # The chain-aware calls below reuse admit/invalidate through these
    # names, so a timing wrapper installed on the public methods counts
    # each public call once.
    _admit = admit
    _invalidate = invalidate

    def replace_tail(self, old_tail: str, new_tail: str, content: bytes) -> None:
        """Chain grew: the old tail's slot is taken over by the new tail.

        §3.3.1: "if dbDedup identifies a similar record in the cache ...
        it replaces the existing record with the new one." Replacing rather
        than adding keeps exactly one non-hop-base entry per chain.
        """
        self._invalidate(old_tail)
        self._admit(new_tail, content)

    def keep_hop_base(self, record_id: str, content: bytes, replacing: str | None) -> None:
        """Cache the latest hop base of a level, dropping the one it replaces."""
        if replacing is not None:
            self._invalidate(replacing)
        self._admit(record_id, content)

"""Byte-budgeted LRU cache — the base mechanism under the source cache."""

from __future__ import annotations

from collections import OrderedDict


class LRUByteCache:
    """LRU cache whose capacity is a byte budget, not an entry count.

    Values must be ``bytes``-like; each entry's cost is ``len(value)``.
    Oversized values (bigger than the whole budget) are rejected rather
    than evicting everything else.
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes < 1:
            raise ValueError(f"capacity_bytes must be >= 1, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self._entries: OrderedDict[str, bytes] = OrderedDict()
        self._used = 0
        self.hits = 0
        self.misses = 0
        #: Entries pushed out by the byte budget (explicit ``pop`` calls
        #: and same-key replacements do not count).
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    @property
    def used_bytes(self) -> int:
        """Bytes currently held by cached entries."""
        return self._used

    @property
    def miss_ratio(self) -> float:
        """Fraction of lookups that missed (0.0 when never queried)."""
        total = self.hits + self.misses
        return self.misses / total if total else 0.0

    def get(self, key: str) -> bytes | None:
        """Return the cached value and refresh recency, or None on miss."""
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def peek(self, key: str) -> bytes | None:
        """Like :meth:`get` but touches neither recency nor counters."""
        return self._entries.get(key)

    def put(self, key: str, value: bytes) -> bool:
        """Insert/replace ``key``; returns False if the value cannot fit."""
        size = len(value)
        capacity = self.capacity_bytes
        if size > capacity:
            self.pop(key)
            return False
        entries = self._entries
        old = entries.pop(key, None)
        used = self._used + size
        if old is not None:
            used -= len(old)
        entries[key] = value
        if used > capacity:
            evict = entries.popitem
            evicted = 0
            while used > capacity:
                used -= len(evict(last=False)[1])
                evicted += 1
            self.evictions += evicted
        self._used = used
        return True

    def pop(self, key: str) -> bytes | None:
        """Remove and return ``key``'s value, or None if absent."""
        value = self._entries.pop(key, None)
        if value is not None:
            self._used -= len(value)
        return value

    def clear(self) -> None:
        """Drop every entry."""
        self._entries.clear()
        self._used = 0

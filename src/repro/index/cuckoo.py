"""Cuckoo-hash feature index (§3.1.2).

Maps similarity features (sampled chunk hashes) to the records that carry
them. Each entry is modelled as the paper describes: a 2-byte compact
checksum of the feature plus a 4-byte pointer to the record — 6 bytes per
entry, which is the figure the index-memory numbers in Fig. 1/10 report.

Lookup semantics follow §3.1.2:

* two hash functions map a feature to two candidate buckets, each with
  several slots; lookup scans *both* buckets, collecting every entry whose
  checksum matches — one feature can legitimately map to many records;
* when the matches reach ``max_candidates``, the least-recently-used
  matching entry **across the full scan** is evicted to keep hot records
  discoverable, and the first ``max_candidates`` surviving matches (scan
  order: first bucket, then second, lowest slot first) are returned.
  Recency ties break toward the earliest match in that same scan order —
  between two equally stale entries the one found first is evicted;
* insert places the (checksum, record) entry in the first empty slot; when
  every candidate slot is taken, the least-recently-used entry among the
  candidate buckets is displaced.

Because the stored key is only a 16-bit checksum, lookups can return false
positives. That is by design: dbDedup's final delta-compression step
verifies every byte, so a wrong candidate costs a little work, never
correctness.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Hashable, Sequence

from repro.hashing.murmur import murmur3_32_u64_batch

#: Bytes charged per occupied entry: 2-byte checksum + 4-byte pointer.
#: The retained source feature (``_Entry.feature``) is simulation
#: bookkeeping for the tiered index's spill path and is *not* part of
#: this figure — :mod:`repro.index.tiered` charges it separately when a
#: real deployment would actually have to store it.
ENTRY_BYTES = 6

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF

# MurmurHash3 (x86, 32-bit) of an 8-byte key in closed form. The key is
# exactly two body blocks and an empty tail, and the block pre-mix does
# not depend on the seed: a feature's three digests share it, and each
# is then a fixed chain of int arithmetic. Bit-identical to the frozen
# oracle ``murmur3_32(feature.to_bytes(8, "little"), seed)``.


def _premix(block: int) -> int:
    """``rotl(block * c1, 15) * c2`` of one 32-bit key half."""
    block = (block * 0xCC9E2D51) & _MASK32
    return ((((block << 15) | (block >> 17)) & _MASK32) * 0x1B873593) & _MASK32


def _digest(low: int, high: int, seed: int) -> int:
    """Digest of the key whose pre-mixed halves are ``low`` and ``high``."""
    h = seed ^ low
    h = ((((h << 13) | (h >> 19)) & _MASK32) * 5 + 0xE6546B64) & _MASK32
    h ^= high
    h = ((((h << 13) | (h >> 19)) & _MASK32) * 5 + 0xE6546B64) & _MASK32
    h ^= 8  # key length
    h ^= h >> 16
    h = (h * 0x85EBCA6B) & _MASK32
    h ^= h >> 13
    h = (h * 0xC2B2AE35) & _MASK32
    return h ^ (h >> 16)


@dataclass
class _Entry:
    checksum: int
    record: Hashable
    last_used: int
    feature: int = 0
    bucket: int = -1


@dataclass
class _Bucket:
    slots: list[_Entry] = field(default_factory=list)


class CuckooFeatureIndex:
    """Fixed-capacity feature → record index with LRU displacement.

    Args:
        num_buckets: bucket count (rounded up to a power of two).
        slots_per_bucket: entries per bucket.
        max_candidates: cap on similar records returned per feature lookup.
    """

    def __init__(
        self,
        num_buckets: int = 1 << 16,
        slots_per_bucket: int = 4,
        max_candidates: int = 8,
    ) -> None:
        if num_buckets < 1:
            raise ValueError(f"num_buckets must be >= 1, got {num_buckets}")
        if slots_per_bucket < 1:
            raise ValueError(f"slots_per_bucket must be >= 1, got {slots_per_bucket}")
        if max_candidates < 1:
            raise ValueError(f"max_candidates must be >= 1, got {max_candidates}")
        size = 1
        while size < num_buckets:
            size <<= 1
        self._mask = size - 1
        self._buckets: list[_Bucket] = [_Bucket() for _ in range(size)]
        self.slots_per_bucket = slots_per_bucket
        self.max_candidates = max_candidates
        self._clock = 0
        self._entry_count = 0
        # Occupancy/traffic counters, exported via the metrics registry.
        self.lookups = 0
        self.inserts = 0
        #: Entries displaced because every candidate slot was taken
        #: (the cuckoo "kick" path).
        self.displacements = 0
        #: Matching entries evicted when a lookup hit ``max_candidates``.
        self.lru_evictions = 0
        #: Lookup outcome split (every lookup increments exactly one):
        #: ``hot_hits`` — at least one match; ``misses`` — none. The
        #: names match the tiered index so the exported ``index_*``
        #: families and their reconciliation identity are uniform across
        #: index kinds (a cuckoo index has no cold tier: cold hits are 0).
        self.hot_hits = 0
        self.misses = 0

    # -- memory accounting -------------------------------------------------

    def __len__(self) -> int:
        return self._entry_count

    @property
    def memory_bytes(self) -> int:
        """Memory charged for occupied entries (6 bytes each, per §3.1.2)."""
        return self._entry_count * ENTRY_BYTES

    # -- hashing -----------------------------------------------------------

    def _hashed(self, feature: int) -> tuple[int, int, int]:
        """``(checksum, first bucket, second bucket)`` of one feature.

        Three murmur digests of the same 8-byte little-endian key: the
        compact 16-bit checksum stored as the entry key, and the two
        candidate buckets.

        Raises:
            OverflowError: if ``feature`` is outside ``[0, 2**64)``.
        """
        if not 0 <= feature <= _MASK64:
            raise OverflowError(f"feature {feature} is not an unsigned 64-bit key")
        low = _premix(feature & _MASK32)
        high = _premix(feature >> 32)
        first = _digest(low, high, 0x1) & self._mask
        second = _digest(low, high, 0x2) & self._mask
        if second == first:
            second = (first + 1) & self._mask
        return _digest(low, high, 0xC0FFEE) & 0xFFFF, first, second

    # -- operations ----------------------------------------------------------

    def lookup_and_insert(self, feature: int, record: Hashable) -> list[Hashable]:
        """Return records sharing ``feature``, then register ``record`` for it.

        This mirrors the paper's combined flow: every new record both queries
        the index and becomes discoverable by future records.
        """
        hashed = self._hashed(feature)
        matches = self._lookup_hashed(*hashed)
        self._insert_hashed(feature, record, *hashed)
        return matches

    def lookup(self, feature: int) -> list[Hashable]:
        """Records whose entries match ``feature``'s checksum (LRU-refreshed).

        Both candidate buckets are scanned in full before the
        ``max_candidates`` cap is applied, so the eviction it triggers
        always removes the least-recently-used match of the *whole*
        candidate set — an early-stopped scan used to evict the LRU of
        whatever prefix it happened to see, which could keep a staler
        entry alive in the unscanned remainder. Matches are bounded by
        ``2 * slots_per_bucket``, so the full scan costs the same O(slots)
        as before. Only the returned (capped) matches have their recency
        refreshed; surplus matches beyond the cap stay stale and become
        the next eviction candidates.
        """
        return self._lookup_hashed(*self._hashed(feature))

    def _lookup_hashed(
        self, checksum: int, first: int, second: int
    ) -> list[Hashable]:
        """:meth:`lookup` on a feature's precomputed :meth:`_hashed` triple."""
        self._clock += 1
        self.lookups += 1
        matches: list[_Entry] = []
        for index in (first, second):
            for entry in self._buckets[index].slots:
                if entry.checksum == checksum:
                    matches.append(entry)
        if len(matches) >= self.max_candidates:
            self._evict_lru(matches)
            matches = matches[: self.max_candidates]
        if not matches:
            self.misses += 1
            return []
        self.hot_hits += 1
        for entry in matches:
            entry.last_used = self._clock
        return [entry.record for entry in matches]

    def insert(self, feature: int, record: Hashable) -> None:
        """Register ``record`` under ``feature``, displacing LRU if full."""
        self._insert_hashed(feature, record, *self._hashed(feature))

    def insert_batch(
        self, features: Sequence[int], record_ids: Sequence[Hashable]
    ) -> None:
        """Insert many ``(feature, record)`` pairs with vectorized hashing.

        Semantically identical to ``insert(f, r)`` per pair in order, but
        the three murmur digests per pair (checksum + both bucket hashes)
        run as one numpy batch — the lane that makes the 10⁷-feature
        budget probes in ``benchmarks/`` feasible in pure Python.
        """
        checksums = murmur3_32_u64_batch(features, seed=0xC0FFEE)
        firsts = murmur3_32_u64_batch(features, seed=0x1)
        seconds = murmur3_32_u64_batch(features, seed=0x2)
        mask = self._mask
        for feature, record, checksum, first, second in zip(
            features, record_ids, checksums, firsts, seconds
        ):
            first = int(first) & mask
            second = int(second) & mask
            if second == first:
                second = (first + 1) & mask
            self._insert_hashed(
                int(feature), record, int(checksum) & 0xFFFF, first, second
            )

    def _insert_hashed(
        self,
        feature: int,
        record: Hashable,
        checksum: int,
        first: int,
        second: int,
    ) -> None:
        self._clock += 1
        self.inserts += 1
        entry = _Entry(checksum, record, self._clock, feature)
        candidates = (first, second)
        for index in candidates:
            bucket = self._buckets[index]
            if len(bucket.slots) < self.slots_per_bucket:
                entry.bucket = index
                bucket.slots.append(entry)
                self._entry_count += 1
                return
        # All candidate slots taken: displace the LRU entry among them.
        victim_index = -1
        victim_pos = -1
        victim_used = None
        for index in candidates:
            bucket = self._buckets[index]
            for pos, existing in enumerate(bucket.slots):
                if victim_used is None or existing.last_used < victim_used:
                    victim_index = index
                    victim_pos = pos
                    victim_used = existing.last_used
        if victim_index >= 0:
            entry.bucket = victim_index
            self._buckets[victim_index].slots[victim_pos] = entry
            self.displacements += 1

    def _evict_lru(self, matches: list[_Entry]) -> None:
        """Drop the least-recently-used entry among ``matches`` (§3.1.2).

        Tie-break: ``min`` keeps the first minimum, and ``matches`` is in
        scan order, so between equally stale entries the one scanned
        first (first bucket, lowest slot) is evicted.
        """
        victim = min(matches, key=lambda entry: entry.last_used)
        self._remove_entry(victim)
        self.lru_evictions += 1
        matches.remove(victim)

    def _remove_entry(self, victim: _Entry) -> None:
        """Unlink one entry from its bucket (identity match, not equality)."""
        slots = self._buckets[victim.bucket].slots
        for position, entry in enumerate(slots):
            if entry is victim:
                del slots[position]
                self._entry_count -= 1
                return

    def pop_lru(self, count: int) -> list[tuple[int, Hashable]]:
        """Remove the ``count`` least-recently-used entries, oldest first.

        Returns their ``(feature, record)`` pairs — what the tiered
        index's spill path needs to re-home an entry in the cold tier.
        Recency ties break toward bucket/slot scan order, matching
        :meth:`lookup` eviction. O(entries): spill-path only, called in
        budget-sized chunks so the scan amortizes over many inserts.
        """
        if count <= 0:
            return []
        victims = heapq.nsmallest(
            count,
            (
                entry
                for bucket in self._buckets
                for entry in bucket.slots
            ),
            key=lambda entry: entry.last_used,
        )
        for victim in victims:
            self._remove_entry(victim)
        return [(victim.feature, victim.record) for victim in victims]

    def record_ids(self) -> set[Hashable]:
        """Every record currently referenced by at least one entry.

        Used by the cluster invariant checker to assert index liveness:
        entries may only point at live records. O(buckets) — scrub-path
        only, never on the insert path.
        """
        return {
            entry.record
            for bucket in self._buckets
            for entry in bucket.slots
        }

    def remove_record(self, record: Hashable) -> int:
        """Remove every entry pointing at ``record``; returns entries removed."""
        removed = 0
        for bucket in self._buckets:
            kept = [entry for entry in bucket.slots if entry.record != record]
            removed += len(bucket.slots) - len(kept)
            bucket.slots = kept
        self._entry_count -= removed
        return removed

    def clear(self) -> None:
        """Drop all entries (used when the governor disables a database)."""
        for bucket in self._buckets:
            bucket.slots.clear()
        self._entry_count = 0

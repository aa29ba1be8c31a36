"""Cuckoo-hash feature index (§3.1.2), with an optional cold tier.

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

The paper's index holds every feature in RAM forever. An
:class:`~repro.index.spec.IndexSpec` with a ``hot_bytes_budget`` bounds
it the way LSHBloom bounds LSH band storage:

* the cuckoo table becomes the exact **hot tier**, kept under the budget.
  Its entries cost 14 bytes, since a spilling index must keep the 8-byte
  feature to re-home an entry (a bare checksum cannot be re-banded);
* the **cold tier** is a fixed set of feature *bands*; each band owns a
  Bloom filter (false-positive budget ``cold_fpp``) plus a bounded FIFO
  set of candidate record references, so its memory never grows with
  corpus size;
* crossing the budget **demotes** the LRU hot entries: the feature enters
  its band's filter and the record joins the band's candidates. A cold
  feature looked up ``promotion_hits`` times is **promoted** back into
  the hot tier with the candidates its band returned.

Cold lookups are band-granular, and a band's filter can fire for
features never demoted at all (counted in ``cold_false_positives``); both
are safe by the same argument as checksum collisions. What the structure
guarantees is *negative* accuracy: a record removed from both tiers is
never returned again, which keeps delete/update invalidation sound.

Without a budget there are no bands: every cold counter and byte count
reads 0. Each lookup increments exactly one of ``hot_hits`` /
``cold_hits`` / ``misses`` — the identity ``check-metrics`` enforces on
the exported ``index_*`` families. Demotions and promotions accumulate
``maintenance_bytes``, which the engine drains and charges as background
simulation CPU (see :meth:`~repro.core.engine.DedupEngine.
charge_index_maintenance`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Hashable, Sequence

from repro.hashing.murmur import murmur3_32, murmur3_32_u64_batch
from repro.index.bloom import BloomFilter, feature_digests
from repro.index.spec import IndexSpec

#: Bytes charged per occupied entry: 2-byte checksum + 4-byte pointer.
#: The retained source feature (``_Entry.feature``) is simulation
#: bookkeeping an unbudgeted index never spills, so it is not charged.
ENTRY_BYTES = 6

#: Bytes charged per entry of a budgeted index: the 6-byte entry plus the
#: 8-byte source feature a spilling hot tier must retain.
HOT_ENTRY_BYTES = ENTRY_BYTES + 8

#: Murmur seed of the feature → band assignment hash.
BAND_SEED = 0xBA2D

#: Bytes charged per candidate record reference held by a band (a 4-byte
#: record pointer, same currency as the entry's pointer).
BAND_POINTER_BYTES = 4

#: Fraction of the budget the spill path drains down to, so the
#: O(entries) LRU scan runs once per ~budget/8 inserted bytes instead of
#: on every insert at the boundary.
SPILL_TARGET_NUM, SPILL_TARGET_DEN = 7, 8

#: Bound on the promotion hit-count map; at the bound the oldest half of
#: the tracked features is dropped (insertion order), keeping promotion
#: state O(1) however many cold features are probed.
MAX_TRACKED_COLD_HITS = 8192

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


class _Band:
    """One cold-tier feature band: Bloom membership + candidate records."""

    __slots__ = ("bloom", "records", "features")

    def __init__(self, capacity: int, fpp: float, track: bool) -> None:
        self.bloom = BloomFilter(capacity, fpp)
        #: Insertion-ordered record set (dict keys), FIFO beyond the cap.
        self.records: dict[Hashable, None] = {}
        #: Exact shadow of demoted features — *simulation ground truth*
        #: used only to count true Bloom false positives; a real node
        #: would not store it, so it is never charged to memory_bytes.
        #: None when the index was built with tracking disabled.
        self.features: set[int] | None = set() if track else None


class CuckooFeatureIndex:
    """Fixed-capacity feature → record index with LRU displacement.

    With ``spec.hot_bytes_budget`` set, the table is the hot tier over
    the Bloom-banded cold tier described in the module docstring.

    Args:
        spec: bucket count (rounded up to a power of two), hot-tier
            budget and cold-tier geometry.
        slots_per_bucket: entries per bucket.
        max_candidates: cap on similar records returned per feature lookup.
        track_false_positives: keep the exact per-band feature shadow
            sets that let the simulator count *true* Bloom false
            positives. Disable for huge synthetic probes (10⁷ features)
            where the shadow would dwarf the structure being measured;
            ``cold_false_positives`` then stays 0.
    """

    def __init__(
        self,
        spec: IndexSpec = IndexSpec(),
        *,
        slots_per_bucket: int = 4,
        max_candidates: int = 8,
        track_false_positives: bool = True,
    ) -> None:
        if slots_per_bucket < 1:
            raise ValueError(f"slots_per_bucket must be >= 1, got {slots_per_bucket}")
        if max_candidates < 1:
            raise ValueError(f"max_candidates must be >= 1, got {max_candidates}")
        size = 1
        while size < spec.num_buckets:
            size <<= 1
        self._mask = size - 1
        # One plain list of entries per bucket, in slot order.
        self._buckets: list[list[_Entry]] = [[] for _ in range(size)]
        self.slots_per_bucket = slots_per_bucket
        self.max_candidates = max_candidates
        self.spec = spec
        self.hot_bytes_budget = spec.hot_bytes_budget
        self._entry_bytes = ENTRY_BYTES if spec.hot_bytes_budget is None else HOT_ENTRY_BYTES
        self._track = track_false_positives
        #: Cold bands materialize on first demotion, so an index that
        #: never spills (or has no budget) charges no cold-tier memory.
        self._bands: dict[int, _Band] = {}
        self._cold_hit_counts: dict[int, int] = {}
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
        #: Lookup outcome split: exactly one bumps per lookup.
        self.hot_hits = 0
        self.cold_hits = 0
        self.misses = 0
        #: Cold Bloom hits for features never demoted into the band
        #: (0 when the ground-truth shadow is disabled).
        self.cold_false_positives = 0
        self.demotions = 0
        self.promotions = 0
        #: Entry bytes moved between tiers since the last drain; the
        #: engine converts these to background CPU seconds.
        self.maintenance_bytes = 0

    # -- memory accounting -------------------------------------------------

    def __len__(self) -> int:
        return self._entry_count + self.cold_records

    @property
    def hot_entries(self) -> int:
        """Entries resident in the cuckoo table."""
        return self._entry_count

    @property
    def cold_records(self) -> int:
        """Candidate record references held across all cold bands."""
        return sum(len(band.records) for band in self._bands.values())

    @property
    def hot_bytes(self) -> int:
        """Cuckoo-table memory: 6 bytes an entry, 14 under a budget."""
        return self._entry_count * self._entry_bytes

    @property
    def cold_bytes(self) -> int:
        """Cold-tier memory: materialized band filters + record pointers."""
        return sum(
            band.bloom.size_bytes + len(band.records) * BAND_POINTER_BYTES
            for band in self._bands.values()
        )

    @property
    def memory_bytes(self) -> int:
        """Total charged index memory across both tiers."""
        return self.hot_bytes + self.cold_bytes

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
        matches = self._lookup_hashed(feature, *hashed)
        self._insert_hashed(feature, record, *hashed)
        if self.hot_bytes_budget is not None:
            self._enforce_budget()
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
        the next eviction candidates. A miss falls through to the cold
        tier when bands exist.
        """
        return self._lookup_hashed(feature, *self._hashed(feature))

    def _lookup_hashed(
        self, feature: int, checksum: int, first: int, second: int
    ) -> list[Hashable]:
        """:meth:`lookup` on a feature's precomputed :meth:`_hashed` triple."""
        self._clock += 1
        self.lookups += 1
        matches: list[_Entry] = []
        for index in (first, second):
            for entry in self._buckets[index]:
                if entry.checksum == checksum:
                    matches.append(entry)
        if len(matches) >= self.max_candidates:
            self._evict_lru(matches)
            matches = matches[: self.max_candidates]
        if not matches:
            if self._bands:
                return self._cold_lookup(feature)
            self.misses += 1
            return []
        self.hot_hits += 1
        for entry in matches:
            entry.last_used = self._clock
        return [entry.record for entry in matches]

    def insert(self, feature: int, record: Hashable) -> None:
        """Register ``record`` under ``feature``, displacing LRU if full."""
        self._insert_hashed(feature, record, *self._hashed(feature))
        if self.hot_bytes_budget is not None:
            self._enforce_budget()

    def insert_batch(
        self, features: Sequence[int], record_ids: Sequence[Hashable]
    ) -> None:
        """Insert many ``(feature, record)`` pairs with vectorized hashing.

        Semantically identical to ``insert(f, r)`` per pair in order, but
        the three murmur digests per pair (checksum + both bucket hashes)
        run as one numpy batch — the lane that makes the 10⁷-feature
        budget probes in ``benchmarks/`` feasible in pure Python. The
        budget is enforced once, after the whole batch.
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
        if self.hot_bytes_budget is not None:
            self._enforce_budget()

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
            if len(bucket) < self.slots_per_bucket:
                entry.bucket = index
                bucket.append(entry)
                self._entry_count += 1
                return
        # All candidate slots taken: displace the LRU entry among them.
        victim_index = -1
        victim_pos = -1
        victim_used = None
        for index in candidates:
            for pos, existing in enumerate(self._buckets[index]):
                if victim_used is None or existing.last_used < victim_used:
                    victim_index = index
                    victim_pos = pos
                    victim_used = existing.last_used
        if victim_index >= 0:
            entry.bucket = victim_index
            self._buckets[victim_index][victim_pos] = entry
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
        slots = self._buckets[victim.bucket]
        for position, entry in enumerate(slots):
            if entry is victim:
                del slots[position]
                self._entry_count -= 1
                return

    # -- cold tier -----------------------------------------------------------

    def _band_of(self, feature: int) -> int:
        raw = (feature & _MASK64).to_bytes(8, "little")
        return murmur3_32(raw, seed=BAND_SEED) % self.spec.cold_bands

    def _enforce_budget(self) -> None:
        """Demote the LRU entries once the table crosses the budget.

        The spill drains to 7/8 of the budget. Recency ties break toward
        bucket/slot scan order, matching :meth:`lookup` eviction. The
        O(entries) scan is spill-path only and amortizes over the
        budget/8 bytes inserted before the next one.
        """
        budget = self.hot_bytes_budget
        if self.hot_bytes <= budget:
            return
        target = budget * SPILL_TARGET_NUM // SPILL_TARGET_DEN
        count = -(-(self.hot_bytes - target) // HOT_ENTRY_BYTES)  # ceil
        victims = heapq.nsmallest(
            count,
            (entry for bucket in self._buckets for entry in bucket),
            key=lambda entry: entry.last_used,
        )
        for victim in victims:
            self._remove_entry(victim)
            self._demote(victim.feature, victim.record)

    def _demote(self, feature: int, record: Hashable) -> None:
        band_id = self._band_of(feature)
        band = self._bands.get(band_id)
        if band is None:
            band = _Band(self.spec.cold_band_features, self.spec.cold_fpp, self._track)
            self._bands[band_id] = band
        band.bloom.add(feature)
        if band.features is not None:
            band.features.add(feature)
        if record in band.records:
            # Refresh FIFO position: re-demoted records are recent again.
            del band.records[record]
        band.records[record] = None
        while len(band.records) > self.spec.cold_band_records:
            del band.records[next(iter(band.records))]
        self.demotions += 1
        self.maintenance_bytes += HOT_ENTRY_BYTES

    def _cold_lookup(self, feature: int) -> list[Hashable]:
        """The cold tier's answer to a feature the table missed."""
        band = self._bands.get(self._band_of(feature))
        if band is None or not band.bloom.contains_hashed(*feature_digests(feature)):
            self.misses += 1
            return []
        if band.features is not None and feature not in band.features:
            self.cold_false_positives += 1
        if not band.records:
            self.misses += 1
            return []
        # Newest demotions first: the record list is FIFO-ordered, and
        # recent records are the likeliest delta sources (§3.1.3's
        # recency preference, applied at band granularity).
        candidates = list(band.records)[-self.max_candidates:][::-1]
        self.cold_hits += 1
        self._note_cold_hit(feature, candidates)
        return candidates

    def _note_cold_hit(self, feature: int, candidates: list[Hashable]) -> None:
        counts = self._cold_hit_counts
        count = counts.get(feature, 0) + 1
        if count < self.spec.promotion_hits:
            if feature not in counts and len(counts) >= MAX_TRACKED_COLD_HITS:
                for stale in list(counts)[: MAX_TRACKED_COLD_HITS // 2]:
                    del counts[stale]
            counts[feature] = count
            return
        # Promote: the feature re-enters the table with the candidates
        # its band vouched for, so the next lookup is exact again.
        counts.pop(feature, None)
        hashed = self._hashed(feature)
        for record in candidates:
            self._insert_hashed(feature, record, *hashed)
            self.maintenance_bytes += HOT_ENTRY_BYTES
        self.promotions += 1
        self._enforce_budget()

    def drain_maintenance_bytes(self) -> int:
        """Return and reset the pending demotion/promotion byte count."""
        drained = self.maintenance_bytes
        self.maintenance_bytes = 0
        return drained

    # -- invalidation and introspection ------------------------------------

    def record_ids(self) -> set[Hashable]:
        """Every record currently referenced by at least one entry or band.

        Used by the cluster invariant checker to assert index liveness:
        entries may only point at live records. O(buckets) — scrub-path
        only, never on the insert path.
        """
        ids = {entry.record for bucket in self._buckets for entry in bucket}
        for band in self._bands.values():
            ids.update(band.records)
        return ids

    def remove_record(self, record: Hashable) -> int:
        """Remove every reference to ``record``; returns references removed.

        Cold-tier candidates are band-level record references, so one
        removal per band suffices — after it, no lookup can resurrect
        the record regardless of which features it carried.
        """
        removed = 0
        for bucket in self._buckets:
            kept = [entry for entry in bucket if entry.record != record]
            removed += len(bucket) - len(kept)
            bucket[:] = kept
        self._entry_count -= removed
        for band in self._bands.values():
            if record in band.records:
                del band.records[record]
                removed += 1
        return removed

    def clear(self) -> None:
        """Drop all entries and bands (governor-driven partition teardown)."""
        for bucket in self._buckets:
            bucket.clear()
        self._entry_count = 0
        self._bands.clear()
        self._cold_hit_counts.clear()

    def tier_report(self) -> dict:
        """Operator-facing snapshot used by ``DedupClient.index_report``."""
        return {
            "hot_entries": self.hot_entries,
            "hot_bytes": self.hot_bytes,
            "hot_bytes_budget": self.hot_bytes_budget,
            "cold_records": self.cold_records,
            "cold_bands_materialized": len(self._bands),
            "cold_bytes": self.cold_bytes,
            "lookups": self.lookups,
            "hot_hits": self.hot_hits,
            "cold_hits": self.cold_hits,
            "misses": self.misses,
            "cold_false_positives": self.cold_false_positives,
            "demotions": self.demotions,
            "promotions": self.promotions,
        }

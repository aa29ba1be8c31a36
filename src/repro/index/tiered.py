"""Memory-bounded tiered feature index: exact hot tier, approximate cold tier.

The cuckoo feature index (§3.1.2) holds every feature in RAM forever,
which caps cluster size far short of hundred-million-record scale. This
module bounds it the way LSHBloom bounds LSH band storage and FOLD keeps
ANN-over-sketches incremental:

* the **hot tier** is the existing :class:`~repro.index.cuckoo.
  CuckooFeatureIndex` — exact, LRU-scored by the access recency it
  already tracks — kept under ``hot_bytes_budget`` bytes;
* the **cold tier** is a fixed set of feature *bands*; each band owns a
  Bloom filter (configurable false-positive budget ``cold_fpp``) plus a
  bounded FIFO set of candidate record references. Band memory is
  constant, so cold-tier bytes never grow with corpus size;
* crossing the hot budget **demotes** the LRU hot entries: the feature
  enters its band's filter and the record joins the band's candidate
  set. A cold feature looked up ``promotion_hits`` times is **promoted**
  back into the hot tier with the candidates its band returned.

Cold lookups are band-granular: every record that ever demoted a feature
into the band is a potential candidate, and the Bloom filter can fire
for features never demoted at all (counted in ``cold_false_positives``).
Both imprecisions are safe by dbDedup's own argument — the delta stage
verifies every byte, so a wrong candidate costs a little CPU, never
correctness. What the structure guarantees is *negative* accuracy where
it matters: a record removed from both tiers can never be returned
again, which is what keeps delete/update invalidation sound.

Each lookup increments exactly one of ``hot_hits`` / ``cold_hits`` /
``misses`` — the reconciliation identity ``check-metrics`` enforces on
the exported ``index_*`` families. Demotions and promotions accumulate
``maintenance_bytes`` that the engine drains and charges as background
simulation CPU (see :meth:`~repro.core.engine.DedupEngine.
charge_index_maintenance`).
"""

from __future__ import annotations

from typing import Hashable, Sequence

from repro.hashing.murmur import murmur3_32
from repro.index.bloom import BloomFilter, feature_digests
from repro.index.cuckoo import ENTRY_BYTES, CuckooFeatureIndex
from repro.index.spec import IndexSpec

#: Murmur seed of the feature → band assignment hash.
BAND_SEED = 0xBA2D

#: Bytes charged per candidate record reference held by a band (a 4-byte
#: record pointer, same currency as the cuckoo entry's pointer).
BAND_POINTER_BYTES = 4

#: Bytes charged per *hot* entry: the 6-byte cuckoo entry plus the 8-byte
#: source feature a spilling tier must retain (a bare checksum cannot be
#: re-banded, so a real implementation stores the feature alongside).
HOT_ENTRY_BYTES = ENTRY_BYTES + 8

#: Fraction of the budget the spill path drains down to, so the
#: O(entries) LRU scan runs once per ~budget/8 inserted bytes instead of
#: on every insert at the boundary.
SPILL_TARGET_NUM, SPILL_TARGET_DEN = 7, 8

#: Bound on the promotion hit-count map; at the bound the oldest half of
#: the tracked features is dropped (insertion order), keeping promotion
#: state O(1) however many cold features are probed.
MAX_TRACKED_COLD_HITS = 8192


class _Band:
    """One cold-tier feature band: Bloom membership + candidate records."""

    __slots__ = ("bloom", "records", "features")

    def __init__(self, capacity: int, fpp: float) -> None:
        self.bloom = BloomFilter(capacity, fpp)
        #: Insertion-ordered record set (dict keys), FIFO beyond the cap.
        self.records: dict[Hashable, None] = {}
        #: Exact shadow of demoted features — *simulation ground truth*
        #: used only to count true Bloom false positives; a real node
        #: would not store it, so it is never charged to memory_bytes.
        #: None when the index was built with tracking disabled.
        self.features: set[int] | None


class TieredFeatureIndex:
    """Hot/cold feature index with a byte-budgeted exact tier.

    Duck-types the :class:`~repro.index.cuckoo.CuckooFeatureIndex`
    surface the engine, pipeline, and invariant checker consume
    (``lookup`` / ``insert`` / ``lookup_and_insert`` / ``remove_record``
    / ``record_ids`` / ``clear`` / ``memory_bytes`` / ``__len__`` plus
    the traffic counters), and adds the tier machinery described in the
    module docstring.

    Args:
        spec: an :class:`~repro.index.spec.IndexSpec` with
            ``kind="tiered"`` (geometry, budget, fpp, promotion knobs).
        track_false_positives: keep the exact per-band feature shadow
            sets that let the simulator count *true* Bloom false
            positives. Disable for huge synthetic probes (10⁷ features)
            where the shadow would dwarf the structure being measured;
            ``cold_false_positives`` then stays 0.
    """

    def __init__(
        self, spec: IndexSpec, *, track_false_positives: bool = True
    ) -> None:
        if spec.kind != "tiered":
            raise ValueError(f"expected a tiered spec, got kind={spec.kind!r}")
        self.spec = spec
        self.hot = CuckooFeatureIndex(
            num_buckets=spec.num_buckets,
            slots_per_bucket=spec.slots_per_bucket,
            max_candidates=spec.max_candidates,
        )
        self.max_candidates = spec.max_candidates
        self.hot_bytes_budget = spec.hot_bytes_budget
        self._track = track_false_positives
        #: Bands materialize on first demotion so an index that never
        #: spills charges no cold-tier memory.
        self._bands: dict[int, _Band] = {}
        self._cold_hit_counts: dict[int, int] = {}
        # Lookup outcome split: exactly one bumps per lookup.
        self.lookups = 0
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

    # -- cuckoo-surface delegation ----------------------------------------

    @property
    def inserts(self) -> int:
        """Hot-tier insertions (promotion re-inserts included)."""
        return self.hot.inserts

    @property
    def displacements(self) -> int:
        """Hot-tier cuckoo kicks."""
        return self.hot.displacements

    @property
    def lru_evictions(self) -> int:
        """Hot-tier lookup-cap LRU evictions."""
        return self.hot.lru_evictions

    def __len__(self) -> int:
        return self.hot_entries + self.cold_records

    @property
    def hot_entries(self) -> int:
        """Entries resident in the exact hot tier."""
        return len(self.hot)

    @property
    def cold_records(self) -> int:
        """Candidate record references held across all cold bands."""
        return sum(len(band.records) for band in self._bands.values())

    @property
    def hot_bytes(self) -> int:
        """Hot-tier memory: cuckoo entries plus their retained features."""
        return len(self.hot) * HOT_ENTRY_BYTES

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

    # -- tier mechanics ----------------------------------------------------

    def _band_of(self, feature: int) -> int:
        raw = (feature & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
        return murmur3_32(raw, seed=BAND_SEED) % self.spec.cold_bands

    def _band(self, band_id: int) -> _Band:
        band = self._bands.get(band_id)
        if band is None:
            band = _Band(self.spec.cold_band_features, self.spec.cold_fpp)
            band.features = set() if self._track else None
            self._bands[band_id] = band
        return band

    def _demote(self, feature: int, record: Hashable) -> None:
        band = self._band(self._band_of(feature))
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

    def _enforce_budget(self) -> None:
        budget = self.hot_bytes_budget
        if budget is None or self.hot_bytes <= budget:
            return
        target = budget * SPILL_TARGET_NUM // SPILL_TARGET_DEN
        excess = self.hot_bytes - target
        count = -(-excess // HOT_ENTRY_BYTES)  # ceil
        for feature, record in self.hot.pop_lru(count):
            self._demote(feature, record)

    def _note_cold_hit(
        self, feature: int, candidates: list[Hashable]
    ) -> None:
        counts = self._cold_hit_counts
        count = counts.get(feature, 0) + 1
        if count < self.spec.promotion_hits:
            if feature not in counts and len(counts) >= MAX_TRACKED_COLD_HITS:
                for stale in list(counts)[: MAX_TRACKED_COLD_HITS // 2]:
                    del counts[stale]
            counts[feature] = count
            return
        # Promote: the feature re-enters the hot tier with the candidates
        # its band vouched for, so the next lookup is exact again.
        counts.pop(feature, None)
        for record in candidates:
            self.hot.insert(feature, record)
            self.maintenance_bytes += HOT_ENTRY_BYTES
        self.promotions += 1
        self._enforce_budget()

    # -- operations --------------------------------------------------------

    def lookup(self, feature: int) -> list[Hashable]:
        """Candidate records for ``feature``: hot tier first, then bands."""
        return self._lookup_hashed(feature, self.hot._hashed(feature))

    def _lookup_hashed(
        self, feature: int, hashed: tuple[int, int, int]
    ) -> list[Hashable]:
        """:meth:`lookup` with the hot tier's digests of ``feature`` in hand."""
        self.lookups += 1
        matches = self.hot._lookup_hashed(*hashed)
        if matches:
            self.hot_hits += 1
            return matches
        band = self._bands.get(self._band_of(feature))
        if band is None:
            self.misses += 1
            return []
        h1, h2 = feature_digests(feature)
        if not band.bloom.contains_hashed(h1, h2):
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

    def insert(self, feature: int, record: Hashable) -> None:
        """Register ``record`` under ``feature`` in the hot tier."""
        self.hot.insert(feature, record)
        self._enforce_budget()

    def insert_batch(
        self, features: Sequence[int], record_ids: Sequence[Hashable]
    ) -> None:
        """Bulk insert with vectorized hashing; budget enforced once."""
        self.hot.insert_batch(features, record_ids)
        self._enforce_budget()

    def lookup_and_insert(
        self, feature: int, record: Hashable
    ) -> list[Hashable]:
        """Query then register — the paper's combined per-feature flow.

        The hot tier's three digests of ``feature`` are computed once
        and serve both halves.
        """
        hashed = self.hot._hashed(feature)
        matches = self._lookup_hashed(feature, hashed)
        self.hot._insert_hashed(feature, record, *hashed)
        self._enforce_budget()
        return matches

    def drain_maintenance_bytes(self) -> int:
        """Return and reset the pending demotion/promotion byte count."""
        drained = self.maintenance_bytes
        self.maintenance_bytes = 0
        return drained

    # -- invalidation and introspection ------------------------------------

    def remove_record(self, record: Hashable) -> int:
        """Remove ``record`` from both tiers; returns references removed.

        Cold-tier candidates are band-level record references, so one
        removal per band suffices — after it, no lookup can resurrect
        the record regardless of which features it carried.
        """
        removed = self.hot.remove_record(record)
        for band in self._bands.values():
            if record in band.records:
                del band.records[record]
                removed += 1
        return removed

    def record_ids(self) -> set[Hashable]:
        """Every record referenced by either tier (invariant checking)."""
        ids = self.hot.record_ids()
        for band in self._bands.values():
            ids.update(band.records)
        return ids

    def clear(self) -> None:
        """Drop both tiers (governor-driven partition teardown)."""
        self.hot.clear()
        self._bands.clear()
        self._cold_hit_counts.clear()

    def tier_report(self) -> dict:
        """Operator-facing snapshot used by ``DedupClient.index_report``."""
        return {
            "kind": "tiered",
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


def build_index(spec: IndexSpec) -> CuckooFeatureIndex | TieredFeatureIndex:
    """Construct the feature index an :class:`IndexSpec` describes."""
    if spec.kind == "tiered":
        return TieredFeatureIndex(spec)
    return CuckooFeatureIndex(
        num_buckets=spec.num_buckets,
        slots_per_bucket=spec.slots_per_bucket,
        max_candidates=spec.max_candidates,
    )


#: Union accepted everywhere a feature index flows (engine, invariants).
FeatureIndex = CuckooFeatureIndex | TieredFeatureIndex

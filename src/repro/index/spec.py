"""The one index-configuration object the public API accepts.

Before this redesign the feature-index knobs rode as three loose fields
on :class:`~repro.core.config.DedupConfig` (``index_buckets`` /
``index_slots`` / ``max_candidates``) and only ever described the
unbounded cuckoo structure. :class:`IndexSpec` consolidates them and
adds the memory-bounded tiered variant: a frozen, keyword-only record of
*which* index to build and *how big it may get*, nested as
``DedupConfig.index`` and consumed by
:func:`repro.index.tiered.build_index`.

This module is deliberately dependency-free (a dataclass and its
validation, nothing else) so it sits below both :mod:`repro.core` and
:mod:`repro.api` in the layering — the API package re-exports it, the
engine consumes it, and neither import direction inverts.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Index kinds :func:`repro.index.tiered.build_index` understands.
INDEX_KINDS = ("cuckoo", "tiered")


@dataclass(frozen=True, kw_only=True)
class IndexSpec:
    """Frozen, keyword-only description of the feature index.

    Attributes:
        kind: ``"cuckoo"`` — the paper's unbounded in-memory structure
            (§3.1.2) — or ``"tiered"`` — the same cuckoo structure as a
            byte-budgeted hot tier over a constant-memory approximate
            cold tier (Bloom filter per feature band).
        num_buckets / slots_per_bucket: cuckoo geometry (hot tier
            geometry when tiered); buckets round up to a power of two.
        max_candidates: per-feature cap on similar records returned by a
            lookup before LRU eviction kicks in (§3.1.2).
        hot_bytes_budget: tiered only — byte ceiling on the hot tier;
            exceeding it demotes LRU entries into the cold tier. None
            means unbounded (the tiered index then never demotes, and a
            cuckoo index ignores the field entirely).
        cold_fpp: tiered only — target false-positive probability of
            each cold-tier band filter.
        promotion_hits: tiered only — cold lookups of the same feature
            before it is promoted back into the hot tier.
        cold_bands: tiered only — number of cold-tier feature bands.
        cold_band_records: tiered only — candidate record references
            retained per band (FIFO beyond the cap).
        cold_band_features: tiered only — expected distinct features per
            band, the capacity each band filter is sized for.
    """

    kind: str = "cuckoo"
    num_buckets: int = 1 << 16
    slots_per_bucket: int = 4
    max_candidates: int = 8
    hot_bytes_budget: int | None = None
    cold_fpp: float = 0.01
    promotion_hits: int = 2
    cold_bands: int = 128
    cold_band_records: int = 128
    cold_band_features: int = 2048

    def __post_init__(self) -> None:
        if self.kind not in INDEX_KINDS:
            raise ValueError(
                f"index kind must be one of {INDEX_KINDS}, got {self.kind!r}"
            )
        if self.num_buckets < 1:
            raise ValueError(
                f"num_buckets must be >= 1, got {self.num_buckets}"
            )
        if self.slots_per_bucket < 1:
            raise ValueError(
                f"slots_per_bucket must be >= 1, got {self.slots_per_bucket}"
            )
        if self.max_candidates < 1:
            raise ValueError(
                f"max_candidates must be >= 1, got {self.max_candidates}"
            )
        if self.hot_bytes_budget is not None and self.hot_bytes_budget < 1:
            raise ValueError(
                "hot_bytes_budget must be >= 1 or None (unbounded), got "
                f"{self.hot_bytes_budget}"
            )
        if not 0.0 < self.cold_fpp < 1.0:
            raise ValueError(
                f"cold_fpp must be in (0, 1), got {self.cold_fpp}"
            )
        if self.promotion_hits < 1:
            raise ValueError(
                f"promotion_hits must be >= 1, got {self.promotion_hits}"
            )
        if self.cold_bands < 1:
            raise ValueError(
                f"cold_bands must be >= 1, got {self.cold_bands}"
            )
        if self.cold_band_records < 1:
            raise ValueError(
                f"cold_band_records must be >= 1, got {self.cold_band_records}"
            )
        if self.cold_band_features < 1:
            raise ValueError(
                "cold_band_features must be >= 1, got "
                f"{self.cold_band_features}"
            )

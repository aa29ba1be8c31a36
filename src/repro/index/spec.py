"""The one index-configuration object the public API accepts.

:class:`IndexSpec` is a frozen, keyword-only record of the feature
index's geometry and *how big it may get*: with no ``hot_bytes_budget``
the paper's unbounded cuckoo structure, with one the same structure as
a byte-budgeted hot tier over a Bloom-banded cold tier. It is nested as
``DedupConfig.index`` and consumed by
:class:`repro.index.cuckoo.CuckooFeatureIndex`.

This module is deliberately dependency-free (a dataclass and its
validation, nothing else) so it sits below both :mod:`repro.core` and
:mod:`repro.api` in the layering — the API package re-exports it, the
engine consumes it, and neither import direction inverts.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, kw_only=True)
class IndexSpec:
    """Frozen, keyword-only description of the feature index.

    Attributes:
        num_buckets: cuckoo bucket count; rounds up to a power of two.
            Slots per bucket (4) and the per-feature candidate cap (8)
            are :class:`~repro.index.cuckoo.CuckooFeatureIndex` defaults
            (§3.1.2).
        hot_bytes_budget: byte ceiling on the cuckoo table, which then
            charges 14 B an entry instead of 6 (it keeps the feature to
            spill it); exceeding it demotes LRU entries into the cold
            tier. None — the default — means the paper's unbounded index
            with no cold tier, and the knobs below are then unused.
        cold_fpp: target false-positive probability of each cold-tier
            band filter.
        promotion_hits: cold lookups of the same feature before it is
            promoted back into the hot tier.
        cold_bands: number of cold-tier feature bands.
        cold_band_records: candidate record references retained per band
            (FIFO beyond the cap).
        cold_band_features: expected distinct features per band, the
            capacity each band filter is sized for.
    """

    num_buckets: int = 1 << 16
    hot_bytes_budget: int | None = None
    cold_fpp: float = 0.01
    promotion_hits: int = 2
    cold_bands: int = 128
    cold_band_records: int = 128
    cold_band_features: int = 2048

    def __post_init__(self) -> None:
        if self.num_buckets < 1:
            raise ValueError(
                f"num_buckets must be >= 1, got {self.num_buckets}"
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

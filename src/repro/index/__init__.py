"""Deduplication indexes.

* :class:`~repro.index.cuckoo.CuckooFeatureIndex` — dbDedup's compact
  in-memory feature index (2-byte checksum keys, 4-byte record pointers);
  under a byte budget, the hot tier over a constant-memory Bloom-banded
  cold tier.
* :class:`~repro.index.spec.IndexSpec` — the frozen configuration record
  the feature index is built from.
* :class:`~repro.index.exact.ExactChunkIndex` — the full SHA-1 chunk index
  used by the trad-dedup baseline, whose size is what makes small chunks
  impractical for exact dedup (Fig. 1/10).
"""

from repro.index.bloom import BloomFilter
from repro.index.cuckoo import CuckooFeatureIndex
from repro.index.exact import ExactChunkIndex
from repro.index.spec import IndexSpec

__all__ = [
    "BloomFilter",
    "CuckooFeatureIndex",
    "ExactChunkIndex",
    "IndexSpec",
]

"""Record chunking: content-defined (normalized gear).

The content-defined chunker has two lanes producing byte-identical
boundaries: a numpy-vectorized bulk sweep (the hot path) and a scalar
byte-at-a-time oracle (:mod:`repro.chunking.scalar`) kept for
differential testing.
"""

from repro.chunking.cdc import (
    CHUNKER_IMPLS,
    Chunk,
    ContentDefinedChunker,
    normalized_masks,
)

__all__ = [
    "CHUNKER_IMPLS",
    "Chunk",
    "ContentDefinedChunker",
    "normalized_masks",
]

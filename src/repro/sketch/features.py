"""Top-K consistent-sampling similarity sketch (§3.1.1).

A record's sketch is the K largest MurmurHash values of its
content-defined (gear) chunks.
Consistent sampling (always keep the top-K by magnitude) characterizes
similarity better than random sampling: two records that share content tend
to share chunks, and the *same* shared chunks survive the magnitude cut in
both records. Two records are deemed similar if their sketches intersect.

Indexing at most K features per record is what bounds dbDedup's index
memory regardless of chunk size — the property Fig. 1/10 turn on.

Chunk hashing has two bit-identical lanes. The scalar lane calls
:func:`~repro.hashing.murmur.murmur3_32` once per chunk; the vectorized
lane hands every chunk of a record — or of a whole batch — to
:func:`~repro.hashing.murmur.murmur3_32_chunks` in one numpy pass. Which
one runs is decided per call from the chunks themselves (see
:data:`_VECTOR_MIN_WIDTH`), never by a knob.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.chunking.cdc import ContentDefinedChunker
from repro.hashing.murmur import _COLUMN_MIN_WIDTH, murmur3_32, murmur3_32_chunks

#: Paper default: "We find K = 8 strikes a reasonable trade-off between
#: compression ratio and memory usage."
DEFAULT_TOP_K = 8

#: Lane threshold: chunks are hashed in one numpy pass when the bytes to
#: hash are at least this many times the chunker's ``max_size``, i.e.
#: when the column walk of ``murmur3_32_chunks`` is on average at least
#: this many chunks wide. It is the walk's own constant — the width
#: below which a column of it falls back to the scalar block loop —
#: applied to a whole record. Set from
#: ``benchmarks/regen_sketch_baseline.py`` at 64 B chunks when a column
#: cost ~5 µs against ~0.8 µs per scalar block: 3.5x slower at width 1
#: (a 220 B OLTP row), break-even to 1.25x faster at 4, 6 the first
#: width that won on every run. Since the walk gathers only the blocks
#: it folds and runs its narrow columns scalar, a column costs ~2.4 µs
#: and the record-level crossover has moved down to about 2
#: (``benchmarks/baselines/sketch_microbench.json``: 0.8x at width 1,
#: 1.15x at 2, 2.1x at 4, 2.9x at 6, 12x at ~40, an 11 KB article). The
#: number stays 6 all the same: which lane hashed a chunk is exported
#: (``sketch_chunks_hashed_total{lane}``), so moving it changes results
#: and is a PR of its own (ROADMAP, smaller cuts).
_VECTOR_MIN_WIDTH = _COLUMN_MIN_WIDTH

#: Bytes hashed per numpy pass in :meth:`SketchExtractor.sketch_many`.
#: The pass allocates ~9 bytes of temporaries per input byte; a slab
#: bounds that whatever the batch size.
_SLAB_BYTES = 256 * 1024


@dataclass(frozen=True)
class FeatureSketch:
    """Similarity sketch of one record.

    Attributes:
        features: up to K chunk hashes, sorted descending by magnitude.
        chunk_count: how many chunks the record produced (before sampling).
    """

    features: tuple[int, ...]
    chunk_count: int

    def shares_feature_with(self, other: "FeatureSketch") -> bool:
        """True if the two sketches have at least one feature in common."""
        return bool(set(self.features) & set(other.features))


class SketchExtractor:
    """Extract :class:`FeatureSketch` objects from raw record bytes.

    Args:
        chunker: content-defined chunker controlling feature granularity.
            Smaller average chunks → finer similarity detection at the same
            index budget (K entries per record).
        top_k: sketch size K.
        seed: MurmurHash seed; all cooperating nodes must agree on it.

    Attributes:
        chunks_hashed: chunks hashed so far, keyed by hashing lane
            (exported as ``sketch_chunks_hashed_total{lane}``).
    """

    def __init__(
        self,
        chunker: ContentDefinedChunker | None = None,
        top_k: int = DEFAULT_TOP_K,
        seed: int = 0x5EED,
    ) -> None:
        if top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {top_k}")
        self.chunker = chunker if chunker is not None else ContentDefinedChunker()
        self.top_k = top_k
        self.seed = seed
        self.chunks_hashed: dict[str, int] = {"scalar": 0, "vectorized": 0}

    def sketch(self, data: bytes) -> FeatureSketch:
        """Chunk ``data``, hash each chunk, keep the K largest hashes.

        Duplicate hash values within one record are collapsed — a record
        full of one repeated chunk yields a single feature, which is the
        behaviour that makes sketch intersection meaningful.
        """
        return self._sketch_slab([data], [self.chunker.boundaries(data)])[0]

    def sketch_many(self, datas: list[bytes]) -> list[FeatureSketch]:
        """Sketch a whole batch of records, amortizing chunking and hashing.

        Returns exactly ``[self.sketch(d) for d in datas]`` — same chunk
        boundaries, same features — but the gear boundary sweep runs once
        over the concatenated batch
        (:meth:`~repro.chunking.cdc.ContentDefinedChunker.boundaries_many`)
        and the chunk hashes of consecutive records are computed together,
        :data:`_SLAB_BYTES` at a time, however the chunker routed each
        record. Because both chunker lanes emit identical boundaries and
        both hashing lanes identical hashes, the sketches — and every
        downstream similarity decision — are lane-independent too.
        """
        cuts = self.chunker.boundaries_many(datas)
        sketches: list[FeatureSketch] = []
        first = 0
        slab_bytes = 0
        for pos, data in enumerate(datas):
            if pos > first and slab_bytes + len(data) > _SLAB_BYTES:
                sketches += self._sketch_slab(datas[first:pos], cuts[first:pos])
                first = pos
                slab_bytes = 0
            slab_bytes += len(data)
        sketches += self._sketch_slab(datas[first:], cuts[first:])
        return sketches

    def _sketch_slab(
        self, datas: list[bytes], cuts: list[list[int]]
    ) -> list[FeatureSketch]:
        """Top-K murmur features of consecutive records, one lane for all."""
        sizes = [len(data) for data in datas]
        # No chunk is longer than max_size, so this is a floor on the width.
        if sum(sizes) < _VECTOR_MIN_WIDTH * self.chunker.max_size:
            sketches = [
                self._scalar_sketch(data, record_cuts)
                for data, record_cuts in zip(datas, cuts)
            ]
            self.chunks_hashed["scalar"] += sum(s.chunk_count for s in sketches)
            return sketches
        counts = [len(record_cuts) for record_cuts in cuts]
        total = sum(counts)
        self.chunks_hashed["vectorized"] += total
        if len(datas) == 1:
            # A slab of one is its own buffer and its own cut list.
            hashes = murmur3_32_chunks(datas[0], cuts[0], self.seed)
        else:
            ends = np.fromiter(chain.from_iterable(cuts), np.int64, count=total)
            ends += np.repeat(np.cumsum([0] + sizes[:-1]), counts)
            hashes = murmur3_32_chunks(b"".join(datas), ends, self.seed)
        hashes = hashes.tolist()
        sketches = []
        stop = 0
        for count in counts:
            start, stop = stop, stop + count
            # A set collapses duplicates; ~150 values sort faster as
            # Python ints than through np.unique.
            top = sorted(set(hashes[start:stop]), reverse=True)[: self.top_k]
            sketches.append(FeatureSketch(tuple(top), count))
        return sketches

    def _scalar_sketch(self, data: bytes, cuts: list[int]) -> FeatureSketch:
        """The per-chunk loop over the scalar murmur: the reference lane."""
        start = 0
        hashes = set()
        for end in cuts:
            hashes.add(murmur3_32(data[start:end], self.seed))
            start = end
        top = sorted(hashes, reverse=True)[: self.top_k]
        return FeatureSketch(features=tuple(top), chunk_count=len(cuts))

"""Differential fuzzing: the block-parallel murmur lane vs the scalar oracle.

``murmur3_32_chunks(buf, cuts, seed)`` must equal
``[murmur3_32(buf[a:b], seed) for each chunk]`` bit for bit, and the
sketches built on it must not depend on which lane hashed them. The
families below aim at the places a column walk can go wrong:

1. every chunk length 0..17 at every start alignment (all tail classes,
   chunks that never enter the walk, unaligned word reads),
2. chunks at exactly the chunker's ``max_size`` (the longest column run),
3. constant and high-bit bytes (sign extension, uint32 wrap-around),
4. a batch mixing empty, one-chunk and slab-straddling records,
5. hypothesis-drawn ``(data, cuts, seed)`` including seeds >= 2**31,
6. length profiles on both sides of the scalar tail: the walk's last
   columns, where fewer chunks are still running than a vector column
   is worth, finish in a Python block loop — one long chunk among many
   short ones (all tail past the short ones' blocks), equal lengths (no
   tail), fewer chunks than the tail width (no vector column at all),
   chunks of 0-3 bytes (no block at all).

On a mismatch the offending input is written to
``$CHUNKING_ARTIFACT_DIR`` (default ``chunking-artifacts/``), the
directory the chunking-diff CI job already uploads.
"""

import os
import random
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chunking.cdc import ContentDefinedChunker
from repro.hashing import murmur
from repro.hashing.murmur import murmur3_32, murmur3_32_chunks
from repro.sketch import features
from repro.sketch.features import FeatureSketch, SketchExtractor
from repro.workloads.text import TextGenerator

ARTIFACT_DIR = os.environ.get("CHUNKING_ARTIFACT_DIR", "chunking-artifacts")

SEEDS = (0, 1, 0x5EED, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF)


def _dump_artifact(family: str, data: bytes, cuts, seed: int) -> Path:
    """Persist a mismatching input for the CI artifact upload."""
    directory = Path(ARTIFACT_DIR)
    directory.mkdir(parents=True, exist_ok=True)
    digest = zlib.crc32(data) & 0xFFFFFFFF
    path = directory / f"murmur-{family}-{len(data)}-{digest:08x}.bin"
    path.write_bytes(data)
    path.with_suffix(".txt").write_text(
        f"family={family} seed={seed:#x} cuts={list(cuts)}\n", encoding="utf-8"
    )
    return path


def oracle(data: bytes, cuts, seed: int) -> list[int]:
    """One scalar murmur per chunk: the definition of the right answer."""
    hashes = []
    start = 0
    for end in cuts:
        hashes.append(murmur3_32(data[start:end], seed))
        start = end
    return hashes


def assert_lanes_agree(family: str, data: bytes, cuts, seed: int) -> None:
    got = murmur3_32_chunks(data, cuts, seed)
    assert got.dtype == np.uint32
    want = oracle(data, cuts, seed)
    if got.tolist() != want:
        path = _dump_artifact(family, data, cuts, seed)
        raise AssertionError(
            f"murmur lane mismatch on {family} input (saved to {path}): "
            f"oracle={want[:6]}... vectorized={got.tolist()[:6]}..."
        )


def scalar_sketch(extractor: SketchExtractor, data: bytes) -> FeatureSketch:
    """The sketch as the paper defines it, straight from the oracle."""
    cuts = extractor.chunker.boundaries(data)
    top = sorted(set(oracle(data, cuts, extractor.seed)), reverse=True)
    return FeatureSketch(tuple(top[: extractor.top_k]), len(cuts))


class TestChunkLaneFamilies:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_short_length_at_every_alignment(self, seed):
        data = random.Random(seed).randbytes(4096)
        for offset in range(4):
            cuts = [offset]
            for length in list(range(18)) + list(range(17, -1, -1)):
                cuts.append(cuts[-1] + length)
            assert_lanes_agree("shortlen", data[: cuts[-1]], cuts, seed)

    @pytest.mark.parametrize("max_size", [64, 256, 300, 4096])
    def test_chunks_at_exactly_max_size(self, max_size):
        # Incompressible-to-the-chunker input: no gear match ever fires
        # on a constant run, so every cut but the last is a forced one.
        chunker = ContentDefinedChunker(
            avg_size=64, min_size=16, max_size=max_size
        )
        data = b"\x00" * (max_size * 5 + 3)
        cuts = chunker.boundaries(data)
        assert cuts[0] == max_size
        assert_lanes_agree("maxsize", data, cuts, 0x5EED)
        noisy = random.Random(max_size).randbytes(max_size * 3)
        assert_lanes_agree(
            "maxsize", noisy, [max_size, 2 * max_size, 3 * max_size], 0x5EED
        )

    @pytest.mark.parametrize("byte", [0x00, 0x7F, 0x80, 0xAA, 0xFF])
    @pytest.mark.parametrize("seed", [0, 0xFFFFFFFF])
    def test_constant_runs(self, byte, seed):
        data = bytes([byte]) * 700
        cuts = [1, 2, 3, 4, 5, 9, 16, 31, 64, 64, 200, 455, 700]
        assert_lanes_agree("run", data, cuts, seed)

    @settings(max_examples=60)
    @given(
        data=st.binary(min_size=0, max_size=1500).map(
            lambda raw: bytes(b | 0x80 for b in raw)
        ),
        seed=st.integers(0, 2**32 - 1),
        stride=st.integers(1, 97),
    )
    def test_high_bit_bytes(self, data, seed, stride):
        cuts = list(range(stride, len(data), stride)) + [len(data)]
        assert_lanes_agree("highbit", data, cuts, seed)

    @settings(max_examples=200)
    @given(
        data=st.binary(min_size=0, max_size=2000),
        fractions=st.lists(st.floats(0.0, 1.0), max_size=40),
        seed=st.one_of(
            st.integers(0, 2**32 - 1), st.integers(2**31, 2**32 - 1)
        ),
    )
    def test_arbitrary_cuts(self, data, fractions, seed):
        # Repeated offsets are empty chunks; the buffer may extend past
        # the last cut (a caller hashing a prefix).
        cuts = sorted(int(f * len(data)) for f in fractions)
        assert_lanes_agree("arbitrary", data, cuts, seed)

    @pytest.mark.parametrize("position", [0, 50, 100])
    def test_one_long_chunk_among_a_hundred_short_ones(self, position):
        # Columns 0..2 are 101 chunks wide; from column 3 on, the 256 B
        # chunk runs alone: 61 blocks of scalar tail behind 3 of vector.
        lengths = [12 + i % 4 for i in range(100)]
        lengths.insert(position, 256)
        cuts = [sum(lengths[: i + 1]) for i in range(len(lengths))]
        data = random.Random(position).randbytes(cuts[-1])
        assert_lanes_agree("onelong", data, cuts, 0x5EED)

    @pytest.mark.parametrize("length", [4, 7, 64, 255, 256])
    @pytest.mark.parametrize("count", [1, 5, 6, 40])
    def test_equal_lengths_have_no_tail_or_nothing_else(self, length, count):
        # Every column is ``count`` wide: all vector at 6 and above, all
        # scalar tail below (no vector column at all).
        data = random.Random(length * count).randbytes(length * count + 5)
        cuts = [length * (i + 1) for i in range(count)]
        assert_lanes_agree("equal", data, cuts, 0xFFFFFFFF)

    @settings(max_examples=100)
    @given(
        lengths=st.lists(st.integers(0, 300), min_size=1, max_size=12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_few_chunks_around_the_tail_width(self, lengths, seed):
        # 1..12 chunks: the first column is narrower than, exactly, or
        # wider than the tail width, and the walk hands over anywhere.
        assert murmur._COLUMN_MIN_WIDTH == 6
        cuts = [sum(lengths[: i + 1]) for i in range(len(lengths))]
        data = random.Random(seed).randbytes(cuts[-1])
        assert_lanes_agree("few", data, cuts, seed)

    @settings(max_examples=60)
    @given(
        lengths=st.lists(st.integers(0, 3), min_size=1, max_size=60),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_chunks_too_short_for_a_block(self, lengths, seed):
        cuts = [sum(lengths[: i + 1]) for i in range(len(lengths))]
        data = random.Random(seed).randbytes(cuts[-1] + 2)
        assert_lanes_agree("noblock", data, cuts, seed)

    @pytest.mark.parametrize("make", [bytes, bytearray, memoryview])
    def test_buffer_kinds_on_both_sides_of_the_tail(self, make):
        data = random.Random(3).randbytes(2000)
        for cuts in (
            [300],                                   # scalar tail only
            list(range(64, 1921, 64)),               # vector columns only
            list(range(20, 1001, 20)) + [1300, 2000],  # both
        ):
            want = oracle(data, cuts, 9)
            assert murmur3_32_chunks(make(data), cuts, 9).tolist() == want

    def test_no_chunks(self):
        assert murmur3_32_chunks(b"abc", [], 7).tolist() == []
        assert murmur3_32_chunks(b"", [], 7).dtype == np.uint32

    def test_accepts_numpy_cuts_and_memoryview(self):
        data = bytes(range(256)) * 3
        cuts = np.array([5, 5, 130, 768])
        want = oracle(data, cuts.tolist(), 9)
        assert murmur3_32_chunks(data, cuts, 9).tolist() == want
        assert murmur3_32_chunks(memoryview(data), cuts, 9).tolist() == want

    @pytest.mark.parametrize("cuts", [[4, 2], [0, 5], [-1, 3]])
    def test_rejects_cuts_outside_the_buffer(self, cuts):
        with pytest.raises(ValueError):
            murmur3_32_chunks(b"abcd", cuts)

    @pytest.mark.parametrize(
        "cuts",
        [
            list(range(10, 101, 10)) + [95],     # not ascending, vector-wide
            list(range(10, 101, 10)) + [2001],   # past the end, vector-wide
            [1999, 2001],                        # past the end, tail only
        ],
    )
    def test_rejects_bad_cuts_at_any_width(self, cuts):
        with pytest.raises(ValueError):
            murmur3_32_chunks(bytes(2000), cuts)


@pytest.fixture(scope="module")
def wiki_corpus() -> bytes:
    return TextGenerator(seed=4321).document(150_000).encode()


@pytest.fixture(scope="class")
def small_slabs():
    """Shrink the batch slab so a few KB of records span several."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(features, "_SLAB_BYTES", 4096)
        yield


class TestSketchLanes:
    @pytest.mark.parametrize("avg_size", [64, 1024])
    def test_both_lanes_run_and_agree_with_the_oracle(
        self, avg_size, wiki_corpus
    ):
        extractor = SketchExtractor(ContentDefinedChunker(avg_size), top_k=8)
        threshold = features._VECTOR_MIN_WIDTH * extractor.chunker.max_size
        small = wiki_corpus[: threshold - 1]
        large = wiki_corpus[: threshold * 3]
        assert extractor.sketch(small) == scalar_sketch(extractor, small)
        assert extractor.chunks_hashed["vectorized"] == 0
        assert extractor.chunks_hashed["scalar"] > 0
        assert extractor.sketch(large) == scalar_sketch(extractor, large)
        assert extractor.chunks_hashed["vectorized"] > 0

    def test_chunk_counter_accounts_for_every_chunk(self, wiki_corpus):
        extractor = SketchExtractor(ContentDefinedChunker(64), top_k=8)
        datas = [wiki_corpus[:100], wiki_corpus[:9000], b""]
        sketches = [extractor.sketch(d) for d in datas]
        sketches += extractor.sketch_many(datas)
        assert sum(extractor.chunks_hashed.values()) == sum(
            s.chunk_count for s in sketches
        )

    def test_batch_mixing_empty_single_chunk_and_slab_straddlers(
        self, wiki_corpus, small_slabs
    ):
        extractor = SketchExtractor(ContentDefinedChunker(64), top_k=8)
        datas = [
            b"",
            b"x",                      # one chunk, under min_size
            wiki_corpus[:3000],
            b"",
            wiki_corpus[3000:5000],    # does not fit the first slab's rest
            wiki_corpus[:10],
            wiki_corpus[5000:15000],   # alone larger than a whole slab
            b"",
            wiki_corpus[100:4196],     # exactly one slab
            b"y" * 15,
        ]
        got = extractor.sketch_many(datas)
        assert got == [scalar_sketch(extractor, d) for d in datas]
        assert got == [extractor.sketch(d) for d in datas]
        assert extractor.chunks_hashed["vectorized"] > 0

    def test_repeated_chunk_collapses_to_one_feature(self):
        extractor = SketchExtractor(
            ContentDefinedChunker(64, min_size=16, max_size=64), top_k=8
        )
        data = b"\x00" * (64 * 40)
        sketch = extractor.sketch(data)
        assert extractor.chunks_hashed["vectorized"] == 40
        assert sketch == scalar_sketch(extractor, data)
        assert len(sketch.features) == 1

    def test_features_are_plain_descending_ints(self, wiki_corpus):
        extractor = SketchExtractor(ContentDefinedChunker(64), top_k=8)
        sketch = extractor.sketch(wiki_corpus[:20_000])
        assert all(type(f) is int for f in sketch.features)
        assert list(sketch.features) == sorted(set(sketch.features), reverse=True)

    @pytest.mark.parametrize("avg_size", [64, 1024])
    @settings(max_examples=30, deadline=None)
    @given(
        spans=st.lists(
            st.tuples(st.integers(0, 100_000), st.integers(0, 3)), max_size=10
        )
    )
    def test_sketch_many_equals_sequential_across_the_threshold(
        self, avg_size, spans, wiki_corpus, small_slabs
    ):
        extractor = SketchExtractor(ContentDefinedChunker(avg_size), top_k=8)
        threshold = features._VECTOR_MIN_WIDTH * extractor.chunker.max_size
        # Size classes: empty, far below, just around, well above.
        sizes = (0, threshold // 10, threshold, threshold * 2 + 7)
        datas = [
            wiki_corpus[start : start + sizes[size_class]]
            for start, size_class in spans
        ]
        got = extractor.sketch_many(datas)
        assert got == [extractor.sketch(d) for d in datas]
        assert got == [scalar_sketch(extractor, d) for d in datas]

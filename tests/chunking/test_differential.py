"""Differential fuzzing: the vectorized chunker lane vs the scalar oracle.

Every test here asserts the two lanes are *byte-identical* — boundaries,
chunks, and sketches — across adversarial input families:

1. runs of a single byte (degenerate hash states),
2. near-boundary record sizes (min/avg/max edges, off-by-one),
3. records shorter than ``min_size``,
4. random binary,
5. sliced samples of the wikipedia text corpus,

plus a stateful machine checking the CDC resynchronization property:
mutating a prefix only shifts boundaries locally.

On a mismatch the offending input is written to
``$CHUNKING_ARTIFACT_DIR`` (default ``chunking-artifacts/``) so the CI
job can upload the fuzz corpus for replay.
"""

import os
import random
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from repro.chunking import cdc
from repro.chunking.cdc import ContentDefinedChunker
from repro.chunking.scalar import scalar_boundaries
from repro.hashing.gear import GEAR, WINDOW
from repro.sketch.features import SketchExtractor
from repro.workloads.text import TextGenerator

ARTIFACT_DIR = os.environ.get("CHUNKING_ARTIFACT_DIR", "chunking-artifacts")

#: Size geometries the differential sweep exercises; (avg, min, max) with
#: None meaning the chunker's defaults (avg // 4, avg * 4). The vectorized
#: lane sweeps in the narrowest dtype that holds the strict mask
#: (``log2(avg) + 2`` bits), so the list sits on both sides of every
#: dtype edge: 8 | 9 bits (64 | 128), 16 | 17 (16384 | 32768) and a
#: 33-bit mask that needs uint64. The wide ones get a small ``min_size``
#: so a test-sized record can be cut at all.
GEOMETRIES = (
    (64, None, None),
    (8, None, None),
    (256, 200, 300),
    (64, 1, 64),
    (128, None, None),
    (16384, 16, None),
    (32768, 16, None),
    (2**31, 16, None),
)

#: Sweep dtype each geometry must land in (same order as GEOMETRIES).
SWEEP_DTYPES = ("uint8", "uint8", "uint16", "uint8",
                "uint16", "uint16", "uint32", "uint64")

#: Longest record the near-boundary family draws: the scalar oracle runs
#: at ~3 MB/s, and ``max_size`` of the widest geometry is 8 GB.
NEAR_SIZE_CAP = 1 << 17


def _dump_artifact(family: str, data: bytes, geometry) -> Path:
    """Persist a mismatching input for the CI artifact upload."""
    directory = Path(ARTIFACT_DIR)
    directory.mkdir(parents=True, exist_ok=True)
    digest = zlib.crc32(data) & 0xFFFFFFFF
    path = directory / f"diff-{family}-{len(data)}-{digest:08x}.bin"
    path.write_bytes(data)
    (path.with_suffix(".txt")).write_text(
        f"family={family} geometry={geometry} length={len(data)}\n",
        encoding="utf-8",
    )
    return path


def make_chunkers(geometry):
    avg, lo, hi = geometry
    return (
        ContentDefinedChunker(avg, min_size=lo, max_size=hi, impl="scalar"),
        ContentDefinedChunker(avg, min_size=lo, max_size=hi, impl="vectorized"),
    )


def assert_lanes_agree(family: str, data: bytes, geometry=(64, None, None)):
    """The heart of the suite: scalar ≡ vectorized on one input."""
    scalar, vector = make_chunkers(geometry)
    scalar_cuts = scalar.boundaries(data)
    vector_cuts = vector.boundaries(data)
    if scalar_cuts != vector_cuts:
        path = _dump_artifact(family, data, geometry)
        raise AssertionError(
            f"lane mismatch on {family} input (saved to {path}): "
            f"scalar={scalar_cuts[:8]}... vectorized={vector_cuts[:8]}..."
        )
    # The module-level oracle is the same computation the scalar lane ran.
    if data:
        oracle_cuts, _ = scalar_boundaries(
            data, scalar.min_size, scalar.avg_size, scalar.max_size
        )
        assert oracle_cuts == scalar_cuts
    # Chunks carry identical bytes, not just identical offsets.
    assert scalar.chunks(data) == vector.chunks(data)
    return scalar_cuts


def assert_sketches_agree(data: bytes, geometry=(64, None, None)):
    scalar, vector = make_chunkers(geometry)
    a = SketchExtractor(chunker=scalar, top_k=8).sketch(data)
    b = SketchExtractor(chunker=vector, top_k=8).sketch(data)
    assert a == b


@pytest.fixture(scope="module")
def wiki_corpus() -> bytes:
    """A deterministic slice-able wikipedia-style text corpus."""
    return TextGenerator(seed=1234).document(120_000).encode()


@pytest.mark.parametrize("geometry", GEOMETRIES)
class TestDifferentialFamilies:
    @settings(max_examples=40, deadline=None)
    @given(byte=st.integers(0, 255), length=st.integers(0, 2200))
    def test_single_byte_runs(self, geometry, byte, length):
        data = bytes([byte]) * length
        assert_lanes_agree("run", data, geometry)

    @settings(max_examples=40, deadline=None)
    @given(
        anchor=st.sampled_from(["min", "avg", "max", "2max"]),
        jitter=st.integers(-2, 2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_near_boundary_sizes(self, geometry, anchor, jitter, seed):
        scalar, _ = make_chunkers(geometry)
        base = {
            "min": scalar.min_size,
            "avg": scalar.avg_size,
            "max": scalar.max_size,
            "2max": 2 * scalar.max_size,
        }[anchor]
        length = min(max(0, base + jitter), NEAR_SIZE_CAP)
        data = random.Random(seed).randbytes(length)
        assert_lanes_agree("nearsize", data, geometry)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_shorter_than_min_chunk(self, geometry, seed):
        scalar, _ = make_chunkers(geometry)
        rng = random.Random(seed)
        length = rng.randrange(0, max(1, scalar.min_size))
        data = rng.randbytes(length)
        cuts = assert_lanes_agree("short", data, geometry)
        assert cuts == ([length] if length else [])

    @settings(max_examples=40, deadline=None)
    @given(data=st.binary(min_size=0, max_size=6000))
    def test_random_binary(self, geometry, data):
        assert_lanes_agree("binary", data, geometry)
        assert_sketches_agree(data, geometry)

    @settings(max_examples=40, deadline=None)
    @given(start=st.integers(0, 110_000), length=st.integers(0, 9000))
    def test_wikipedia_slices(self, geometry, start, length, wiki_corpus):
        data = wiki_corpus[start : start + length]
        assert_lanes_agree("wiki", data, geometry)
        assert_sketches_agree(data, geometry)


def test_every_sweep_dtype_is_driven():
    got = tuple(
        make_chunkers(geometry)[1]._table.dtype.name for geometry in GEOMETRIES
    )
    assert got == SWEEP_DTYPES
    assert set(got) == {"uint8", "uint16", "uint32", "uint64"}


class TestCutWalkEdges:
    """The split walk: whole ``max_size`` windows, then the record's tail."""

    #: (avg, min, max) with a ``max_size`` small enough to build records of.
    SMALL = tuple(g for g in GEOMETRIES if make_chunkers(g)[0].max_size <= 1024)

    @staticmethod
    def inert_byte(scalar) -> int:
        """A byte whose runs match neither mask: every cut is forced."""
        three = [scalar.max_size * k for k in (1, 2, 3)]
        for byte in range(256):
            if scalar.boundaries(bytes([byte]) * three[-1]) == three:
                return byte
        raise AssertionError("no inert byte for this geometry")

    @pytest.mark.parametrize("geometry", SMALL)
    @pytest.mark.parametrize("windows", [0, 1, 2, 3])
    def test_tail_lengths_around_min_size(self, geometry, windows):
        scalar, _ = make_chunkers(geometry)
        byte = bytes([self.inert_byte(scalar)])
        forced = [scalar.max_size * k for k in range(1, windows + 1)]
        for tail in sorted({0, 1, scalar.min_size - 1, scalar.min_size,
                            scalar.min_size + 1, scalar.max_size - 1}):
            n = windows * scalar.max_size + tail
            cuts = assert_lanes_agree("tail", byte * n, geometry)
            # With the record's length alone deciding which loop emits
            # what: a tail shorter than a whole window is one last
            # chunk, however short; no tail, no chunk.
            assert cuts == forced + ([n] if tail else [])

    @pytest.mark.parametrize("geometry", SMALL)
    def test_record_of_exactly_max_size_is_one_chunk(self, geometry):
        scalar, _ = make_chunkers(geometry)
        for seed in range(20):
            data = random.Random(seed).randbytes(scalar.max_size)
            cuts = assert_lanes_agree("exactmax", data, geometry)
            assert cuts[-1] == scalar.max_size
            assert len(set(cuts)) == len(cuts)

    # From tests/chunking/test_cdc.py: after 255 zero bytes, byte 29
    # makes the hash match the loose mask at offset 256 == max_size.
    COINCIDENT_BLOCK = b"\x00" * 255 + bytes([29])

    @pytest.mark.parametrize(
        "data, expected",
        [
            # ... in the last whole window of the record,
            (COINCIDENT_BLOCK, [256]),
            # ... in a whole window with more of the record behind it,
            (COINCIDENT_BLOCK + b"\x00" * 10, [256, 266]),
            (COINCIDENT_BLOCK * 2, [256, 512]),
            # ... and in the tail, where the match is the record's last
            # byte and the "forced" cut is the end of the record.
            (COINCIDENT_BLOCK[-101:], [101]),
            (COINCIDENT_BLOCK + COINCIDENT_BLOCK[-101:], [256, 357]),
        ],
    )
    def test_forced_cut_on_a_match_is_one_boundary(self, data, expected):
        assert assert_lanes_agree("coincident", data) == expected

    @pytest.mark.parametrize("avg_size", [16384, 32768])
    def test_wide_masks_cut_long_records(self, avg_size):
        # Long enough for the 16- and 17-bit strict masks to match.
        data = random.Random(avg_size).randbytes(600_000)
        cuts = assert_lanes_agree("wide", data, (avg_size, 64, None))
        assert len(cuts) > 600_000 // (4 * avg_size)
        sizes = [b - a for a, b in zip([0] + cuts, cuts)]
        assert max(sizes) < 4 * avg_size  # cut by a mask, not by the clamp


class TestBatchDifferential:
    @staticmethod
    def check_batch(geometry, seeds):
        rng = random.Random(99)
        datas = []
        for seed in seeds:
            sub = random.Random(seed)
            kind = sub.randrange(3)
            n = sub.randrange(0, 3000)
            if kind == 0:
                datas.append(bytes([sub.randrange(256)]) * n)
            elif kind == 1:
                datas.append(sub.randbytes(n))
            else:
                datas.append(rng.randbytes(sub.randrange(0, 40)))
        scalar, vector = make_chunkers(geometry)
        batch_scalar = scalar.boundaries_many(datas)
        batch_vector = vector.boundaries_many(datas)
        sequential = [vector.boundaries(d) for d in datas]
        assert batch_scalar == batch_vector == sequential

    @settings(max_examples=25, deadline=None)
    @given(
        seeds=st.lists(st.integers(0, 2**32 - 1), min_size=0, max_size=12),
    )
    def test_boundaries_many_matches_both_lanes(self, seeds):
        self.check_batch(GEOMETRIES[0], seeds)

    @pytest.mark.parametrize("geometry", GEOMETRIES[1:])
    @settings(max_examples=25, deadline=None)
    @given(
        seeds=st.lists(st.integers(0, 2**32 - 1), min_size=0, max_size=12),
    )
    def test_boundaries_many_matches_both_lanes_at_every_geometry(
        self, geometry, seeds
    ):
        self.check_batch(geometry, seeds)

    def test_padded_gap_is_as_wide_as_the_sweep_reads(self):
        # min_size=1 makes hash index 0 a candidate, and the 8-bit strict
        # mask reads the top bit of the uint8 sweep: the one position and
        # bit that a gap one term too short would let a neighbour reach.
        # GEAR[27] has a zero low byte (a strict match on a record's
        # first byte), GEAR[160] has 0x80 there (one odd term from the
        # previous record, shifted seven times, would make it match).
        geometry = (64, 1, 64)
        assert GEAR[27] & 0xFF == 0 and GEAR[160] & 0xFF == 0x80 and GEAR[2] & 1
        rng = random.Random(5)
        datas = [
            rng.randbytes(90) + b"\x02",
            b"\xa0" + rng.randbytes(70) + b"\x02",
            b"\x1b" + rng.randbytes(50) + b"\x02",
            b"\xa0",
        ]
        scalar, vector = make_chunkers(geometry)
        batched = vector.boundaries_many(datas)
        assert batched == scalar.boundaries_many(datas)
        assert batched[1][0] > 1 and batched[2][0] == 1 and batched[3] == [1]

    @pytest.mark.parametrize("avg_size", [64, 128, 16384, 32768])
    def test_padded_sweep_at_every_dtype(self, avg_size, monkeypatch):
        # Raise the routing cutoff so records long enough to be cut at
        # the wide masks share the padded sweep; the gap between them is
        # one term short of the dtype's width, so a neighbour's bytes
        # must not reach the first hashes of the next record.
        monkeypatch.setattr(cdc, "_BATCH_RECORD_CUTOFF", 1 << 20)
        rng = random.Random(avg_size)
        datas = [rng.randbytes(rng.randrange(1, 60_000)) for _ in range(6)]
        datas += [b"", b"\xff" * 40, rng.randbytes(1)]
        scalar, vector = make_chunkers((avg_size, 16, None))
        batched = vector.boundaries_many(datas)
        assert batched == scalar.boundaries_many(datas)
        assert batched == [vector.boundaries(d) for d in datas]
        assert max(map(len, batched)) > 1  # some record was cut by a mask

    def test_sketch_many_lane_equivalence(self, wiki_corpus):
        datas = [
            wiki_corpus[i : i + 1500] for i in range(0, 30_000, 1500)
        ] + [b"", b"x", wiki_corpus[:10]]
        scalar, vector = make_chunkers((64, None, None))
        a = SketchExtractor(chunker=scalar, top_k=8).sketch_many(datas)
        b = SketchExtractor(chunker=vector, top_k=8).sketch_many(datas)
        assert a == b


class ResyncMachine(RuleBasedStateMachine):
    """CDC resynchronization: prefix edits shift boundaries only locally.

    The machine keeps one evolving document. Every rule mutates a
    position in the document's first half (replace / insert / delete)
    and checks, for both lanes:

    * boundaries at or before the edit position are unchanged, and
    * past the edit, boundaries realign with the pre-edit boundaries
      (shifted by the length delta) from the first shared cut onward.
    """

    def __init__(self):
        super().__init__()
        self.chunkers = make_chunkers((64, None, None))
        self.text = TextGenerator(seed=777)

    @initialize(seed=st.integers(0, 2**16))
    def seed_document(self, seed):
        self.doc = TextGenerator(seed=seed).document(12_000).encode()

    @rule(
        position=st.floats(0.0, 0.5),
        size=st.integers(1, 200),
        action=st.sampled_from(["replace", "insert", "delete"]),
    )
    def mutate_prefix(self, position, size, action):
        doc = self.doc
        pos = int(len(doc) * position)
        patch = self.text.sentence().encode()[:size]
        if action == "replace":
            new = doc[:pos] + patch + doc[pos + len(patch):]
        elif action == "insert":
            new = doc[:pos] + patch + doc[pos:]
        else:
            new = doc[:pos] + doc[pos + size:]
        edit_end = pos + (0 if action == "delete" else len(patch))
        delta = len(new) - len(doc)
        for chunker in self.chunkers:
            before = chunker.boundaries(doc)
            after = chunker.boundaries(new)
            # Locality, upstream: cuts at or before the edit position
            # depend only on bytes before it.
            assert [c for c in before if c <= pos] == [
                c for c in after if c <= pos
            ]
            # Locality, downstream: the old boundary stream reappears
            # (shifted) once the scan re-locks past the edit.
            shifted = [c + delta for c in before if c + delta > edit_end + WINDOW]
            common = sorted(set(after) & set(shifted))
            runway = len(new) - edit_end
            if runway > 20 * chunker.max_size:
                assert common, (
                    f"no resynchronization within {runway} bytes "
                    f"({chunker.resolved_impl} lane)"
                )
            if common:
                first = common[0]
                assert [c for c in after if c >= first] == [
                    c for c in shifted if c >= first
                ]
        self.doc = new


ResyncMachine.TestCase.settings = settings(
    max_examples=15, stateful_step_count=8, deadline=None
)
TestResync = ResyncMachine.TestCase

"""Microbenchmarks of the hot primitives (wall-clock, pytest-benchmark).

Not a paper figure — a performance regression net over the kernels every
experiment runs through: chunking, sketching, hashing, indexing, delta
encode/re-encode/decode, and block compression — plus the admission
inline-vs-hybrid sweep pinned against a committed baseline.
"""

import json
import random
from pathlib import Path

import pytest

from repro.chunking.cdc import ContentDefinedChunker
from repro.compression.snappy import snappy_compress, snappy_decompress
from repro.delta.dbdelta import DeltaCompressor
from repro.delta.decode import apply_delta, apply_payload
from repro.delta.reencode import delta_reencode
from repro.hashing.adler import rolling_adler32
from repro.hashing.murmur import murmur3_32
from repro.index import IndexSpec
from repro.index.cuckoo import CuckooFeatureIndex
from repro.sketch.features import SketchExtractor
from repro.workloads.edits import revise
from repro.workloads.text import TextGenerator


@pytest.fixture(scope="module")
def corpus():
    text_gen = TextGenerator(seed=99)
    rng = random.Random(99)
    base = text_gen.document(32_000)
    target = revise(rng, text_gen, base, num_edits=6)
    return base.encode(), target.encode()


def test_rolling_adler_32k(benchmark, corpus):
    data, _ = corpus
    checksums = benchmark(rolling_adler32, data, 16)
    assert len(checksums) == len(data) - 15


def test_murmur3_1k(benchmark, corpus):
    data, _ = corpus
    value = benchmark(murmur3_32, data[:1024])
    assert 0 <= value <= 0xFFFFFFFF


def test_cdc_chunking_32k(benchmark, corpus):
    data, _ = corpus
    chunker = ContentDefinedChunker(avg_size=64)
    chunks = benchmark(chunker.chunks, data)
    assert b"".join(c.data for c in chunks) == data


def test_sketch_extraction_32k(benchmark, corpus):
    data, _ = corpus
    extractor = SketchExtractor(
        chunker=ContentDefinedChunker(avg_size=64), top_k=8
    )
    sketch = benchmark(extractor.sketch, data)
    assert sketch.features


def test_cuckoo_lookup_insert(benchmark):
    index = CuckooFeatureIndex(IndexSpec(num_buckets=1 << 12))
    for feature in range(5000):
        index.insert(feature, f"r{feature}")

    counter = iter(range(10**9))

    def op():
        n = next(counter)
        return index.lookup_and_insert(n % 5000, f"x{n}")

    benchmark(op)


def test_delta_compress_32k(benchmark, corpus):
    base, target = corpus
    compressor = DeltaCompressor(anchor_interval=64)
    delta = benchmark(compressor.compress, base, target)
    assert apply_payload(base, delta) == target


def test_delta_reencode_32k(benchmark, corpus):
    base, target = corpus
    forward = DeltaCompressor(anchor_interval=64).compress(base, target)
    backward = benchmark(delta_reencode, base, forward)
    assert apply_payload(target, backward) == base


def test_delta_decode_32k(benchmark, corpus):
    base, target = corpus
    from repro.delta.instructions import deserialize

    payload = DeltaCompressor(anchor_interval=64).compress(base, target)
    insts = deserialize(payload)
    result = benchmark(apply_delta, base, insts)
    assert result == target


def test_snappy_compress_32k(benchmark, corpus):
    data, _ = corpus
    compressed = benchmark(snappy_compress, data)
    assert snappy_decompress(compressed) == data


def test_snappy_decompress_32k(benchmark, corpus):
    data, _ = corpus
    compressed = snappy_compress(data)
    result = benchmark(snappy_decompress, compressed)
    assert result == data


CHUNKING_BASELINE = (
    Path(__file__).parent / "baselines" / "chunking_microbench.json"
)


@pytest.fixture(scope="module")
def chunking_corpus():
    return TextGenerator(seed=77).document(256 * 1024).encode()


def _throughput_mb_s(chunker, datas, repeat=3):
    """Best-of-N boundary-scan throughput over ``datas``, one call each, MB/s."""
    import time

    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        for data in datas:
            chunker.boundaries(data)
        best = min(best, time.perf_counter() - t0)
    return sum(map(len, datas)) / best / 1e6


def test_chunking_throughput_vectorized_vs_scalar(chunking_corpus):
    """The vectorized lane must stay >= 3x the scalar lane's throughput.

    Measured both against the scalar lane run here and now (robust to
    host speed) and against the committed scalar baseline (catches a
    vectorized-lane regression even if the scalar lane slowed down
    alongside it). Regenerate the baseline after an intended change
    with::

        PYTHONPATH=src python benchmarks/regen_chunking_baseline.py
    """
    scalar = ContentDefinedChunker(avg_size=64, impl="scalar")
    vector = ContentDefinedChunker(avg_size=64, impl="vectorized")
    assert scalar.boundaries(chunking_corpus) == vector.boundaries(
        chunking_corpus
    )

    scalar_mb_s = _throughput_mb_s(scalar, [chunking_corpus])
    vector_mb_s = _throughput_mb_s(vector, [chunking_corpus])
    assert vector_mb_s >= 3.0 * scalar_mb_s, (
        f"vectorized {vector_mb_s:.1f} MB/s < 3x scalar "
        f"{scalar_mb_s:.1f} MB/s"
    )

    baseline = json.loads(CHUNKING_BASELINE.read_text(encoding="utf-8"))
    assert len(chunking_corpus) == baseline["corpus_bytes"]
    assert vector_mb_s >= 3.0 * baseline["scalar_mb_s"], (
        f"vectorized {vector_mb_s:.1f} MB/s < 3x committed scalar "
        f"baseline {baseline['scalar_mb_s']:.1f} MB/s"
    )


def test_chunking_batch_throughput(benchmark, chunking_corpus):
    records = [
        chunking_corpus[i : i + 4096]
        for i in range(0, len(chunking_corpus), 4096)
    ]
    chunker = ContentDefinedChunker(avg_size=64, impl="vectorized")
    results = benchmark(chunker.boundaries_many, records)
    assert len(results) == len(records)


def test_sketch_hashing_vectorized_vs_scalar():
    """The block-parallel murmur lane must stay >= 3x the scalar loop.

    Same double gate as the chunking lanes: against the scalar lane run
    here and now, and against the committed scalar baseline. Per-record
    and batch-64 sketches of ~10 KB wiki revisions at 64 B chunks (the
    `wiki-insert` / `enron-batch` side of the lane threshold).
    Regenerate the baseline after an intended change with::

        PYTHONPATH=src python benchmarks/regen_sketch_baseline.py
    """
    import regen_sketch_baseline as bench

    baseline = json.loads(bench.BASELINE.read_text(encoding="utf-8"))
    wiki = bench.wiki_records()
    for case, batched in (("record", False), ("batch64", True)):
        scalar_mb_s = bench.throughput_mb_s(wiki, "scalar", batched, repeat=3)
        vector_mb_s = bench.throughput_mb_s(wiki, "vectorized", batched, repeat=3)
        assert vector_mb_s >= 3.0 * scalar_mb_s, (
            f"{case}: vectorized {vector_mb_s:.1f} MB/s < 3x scalar "
            f"{scalar_mb_s:.1f} MB/s"
        )
        assert vector_mb_s >= 3.0 * baseline[case]["scalar_mb_s"], (
            f"{case}: vectorized {vector_mb_s:.1f} MB/s < 3x committed "
            f"scalar baseline {baseline[case]['scalar_mb_s']:.1f} MB/s"
        )


def test_sketch_stage_per_record_floor():
    """Per ~10 KB wiki revision, each kernel of the sketch stage must stay
    well clear of its scalar lane run here and now: ``boundaries`` >= 15x,
    chunk hashing + top-K >= 8x.

    The floors sit between what the kernels measured before the
    mask-width sweep / ``find`` walk / gathered-block murmur (8.7-12.4x
    and 5.8-6.2x, three runs) and after (21-30x and 9.9-12.3x), so
    handing that gain back fails here even where the 3x gates above
    still pass. Both lanes are pure functions of the same records in the
    same process, so the ratio does not depend on the host's speed;
    an interpreter with a slower bytecode loop only raises it.
    """
    import regen_sketch_baseline as bench

    wiki = bench.wiki_records()
    scalar_mb_s, vector_mb_s = (
        _throughput_mb_s(ContentDefinedChunker(avg_size=64, impl=impl), wiki, repeat=5)
        for impl in ("scalar", "vectorized")
    )
    assert vector_mb_s >= 15.0 * scalar_mb_s, (
        f"boundaries: vectorized {vector_mb_s:.1f} MB/s < 15x scalar "
        f"{scalar_mb_s:.1f} MB/s"
    )
    scalar_mb_s = bench.throughput_mb_s(wiki, "scalar", repeat=5)
    vector_mb_s = bench.throughput_mb_s(wiki, "vectorized", repeat=5)
    assert vector_mb_s >= 8.0 * scalar_mb_s, (
        f"hashing: vectorized {vector_mb_s:.1f} MB/s < 8x scalar "
        f"{scalar_mb_s:.1f} MB/s"
    )


def test_sketch_hashing_threshold_keeps_small_records_scalar():
    """~220 B rows must not pay numpy dispatch: selected >= 0.9x scalar.

    The vectorized lane is ~3.5x *slower* here (the committed baseline
    records it), which is why the lane threshold exists; this is the
    `oltp-mixed` side of it.
    """
    import regen_sketch_baseline as bench

    small = bench.small_records()
    extractor = SketchExtractor(chunker=ContentDefinedChunker(avg_size=64))
    for data in small:
        extractor.sketch(data)
    assert extractor.chunks_hashed["vectorized"] == 0

    scalar_mb_s = bench.throughput_mb_s(small, "scalar")
    selected_mb_s = bench.throughput_mb_s(small, None)
    assert selected_mb_s >= 0.9 * scalar_mb_s, (
        f"threshold-selected {selected_mb_s:.2f} MB/s < 0.9x scalar "
        f"{scalar_mb_s:.2f} MB/s"
    )
    baseline = json.loads(bench.BASELINE.read_text(encoding="utf-8"))
    assert baseline["vector_min_width"] == bench.features._VECTOR_MIN_WIDTH
    assert baseline["small"]["speedup"] < 0.9


def test_delta_encode_anchor_only_vs_oracle():
    """Anchor-only checksums + sorted-table probe must stay >= 2x the
    frozen every-offset encoder at the default interval.

    Same double gate as the chunking and murmur lanes: against the
    oracle run here and now, and against the committed oracle baseline.
    10 KB wiki-style revision pairs (the `wiki-insert` record size).
    Regenerate the baseline after an intended change with::

        PYTHONPATH=src python benchmarks/regen_delta_baseline.py
    """
    import regen_delta_baseline as bench

    baseline = json.loads(bench.BASELINE.read_text(encoding="utf-8"))
    pairs = bench.pairs()
    oracle, encoder = bench.oracle_payload(64), DeltaCompressor(64).compress
    for source, target in pairs:
        assert encoder(source, target) == oracle(source, target)

    encoder_mb_s, oracle_mb_s = bench.encode_speedup(encoder, oracle, pairs, repeat=3)
    assert encoder_mb_s >= 2.0 * oracle_mb_s, (
        f"encoder {encoder_mb_s:.1f} MB/s < 2x oracle {oracle_mb_s:.1f} MB/s"
    )
    committed = baseline["encode"]["anchor-64"]["oracle_mb_s"]
    assert encoder_mb_s >= 2.0 * committed, (
        f"encoder {encoder_mb_s:.1f} MB/s < 2x committed oracle "
        f"baseline {committed:.1f} MB/s"
    )


def test_delta_encode_quoted_replies_vs_oracle():
    """On the pairs a seeded ``enron`` ingest encodes (>= 10 matches per
    encode) the encoder must stay >= 2.5x
    ``serialize(OracleDeltaCompressor.compress(...))``.

    This is where per-match cost shows: every quoted line is its own
    match. Measured on CPython 3.11 on a noisy 2-core x86-64 host, best
    of 15 interleaved passes: the encoder before the galloping ``bytes``
    extension and the direct payload writer (``serialize`` of its
    instruction list) read 2.03-2.80x the oracle in 18 runs, median 2.3x
    (3 of them at or above the floor); after it 2.71-4.15x in 31 runs,
    median 3.5x. Both sides are pure functions of the same pairs in the
    same process, so the ratio tracks the code more than the host's
    speed, though a slow phase can still fall on one side's passes. The
    floor is unverified on CPython 3.10 and 3.12, which CI runs; ROADMAP
    keeps that check open.
    """
    import regen_delta_baseline as bench

    mails = bench.enron_pairs()
    assert bench.matches_per_encode(mails) >= 10
    oracle, encoder = bench.oracle_payload(64), DeltaCompressor(64).compress
    for source, target in mails:
        assert encoder(source, target) == oracle(source, target)

    encoder_mb_s, oracle_mb_s = bench.encode_speedup(encoder, oracle, mails)
    assert encoder_mb_s >= 2.5 * oracle_mb_s, (
        f"encoder {encoder_mb_s:.1f} MB/s < 2.5x oracle {oracle_mb_s:.1f} MB/s "
        "on quoted replies"
    )


def test_delta_decode_payload_direct_vs_two_step():
    """``apply_payload`` must stay >= 1.3x ``deserialize`` + ``apply_delta``
    on the forward and backward deltas of the same pairs."""
    import regen_delta_baseline as bench

    cases = bench.decode_cases(bench.pairs())
    for base, payload, expected in cases:
        assert apply_payload(base, payload) == expected == bench.two_step(base, payload)

    two_step_mb_s = bench.decode_mb_s(bench.two_step, cases, repeat=10)
    fused_mb_s = bench.decode_mb_s(apply_payload, cases, repeat=10)
    assert fused_mb_s >= 1.3 * two_step_mb_s, (
        f"payload-direct {fused_mb_s:.0f} MB/s < 1.3x two-step "
        f"{two_step_mb_s:.0f} MB/s"
    )


def _best_us(setup, timed, repeat):
    """Best-of-N wall time of ``timed(setup())`` in microseconds."""
    import time

    best = float("inf")
    for _ in range(repeat):
        state = setup()
        t0 = time.perf_counter()
        timed(state)
        best = min(best, time.perf_counter() - t0)
    return best * 1e6


def test_fragmented_page_insert_vs_reference_page():
    """One-unpack directory + bulk compaction must stay >= 3x the frozen
    per-slot page on the insert that has to compact first.

    The `oltp-mixed` shape: a 32 KB page filled with 145 cells of
    200-240 B, one of them shrunk, then an insert that fits only once the
    hole is squeezed out. Both pages must end byte-identical.
    """
    import importlib.util

    from repro.storage.page import SlottedPage

    spec = importlib.util.spec_from_file_location(
        "reference_page",
        Path(__file__).parent.parent / "tests" / "storage" / "reference_page.py",
    )
    reference_page = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference_page)

    rng = random.Random(22)
    cells = [bytes([65 + i % 26]) * rng.randint(200, 240) for i in range(145)]
    full = SlottedPage(32 * 1024)
    for cell in cells:
        full.insert(cell)
    full.update(72, b"shrunk")
    blocked = b"n" * (full.free_bytes - 4)
    assert len(blocked) > full.contiguous_free_bytes
    image = full.image()

    def fresh(page_cls):
        return lambda: page_cls(32 * 1024, image=image)

    done = [fresh(cls)() for cls in (SlottedPage, reference_page.SlottedPage)]
    for page in done:
        page.insert(blocked)
        assert page.contiguous_free_bytes == 0  # it did compact
    assert done[0].image() == done[1].image()

    def insert(page):
        page.insert(blocked)

    reference_us = _best_us(fresh(reference_page.SlottedPage), insert, repeat=200)
    page_us = _best_us(fresh(SlottedPage), insert, repeat=200)
    assert reference_us >= 3.0 * page_us, (
        f"fragmented insert {page_us:.1f} us is not 3x faster than the "
        f"reference page's {reference_us:.1f} us"
    )


def test_cuckoo_closed_form_key_hash_vs_scalar_murmur():
    """``lookup_and_insert`` with the closed-form key hash must stay
    >= 1.3x the same index hashing through three ``murmur3_32`` calls."""

    class ScalarHashed(CuckooFeatureIndex):
        def _hashed(self, feature):
            raw = feature.to_bytes(8, "little")
            first = murmur3_32(raw, seed=0x1) & self._mask
            second = murmur3_32(raw, seed=0x2) & self._mask
            if second == first:
                second = (first + 1) & self._mask
            return murmur3_32(raw, seed=0xC0FFEE) & 0xFFFF, first, second

    rng = random.Random(22)
    features = [rng.getrandbits(64) for _ in range(4000)]

    def run(index):
        return [
            index.lookup_and_insert(feature, position)
            for position, feature in enumerate(features)
        ]

    spec = IndexSpec(num_buckets=1 << 12)
    assert run(CuckooFeatureIndex(spec)) == run(ScalarHashed(spec))
    scalar_us = _best_us(lambda: ScalarHashed(spec), run, repeat=5)
    closed_us = _best_us(lambda: CuckooFeatureIndex(spec), run, repeat=5)
    assert scalar_us >= 1.3 * closed_us, (
        f"closed-form {closed_us / len(features):.2f} us/op is not 1.3x faster "
        f"than scalar murmur's {scalar_us / len(features):.2f} us/op"
    )


ADMISSION_BASELINE = (
    Path(__file__).parent / "baselines" / "admission_microbench.json"
)


def test_admission_inline_vs_hybrid(benchmark):
    """Hybrid admission must cut inline CPU at >= 95 % of the ratio.

    Runs the deterministic two-mode sweep once under benchmark timing
    and pins the simulated outcomes against the committed baseline.
    Regenerate the baseline after an intended behaviour change with::

        PYTHONPATH=src python -c "
        from repro.bench.admission_exp import admission_experiment
        r = admission_experiment(mix='wikipedia,oltp',
                                 target_bytes=200_000, seed=7,
                                 modes=('inline', 'hybrid'))
        print(r.render())"
    """
    from repro.bench.admission_exp import admission_experiment

    result = benchmark.pedantic(
        admission_experiment,
        kwargs=dict(
            mix="wikipedia,oltp",
            target_bytes=200_000,
            seed=7,
            modes=("inline", "hybrid"),
        ),
        rounds=1,
        iterations=1,
    )
    rows = {row.mode: row for row in result.rows}
    inline, hybrid = rows["inline"], rows["hybrid"]
    assert inline.invariants_ok and hybrid.invariants_ok

    # The acceptance claim: hybrid spends less simulated CPU inline than
    # all-inline while keeping (at least) 95 % of its dedup ratio —
    # here the drained queue restores it exactly.
    assert hybrid.inline_cpu_s < inline.inline_cpu_s
    assert hybrid.ratio_retained_pct >= 95.0
    assert hybrid.defer_decisions > 0
    assert inline.defer_decisions == 0

    # The sweep is a seeded simulation: integer outcomes must match the
    # committed baseline exactly, simulated CPU within float tolerance.
    baseline = json.loads(ADMISSION_BASELINE.read_text(encoding="utf-8"))
    for mode, row in rows.items():
        expected = baseline[mode]
        assert row.operations == expected["operations"], mode
        assert row.defer_decisions == expected["defer_decisions"], mode
        assert row.storage_ratio == pytest.approx(
            expected["storage_ratio"], rel=1e-3
        ), mode
        assert row.inline_cpu_s == pytest.approx(
            expected["inline_cpu_s"], rel=1e-3
        ), mode
        assert row.outofline_cpu_s == pytest.approx(
            expected["outofline_cpu_s"], rel=1e-3, abs=1e-9
        ), mode

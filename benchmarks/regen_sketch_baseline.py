"""Regenerate benchmarks/baselines/sketch_microbench.json.

Measures the two feature-hashing lanes of ``SketchExtractor`` — the
scalar ``murmur3_32`` loop and the block-parallel ``murmur3_32_chunks``
pass — on the inputs ``benchmarks/test_microbench.py`` gates on, plus a
sweep over record sizes that shows where the lanes cross. That sweep is
what ``repro.sketch.features._VECTOR_MIN_WIDTH`` is set from. Run from
the repo root::

    PYTHONPATH=src python benchmarks/regen_sketch_baseline.py

Chunk boundaries are computed once up front and replayed, so the
numbers are hashing plus top-K only, not chunking.
"""

import json
import time
from contextlib import contextmanager
from pathlib import Path

from repro.chunking.cdc import ContentDefinedChunker
from repro.sketch import features
from repro.sketch.features import SketchExtractor
from repro.workloads.oltp import OltpWorkload
from repro.workloads.wikipedia import WikipediaWorkload

AVG_SIZE = 64
BATCH = 64
BASELINE = Path(__file__).parent / "baselines" / "sketch_microbench.json"

#: ``_VECTOR_MIN_WIDTH`` values that pin one lane whatever the input.
LANES = {"scalar": float("inf"), "vectorized": 0}


class ReplayChunker:
    """Hands back boundaries computed earlier, so timing sees hashing only."""

    def __init__(self, datas: list[bytes]) -> None:
        chunker = ContentDefinedChunker(avg_size=AVG_SIZE)
        self.max_size = chunker.max_size
        self.cuts = {id(data): chunker.boundaries(data) for data in datas}

    def boundaries(self, data: bytes) -> list[int]:
        return self.cuts[id(data)]

    def boundaries_many(self, datas: list[bytes]) -> list[list[int]]:
        return [self.cuts[id(data)] for data in datas]


@contextmanager
def lane(name: str | None):
    """Pin the hashing lane (``None`` leaves the threshold in charge)."""
    saved = features._VECTOR_MIN_WIDTH
    if name is not None:
        features._VECTOR_MIN_WIDTH = LANES[name]
    try:
        yield
    finally:
        features._VECTOR_MIN_WIDTH = saved


def wiki_records() -> list[bytes]:
    """64 article revisions of ~10 KB: ~133 chunks per record."""
    ops = WikipediaWorkload(seed=7, target_bytes=800_000).insert_trace()
    return [op.content for op in ops][:BATCH]


def small_records() -> list[bytes]:
    """~220 B order rows: ~4 chunks per record."""
    ops = OltpWorkload(seed=7, target_bytes=60_000).insert_trace()
    return [op.content for op in ops]


def throughput_mb_s(datas, name, batched=False, repeat=5) -> float:
    """Best-of-N sketch throughput of ``datas`` through one lane, MB/s."""
    extractor = SketchExtractor(chunker=ReplayChunker(datas), top_k=8)
    best = float("inf")
    with lane(name):
        for _ in range(repeat):
            t0 = time.perf_counter()
            if batched:
                extractor.sketch_many(datas)
            else:
                for data in datas:
                    extractor.sketch(data)
            best = min(best, time.perf_counter() - t0)
    return sum(map(len, datas)) / best / 1e6


def compare(datas, batched=False) -> dict:
    scalar = throughput_mb_s(datas, "scalar", batched)
    vectorized = throughput_mb_s(datas, "vectorized", batched)
    chunks = ReplayChunker(datas).cuts.values()
    return {
        "records": len(datas),
        "mean_record_bytes": round(sum(map(len, datas)) / len(datas), 1),
        "chunks_per_record": round(sum(map(len, chunks)) / len(datas), 1),
        "scalar_mb_s": round(scalar, 3),
        "vectorized_mb_s": round(vectorized, 3),
        "speedup": round(vectorized / scalar, 2),
    }


def crossover_sweep(corpus: bytes) -> list[dict]:
    """Vectorized/scalar speed ratio per record size, per-record calls."""
    rows = []
    for size in (256, 512, 1024, 1536, 2048, 3072, 4096, 8192):
        datas = [
            corpus[start : start + size]
            for start in range(0, min(len(corpus), 48 * size), size)
        ]
        row = compare(datas)
        rows.append({
            "record_bytes": size,
            "width": round(size / (AVG_SIZE * 4), 1),
            "chunks_per_record": row["chunks_per_record"],
            "speedup": row["speedup"],
        })
    return rows


def measure() -> dict:
    wiki = wiki_records()
    small = small_records()
    result = {
        "avg_size": AVG_SIZE,
        "vector_min_width": features._VECTOR_MIN_WIDTH,
        "record": compare(wiki),
        "batch64": compare(wiki, batched=True),
        "small": compare(small),
        "crossover": crossover_sweep(b"".join(wiki)),
    }
    result["small"]["selected_mb_s"] = round(
        throughput_mb_s(small, None), 3
    )
    return result


def main() -> None:
    baseline = measure()
    BASELINE.write_text(json.dumps(baseline, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(baseline, indent=2))


if __name__ == "__main__":
    main()

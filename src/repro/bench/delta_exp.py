"""Delta-compression optimization experiment: Fig. 15.

Sweeps dbDedup's anchor interval against classic xDelta on realistic
revision pairs. Compression ratio is exact; throughput is wall-clock over
this implementation (absolute MB/s differ from the paper's C
implementation, but the *relative* curve — larger intervals buy throughput
for a small ratio loss — is the claim under test).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from repro.bench.report import render_table
from repro.delta.dbdelta import DeltaCompressor
from repro.delta.instructions import encoded_size
from repro.delta.xdelta import xdelta_compress
from repro.workloads.edits import revise
from repro.workloads.text import TextGenerator


def revision_pairs(
    count: int = 24, body_bytes: int = 8000, seed: int = 7
) -> list[tuple[bytes, bytes]]:
    """(source, target) pairs shaped like consecutive wiki revisions."""
    rng = random.Random(seed)
    text_gen = TextGenerator(seed)
    pairs = []
    for _ in range(count):
        base = text_gen.document(body_bytes)
        target = revise(rng, text_gen, base, num_edits=rng.randint(2, 8))
        pairs.append((base.encode(), target.encode()))
    return pairs


@dataclass(frozen=True)
class DeltaSweepRow:
    """One bar group of Fig. 15."""

    label: str
    compression_ratio: float
    throughput_mb_s: float


@dataclass
class DeltaSweepResult:
    rows: list[DeltaSweepRow]

    def row(self, label: str) -> DeltaSweepRow:
        """Look up one result row by its key; raises KeyError if absent."""
        for row in self.rows:
            if row.label == label:
                return row
        raise KeyError(label)

    def render(self) -> str:
        """Render this result as an aligned text table/summary."""
        return render_table(
            "Fig. 15: anchor-interval sweep vs xDelta (Wikipedia-style pairs)",
            ["variant", "compression ratio", "throughput MB/s"],
            [(row.label, row.compression_ratio, row.throughput_mb_s) for row in self.rows],
        )


def _measure(compress, size, pairs) -> tuple[int, int, float]:
    """Target bytes, delta bytes (``size`` of each result) and seconds."""
    raw = 0
    compressed = 0
    start = time.perf_counter()
    for src, tgt in pairs:
        delta = compress(src, tgt)
        raw += len(tgt)
        compressed += size(delta)
    elapsed = time.perf_counter() - start
    return raw, compressed, elapsed


def fig15(
    anchor_intervals: tuple[int, ...] = (16, 32, 64, 128),
    pair_count: int = 24,
    body_bytes: int = 8000,
    seed: int = 7,
) -> DeltaSweepResult:
    """Fig. 15: compression ratio and throughput vs anchor interval."""
    pairs = revision_pairs(count=pair_count, body_bytes=body_bytes, seed=seed)
    rows: list[DeltaSweepRow] = []

    raw, compressed, elapsed = _measure(xdelta_compress, encoded_size, pairs)
    rows.append(
        DeltaSweepRow(
            label="xDelta",
            compression_ratio=raw / compressed if compressed else 1.0,
            throughput_mb_s=raw / elapsed / 1e6 if elapsed else 0.0,
        )
    )
    for interval in anchor_intervals:
        compressor = DeltaCompressor(anchor_interval=interval)
        raw, compressed, elapsed = _measure(compressor.compress, len, pairs)
        rows.append(
            DeltaSweepRow(
                label=f"anchor-{interval}",
                compression_ratio=raw / compressed if compressed else 1.0,
                throughput_mb_s=raw / elapsed / 1e6 if elapsed else 0.0,
            )
        )
    return DeltaSweepResult(rows=rows)

"""Regenerate benchmarks/baselines/delta_microbench.json.

Measures the two hot ends of ``repro.delta`` on the inputs
``benchmarks/test_microbench.py`` gates on:

* encode — ``DeltaCompressor.compress`` (checksums at anchors only,
  sorted-table probe, galloping ``bytes`` match extension, payload
  written directly) against ``serialize(OracleDeltaCompressor.compress)``
  (the frozen every-offset implementation, numpy extension, instruction
  objects) on 10 KB revision pairs, at the three anchor intervals of
  Fig. 15, and on the pairs a seeded ``enron`` ingest encodes — mails
  and the replies quoting them, whose ``> `` prefixes cut every encode
  into a dozen or more matches;
* decode — ``apply_payload`` against ``deserialize`` + ``apply_delta`` on
  the forward and backward deltas of the revision pairs.

Run from the repo root::

    PYTHONPATH=src python benchmarks/regen_delta_baseline.py
"""

import json
import time
from pathlib import Path

from repro.api import ClusterSpec, open_cluster
from repro.bench.delta_exp import revision_pairs
from repro.core.config import DedupConfig
from repro.delta.dbdelta import DeltaCompressor
from repro.delta.decode import apply_delta, apply_payload
from repro.delta.instructions import deserialize, payload_copies, serialize
from repro.delta.reencode import delta_reencode
from repro.delta.reference import OracleDeltaCompressor
from repro.workloads import make_workload

INTERVALS = (16, 64, 128)
BASELINE = Path(__file__).parent / "baselines" / "delta_microbench.json"


def pairs() -> list[tuple[bytes, bytes]]:
    """Twenty (source, target) wiki-style revisions of ~10 KB."""
    return revision_pairs(count=20, body_bytes=10_000, seed=7)


def enron_pairs(target_bytes: int = 200_000, seed: int = 7) -> list[tuple[bytes, bytes]]:
    """Every (source, target) pair ``DeltaCompressor.compress`` is handed
    while a seeded ``enron`` trace is ingested — the mails and quoted
    replies the write path really encodes (26 pairs at the defaults)."""
    production = DeltaCompressor.compress
    recorded = []

    def recording(self, source, target):
        recorded.append((source, target))
        return production(self, source, target)

    DeltaCompressor.compress = recording
    try:
        client = open_cluster(ClusterSpec(dedup=DedupConfig(chunk_size=64)))
        for op in make_workload("enron", seed, target_bytes).insert_trace():
            client.insert(op.database, op.record_id, op.content)
        client.finalize()
    finally:
        DeltaCompressor.compress = production
    return recorded


def matches_per_encode(pairs) -> float:
    """Mean COPY count of the default encoder's payloads over ``pairs``."""
    compressor = DeltaCompressor()
    return sum(
        len(payload_copies(compressor.compress(source, target)))
        for source, target in pairs
    ) / len(pairs)


def oracle_payload(interval: int):
    """The oracle as the write path used to run it: encode, then serialize."""
    oracle = OracleDeltaCompressor(interval)
    return lambda source, target: serialize(oracle.compress(source, target))


def decode_cases(pairs) -> list[tuple[bytes, bytes, bytes]]:
    """``(base, payload, expected)``: each pair's forward and backward delta."""
    compressor = DeltaCompressor()
    cases = []
    for source, target in pairs:
        forward = compressor.compress(source, target)
        cases.append((source, forward, target))
        cases.append((target, delta_reencode(source, forward), source))
    return cases


def _best_seconds(run, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - t0)
    return best


def encode_speedup(compress, baseline, pairs, repeat=15) -> tuple[float, float]:
    """Best-of-N target MB/s of ``compress`` and of ``baseline`` over
    ``pairs``, their passes interleaved so a slow phase of the host
    falls on both."""
    best = [float("inf"), float("inf")]
    for _ in range(repeat):
        for side, encode in enumerate((compress, baseline)):
            t0 = time.perf_counter()
            for source, target in pairs:
                encode(source, target)
            best[side] = min(best[side], time.perf_counter() - t0)
    total = sum(len(target) for _, target in pairs) / 1e6
    return total / best[0], total / best[1]


def two_step(base: bytes, payload: bytes) -> bytes:
    return apply_delta(base, deserialize(payload))


def decode_mb_s(decode, cases, repeat=20) -> float:
    """Best-of-N decoded MB/s of ``decode(base, payload)`` over ``cases``."""

    def run():
        for base, payload, _ in cases:
            decode(base, payload)

    return sum(len(want) for _, _, want in cases) / _best_seconds(run, repeat) / 1e6


def measure() -> dict:
    sample = pairs()
    cases = decode_cases(sample)
    result = {
        "pairs": len(sample),
        "mean_target_bytes": round(sum(len(t) for _, t in sample) / len(sample), 1),
        "encode": {},
    }
    for interval in INTERVALS:
        encoder, oracle = encode_speedup(
            DeltaCompressor(interval).compress, oracle_payload(interval), sample, repeat=5
        )
        result["encode"][f"anchor-{interval}"] = {
            "oracle_mb_s": round(oracle, 3),
            "encoder_mb_s": round(encoder, 3),
            "speedup": round(encoder / oracle, 2),
        }
    mails = enron_pairs()
    encoder, oracle = encode_speedup(DeltaCompressor(64).compress, oracle_payload(64), mails)
    result["enron"] = {
        "pairs": len(mails),
        "mean_target_bytes": round(sum(len(t) for _, t in mails) / len(mails), 1),
        "matches_per_encode": round(matches_per_encode(mails), 1),
        "oracle_mb_s": round(oracle, 3),
        "encoder_mb_s": round(encoder, 3),
        "speedup": round(encoder / oracle, 2),
    }
    two = decode_mb_s(two_step, cases)
    fused = decode_mb_s(apply_payload, cases)
    result["decode"] = {
        "payloads": len(cases),
        "mean_instructions": round(
            sum(len(deserialize(p)) for _, p, _ in cases) / len(cases), 1
        ),
        "two_step_mb_s": round(two, 1),
        "fused_mb_s": round(fused, 1),
        "speedup": round(fused / two, 2),
    }
    return result


def main() -> None:
    baseline = measure()
    BASELINE.write_text(json.dumps(baseline, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(baseline, indent=2))


if __name__ == "__main__":
    main()

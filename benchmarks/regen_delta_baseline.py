"""Regenerate benchmarks/baselines/delta_microbench.json.

Measures the two hot ends of ``repro.delta`` on the inputs
``benchmarks/test_microbench.py`` gates on:

* encode — ``DeltaCompressor`` (checksums at anchors only, sorted-table
  probe) against ``OracleDeltaCompressor`` (the frozen every-offset
  implementation) on 10 KB revision pairs, at the three anchor intervals
  of Fig. 15;
* decode — ``apply_payload`` against ``deserialize`` + ``apply_delta`` on
  the forward and backward deltas of the same pairs.

Run from the repo root::

    PYTHONPATH=src python benchmarks/regen_delta_baseline.py
"""

import json
import time
from pathlib import Path

from repro.bench.delta_exp import revision_pairs
from repro.delta.dbdelta import DeltaCompressor
from repro.delta.decode import apply_delta, apply_payload
from repro.delta.instructions import deserialize, serialize
from repro.delta.reencode import delta_reencode
from repro.delta.reference import OracleDeltaCompressor

INTERVALS = (16, 64, 128)
BASELINE = Path(__file__).parent / "baselines" / "delta_microbench.json"


def pairs() -> list[tuple[bytes, bytes]]:
    """Twenty (source, target) wiki-style revisions of ~10 KB."""
    return revision_pairs(count=20, body_bytes=10_000, seed=7)


def decode_cases(pairs) -> list[tuple[bytes, bytes, bytes]]:
    """``(base, payload, expected)``: each pair's forward and backward delta."""
    compressor = DeltaCompressor()
    cases = []
    for source, target in pairs:
        forward = compressor.compress(source, target)
        cases.append((source, serialize(forward), target))
        cases.append((target, serialize(delta_reencode(source, forward)), source))
    return cases


def _best_seconds(run, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - t0)
    return best


def encode_mb_s(compressor, pairs, repeat=5) -> float:
    """Best-of-N target MB/s of ``compressor.compress`` over ``pairs``."""

    def run():
        for source, target in pairs:
            compressor.compress(source, target)

    return sum(len(target) for _, target in pairs) / _best_seconds(run, repeat) / 1e6


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
        oracle = encode_mb_s(OracleDeltaCompressor(interval), sample)
        encoder = encode_mb_s(DeltaCompressor(interval), sample)
        result["encode"][f"anchor-{interval}"] = {
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

"""Microbenchmark: batch insert path vs per-record inserts.

Guards the acceptance claim for the staged encode pipeline: the batch
path (``Database.insert_many`` → ``PrimaryNode.insert_batch`` →
``DedupEngine.encode_batch``) must not be slower than per-record inserts
on the same trace, and the amortized numpy sketching must cut the
per-record sketch cost on batches ≥ 64.

Timing assertions use generous margins — these catch a broken batch path
(e.g. quadratic re-preparation), not small scheduler noise.
"""

from __future__ import annotations

import time

import pytest

from repro.chunking.cdc import ContentDefinedChunker
from repro.core.config import DedupConfig
from repro.api import ClusterSpec
from repro.db.cluster import Cluster
from repro.sketch.features import SketchExtractor
from repro.workloads.text import TextGenerator
from repro.workloads import make_workload


@pytest.fixture(scope="module")
def trace_factory():
    """A fresh copy of the same insert trace, on demand."""

    def build():
        workload = make_workload("wikipedia", seed=7, target_bytes=400_000)
        return workload.insert_trace()

    return build


def run_cluster(trace_factory, batch_size: int):
    """Drive one cluster over the trace; return (wall seconds, result)."""
    cluster = Cluster(
        ClusterSpec(
            dedup=DedupConfig(chunk_size=64),
            insert_batch_size=batch_size,
        )
    )
    began = time.perf_counter()
    result = cluster.run(trace_factory())
    return time.perf_counter() - began, result, cluster


def test_batch_insert_not_slower_than_per_record(once, trace_factory):
    per_record_wall, per_record_result, _ = run_cluster(trace_factory, 1)

    def batched():
        return run_cluster(trace_factory, 64)

    batched_wall, batched_result, cluster = once(batched)

    # Identical outcomes: the batch path is an execution strategy, not a
    # different algorithm.
    assert batched_result.stored_bytes == per_record_result.stored_bytes
    assert batched_result.network_bytes == per_record_result.network_bytes
    assert batched_result.inserts == per_record_result.inserts
    assert cluster.replicas_converged()

    # "Not slower" with a generous noise margin.
    assert batched_wall <= per_record_wall * 1.25, (
        f"batched {batched_wall:.3f}s vs per-record {per_record_wall:.3f}s"
    )


def test_sketch_many_amortizes_small_records(once):
    # Small records are where batch amortization pays: per-record numpy
    # dispatch dominates a 120-byte sweep, and one concatenated padded
    # pass spreads that cost over the whole batch. (Large records are
    # routed to the per-record path inside boundaries_many — their sweep
    # is already dispatch-bound no longer, so batching buys nothing.)
    gen = TextGenerator(seed=13)
    docs = [gen.document(120).encode() for _ in range(512)]
    extractor = SketchExtractor(chunker=ContentDefinedChunker(avg_size=64))

    began = time.perf_counter()
    sequential = [extractor.sketch(doc) for doc in docs]
    sequential_wall = time.perf_counter() - began

    began = time.perf_counter()
    batched = once(extractor.sketch_many, docs)
    batched_wall = time.perf_counter() - began

    assert batched == sequential
    # One concatenated numpy pass must beat 512 per-record passes on
    # per-record overhead; require a measurable reduction, not parity.
    assert batched_wall < sequential_wall, (
        f"batched {batched_wall * 1e3:.1f}ms vs "
        f"sequential {sequential_wall * 1e3:.1f}ms"
    )

"""Property test: ``encode_batch()`` ≡ sequential ``encode()``.

The encode path promises byte-identical behaviour between per-record
and batched execution — same :class:`EncodeResult` sequence, same global
and per-database statistics — across every workload generator, any batch
partitioning, and configurations that exercise the governor and size
filter mid-stream. Hypothesis searches that space.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.config import DedupConfig
from repro.core.engine import DedupEngine
from repro.workloads import ALL_WORKLOADS, make_workload

WORKLOAD_NAMES = [cls.name for cls in ALL_WORKLOADS]


class DictProvider:
    """Minimal RecordProvider backed by a dict."""

    def __init__(self) -> None:
        self.data: dict[str, bytes] = {}

    def fetch_content(self, record_id: str):
        return self.data.get(record_id)

    def stored_size(self, record_id: str) -> int:
        return len(self.data.get(record_id, b""))


def insert_ops(workload_name: str, seed: int, target_bytes: int):
    """The workload's insert operations, in trace order."""
    workload = make_workload(workload_name, seed=seed, target_bytes=target_bytes)
    return [op for op in workload.insert_trace() if op.kind == "insert"]


def make_engine() -> DedupEngine:
    # Small governor window and filter interval so both mechanisms
    # actually trip inside the tiny corpora hypothesis can afford.
    return DedupEngine(
        config=DedupConfig(
            chunk_size=64,
            governor_window=30,
            size_filter_interval=20,
            saving_sample_cap=50,
        )
    )


@settings(max_examples=12, deadline=None)
@given(
    workload_name=st.sampled_from(WORKLOAD_NAMES),
    seed=st.integers(min_value=0, max_value=50),
    batch_size=st.integers(min_value=1, max_value=96),
)
def test_encode_batch_equals_sequential_encode(workload_name, seed, batch_size):
    ops = insert_ops(workload_name, seed, target_bytes=60_000)

    sequential_engine = make_engine()
    sequential_provider = DictProvider()
    sequential_results = []
    for op in ops:
        sequential_results.append(
            sequential_engine.encode(
                op.database, op.record_id, op.content, sequential_provider
            )
        )
        sequential_provider.data[op.record_id] = op.content

    batch_engine = make_engine()
    batch_provider = DictProvider()
    batch_results = []
    for start in range(0, len(ops), batch_size):
        chunk = ops[start : start + batch_size]
        for op in chunk:
            batch_provider.data[op.record_id] = op.content
        batch_results.extend(
            batch_engine.encode_batch(
                [(op.database, op.record_id, op.content) for op in chunk],
                batch_provider,
            )
        )

    assert batch_results == sequential_results
    assert batch_engine.stats == sequential_engine.stats
    assert batch_engine.database_stats == sequential_engine.database_stats
    # The shared bookkeeping the next insert would read must match too.
    assert batch_engine._insert_seq == sequential_engine._insert_seq
    assert (
        batch_engine.admission.disabled_databases
        == sequential_engine.admission.disabled_databases
    )


def test_single_item_batch_equals_encode(document):
    """Degenerate batch of one behaves exactly like one encode call."""
    one = make_engine()
    many = make_engine()
    provider_one, provider_many = DictProvider(), DictProvider()
    provider_many.data["r0"] = document
    sequential = one.encode("db", "r0", document, provider_one)
    (batched,) = many.encode_batch([("db", "r0", document)], provider_many)
    assert batched == sequential
    assert one.stats == many.stats

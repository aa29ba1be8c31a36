"""Property test: all-inline ≡ hybrid-after-drain, byte for byte.

The admission refactor's load-bearing promise: deferring a record only
moves *when* it dedups, never *what* it dedups to. After every deferred
record has drained (idle slices mid-run plus the unconditional drain at
finalize), a hybrid cluster must hold byte-identical storage contents,
the same dedup ratio, and the same engine accounting as a cluster that
ran the identical trace all-inline — and every record must decode back
to the inserted bytes on both.

Holds for insert+idle traces (the drain paths preserve per-stream FIFO
order, which keeps the per-database candidate and size-filter state in
lockstep). Client reads would perturb source-cache admission timing, so
the traces here are insert-only by construction.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import ClusterSpec, open_cluster
from repro.bench.admission_exp import mixed_trace
from repro.core.config import DedupConfig

MIXES = ("wikipedia,oltp", "enron,oltp", "wikipedia", "messageboards")


def open_mode(mode: str, window: int, queue_bound: int):
    return open_cluster(
        ClusterSpec(
            dedup=DedupConfig(
                chunk_size=64,
                governor_window=window,
                size_filter_interval=20,
                admission_mode=mode,
                admission_queue_records=queue_bound,
            ),
        )
    )


@settings(max_examples=6, deadline=None)
@given(
    mix=st.sampled_from(MIXES),
    seed=st.integers(min_value=0, max_value=50),
    window=st.integers(min_value=4, max_value=40),
    idle_every=st.integers(min_value=8, max_value=200),
    queue_bound=st.sampled_from((3, 64, 4096)),
)
def test_inline_all_equals_hybrid_after_drain(
    mix, seed, window, idle_every, queue_bound
):
    trace = mixed_trace(mix, seed, 60_000, idle_every=idle_every)
    inserted = {
        op.record_id: (op.database, op.content)
        for op in trace
        if op.kind == "insert"
    }

    inline = open_mode("inline", window, queue_bound)
    hybrid = open_mode("hybrid", window, queue_bound)
    inline_run = inline.run(trace)
    hybrid_run = hybrid.run(trace)

    # Nothing may be left queued after finalize (run() finalizes).
    assert hybrid.cluster.primary.deferred_queue_len == 0

    # Byte-identical storage state: same records, same stored form.
    inline_records = inline.cluster.primary.db.records
    hybrid_records = hybrid.cluster.primary.db.records
    assert inline_records.keys() == hybrid_records.keys()
    for record_id, expected in inline_records.items():
        actual = hybrid_records[record_id]
        assert (
            actual.form,
            actual.payload,
            actual.base_id,
            actual.pending_updates,
            actual.deleted,
        ) == (
            expected.form,
            expected.payload,
            expected.base_id,
            expected.pending_updates,
            expected.deleted,
        ), record_id

    assert hybrid_run.stored_bytes == inline_run.stored_bytes
    assert (
        hybrid_run.storage_compression_ratio
        == inline_run.storage_compression_ratio
    )

    # Same engine accounting: every deferred record was deduped (or
    # dropped) for exactly the same reason it would have been inline.
    # Global-scope comparison is order-independent where draining
    # legitimately reorders cross-stream work: saving samples compare as
    # a multiset and stage CPU sums to the last float ulp.
    inline_engine = inline.cluster.primary.engine
    hybrid_engine = hybrid.cluster.primary.engine
    inline_summary = inline_engine.stats.summary()
    hybrid_summary = hybrid_engine.stats.summary()
    inline_cpu = inline_summary.pop("stage_cpu_seconds")
    hybrid_cpu = hybrid_summary.pop("stage_cpu_seconds")
    assert hybrid_summary == inline_summary
    assert hybrid_cpu == pytest.approx(inline_cpu)
    assert sorted(hybrid_engine.stats.saving_samples) == sorted(
        inline_engine.stats.saving_samples
    )
    # Per-database order is preserved exactly, so per-stream stats match
    # including sample order.
    assert hybrid_engine.database_stats == inline_engine.database_stats

    # Every inserted record decodes back to the inserted bytes on both.
    for record_id, (database, content) in inserted.items():
        assert inline.read(database, record_id) == content
        assert hybrid.read(database, record_id) == content

    assert inline.check_invariants(strict=False).ok
    assert hybrid.check_invariants(strict=False).ok

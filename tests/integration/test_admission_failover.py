"""Seeded chaos: primary failover with a non-empty deferred queue.

A hybrid-mode primary holds deferred records in its engine's queue —
records already stored raw and already oplogged raw (defer changes the
stored *form* later, never the write-ahead contract). When the primary
dies with the queue non-empty, the promoted secondary builds a fresh
engine whose queue is empty: the queued records simply stay raw. The
invariants this test pins down:

* **no loss** — every acknowledged insert reads back byte-exact after
  promotion (per-entry oplog shipping closes the async lost-write
  window, so any miss would be the admission layer's fault);
* **no double-dedup** — each record is stored exactly once, the
  admission accounting identity (defer decisions == out-of-line drains
  + queued + discarded) reconciles on the rebuilt collectors, and the
  post-finalize queue is empty.
"""

from __future__ import annotations

from repro.api import ClusterSpec, open_cluster
from repro.core.config import DedupConfig
from repro.obs.export import check_reconciliation, metrics_document
from repro.sim.faults import CrashNode, FaultPlan
from repro.workloads import make_workload

SEED = 7


def test_failover_with_pending_deferred_queue():
    workload = make_workload("wikipedia", seed=SEED, target_bytes=600_000)
    ops = [op for op in workload.insert_trace() if op.kind == "insert"]
    assert len(ops) > 40
    client = open_cluster(
        ClusterSpec(
            dedup=DedupConfig(
                chunk_size=64,
                governor_window=8,
                admission_mode="hybrid",
                # Impossible inline bar: after the warm-up window, every
                # record defers — the queue is guaranteed non-empty when
                # the crash lands (no idle ops drain it mid-trace).
                admission_inline_threshold=100.0,
            ),
            oplog_batch_bytes=1,
            num_secondaries=2,
        )
    )
    cluster = client.cluster
    crash_after = len(ops) // 2
    FaultPlan(
        seed=SEED,
        rules=[CrashNode(node="primary", after_appends=crash_after,
                         restart=False)],
    ).install(cluster)

    old_primary = cluster.primary
    max_pending_before_crash = 0
    for op in ops:
        cluster.execute(op)
        if cluster.primary is old_primary and cluster.primary.is_available:
            max_pending_before_crash = max(
                max_pending_before_crash, cluster.primary.deferred_queue_len
            )
    # The scenario is only meaningful if the queue really was non-empty
    # on the node that died.
    assert max_pending_before_crash > 0
    assert cluster.failover.failovers >= 1
    assert cluster.primary is not old_primary

    client.finalize()

    # No loss: every acknowledged insert reads back byte-exact.
    for op in ops:
        assert client.read(op.database, op.record_id) == op.content, (
            op.record_id
        )

    # No double-dedup: exactly one stored record per insert, empty
    # post-finalize queue, and the admission identity reconciles on the
    # promoted engine's rebuilt collectors.
    assert set(cluster.primary.db.records.keys()) == {
        op.record_id for op in ops
    }
    assert cluster.primary.deferred_queue_len == 0
    assert check_reconciliation(metrics_document(cluster.registry)) == []

    report = client.check_invariants(strict=False)
    assert report.ok, report.summary()


def test_restarted_primary_queue_dies_with_engine():
    """A supervised restart rebuilds the engine: the queue is empty, the
    once-queued records stay raw, and draining afterwards is a no-op."""
    workload = make_workload("wikipedia", seed=SEED, target_bytes=300_000)
    ops = [op for op in workload.insert_trace() if op.kind == "insert"]
    client = open_cluster(
        ClusterSpec(
            dedup=DedupConfig(
                chunk_size=64,
                governor_window=4,
                admission_mode="hybrid",
                admission_inline_threshold=100.0,
            ),
        )
    )
    cluster = client.cluster
    for op in ops:
        cluster.execute(op)
    assert cluster.primary.deferred_queue_len > 0

    cluster.primary.restart()
    assert cluster.primary.deferred_queue_len == 0
    assert cluster.primary.drain_deferred_dedup(force=True) == 0

    client.finalize()
    for op in ops:
        assert client.read(op.database, op.record_id) == op.content
    assert client.check_invariants(strict=False).ok

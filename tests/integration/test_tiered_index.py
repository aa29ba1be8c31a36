"""Tiered index end-to-end: CRUD, failover rebuild, metrics identity.

The tiered index trades exactness for memory on the cold path, so the
cluster-level contract it must NOT weaken is correctness of the *record*
store: updates and deletes invalidate candidates in both tiers, a
promoted or restarted node rebuilds a coherent index from its own data,
and the exported metrics reconcile (every lookup is exactly one of a hot
hit, a cold hit, or a miss).
"""

from __future__ import annotations

import random

import pytest

from repro.api import ClusterSpec, IndexSpec, open_cluster
from repro.core.config import DedupConfig
from repro.obs.export import check_reconciliation, metrics_document
from repro.sim.faults import CrashNode, FaultPlan
from repro.workloads import make_workload
from repro.workloads.base import Operation

SEED = 11

#: Small enough that a dedup-friendly trace overflows the hot tier and
#: exercises demotion, cold hits, and promotion — not just the hot path.
TIERED = IndexSpec(kind="tiered", hot_bytes_budget=2048, promotion_hits=2)

#: Tighter still, for the short hand-built traces whose sketches only
#: yield a few hundred feature entries.
TIERED_TIGHT = IndexSpec(kind="tiered", hot_bytes_budget=448,
                         promotion_hits=2)


def tiered_client(index: IndexSpec = TIERED, **overrides):
    spec = ClusterSpec(dedup=DedupConfig(index=index), **overrides)
    return open_cluster(spec)


def dedup_friendly_ops(count: int = 24, seed: int = SEED) -> list[Operation]:
    # Large shared base, one localized mutation per record: nearly every
    # chunk recurs, so lookups dominate and the index works hard.
    rng = random.Random(seed)
    base = bytes(rng.randrange(256) for _ in range(16 * 1024))
    ops = []
    for i in range(count):
        mutated = bytearray(base)
        offset = 512 + 16 * i
        mutated[offset : offset + 8] = bytes(
            rng.randrange(256) for _ in range(8)
        )
        ops.append(Operation("insert", "db", f"r{i}", bytes(mutated)))
    return ops


class TestTieredCrud:
    def test_run_reconciles_and_holds_invariants(self):
        client = tiered_client()
        workload = make_workload("wikipedia", seed=SEED, target_bytes=400_000)
        client.run(workload.mixed_trace())
        client.finalize()

        index = client.cluster.primary.engine.index_for("wikipedia")
        assert index.demotions > 0, "budget never bound — test is vacuous"
        assert index.hot_bytes <= index.hot_bytes_budget

        assert check_reconciliation(
            metrics_document(client.cluster.registry)
        ) == []
        report = client.check_invariants()
        assert report.ok, report.summary()

    def test_delete_and_update_invalidate_cold_candidates(self):
        client = tiered_client()
        ops = dedup_friendly_ops()
        for op in ops:
            client.cluster.execute(op)

        # Delete half, update a quarter; finalize flushes the batches.
        for i in range(0, 24, 2):
            client.delete("db", f"r{i}")
        fresh = random.Random(99).randbytes(4 * 1024)
        for i in range(1, 24, 4):
            client.update("db", f"r{i}", fresh)
        client.finalize()

        # The index (both tiers) must not reference any deleted record.
        primary = client.cluster.primary
        live = set(primary.db.records)
        for _, part in primary.engine.index_partitions():
            assert part.record_ids() <= live

        for i in range(0, 24, 2):
            assert client.read("db", f"r{i}") is None
        for i in range(1, 24, 4):
            assert client.read("db", f"r{i}") == fresh

        report = client.check_invariants()
        assert report.ok, report.summary()

    def test_maintenance_cpu_is_charged(self):
        client = tiered_client(TIERED_TIGHT)
        for op in dedup_friendly_ops():
            client.cluster.execute(op)
        client.finalize()
        engine = client.cluster.primary.engine
        index = engine.index_for("db")
        assert index.demotions > 0
        assert engine.index_maintenance_cpu_seconds > 0.0
        # Fully drained into the ledger: nothing left pending.
        assert index.maintenance_bytes == 0


class TestTieredRebuild:
    def test_restart_rebuilds_both_tiers(self):
        client = tiered_client(TIERED_TIGHT)
        for op in dedup_friendly_ops():
            client.cluster.execute(op)
        client.finalize()
        primary = client.cluster.primary
        cpu_before = primary.background_cpu_seconds

        primary.restart()

        index = primary.engine.index_for("db")
        assert index.hot_bytes <= index.hot_bytes_budget
        assert len(index) > 0
        assert index.record_ids() <= set(primary.db.records)
        # Rebuild demotions are background CPU on the node's own ledger.
        assert index.demotions > 0
        assert primary.background_cpu_seconds > cpu_before

        for op in dedup_friendly_ops():
            assert client.read(op.database, op.record_id) == op.content
        assert client.check_invariants().ok

    def test_failover_promotes_with_coherent_tiered_index(self):
        client = tiered_client(TIERED_TIGHT, num_secondaries=2,
                               oplog_batch_bytes=1)
        cluster = client.cluster
        ops = dedup_friendly_ops()
        FaultPlan(
            seed=SEED,
            rules=[CrashNode(node="primary", after_appends=len(ops) // 2,
                             restart=False)],
        ).install(cluster)

        old_primary = cluster.primary
        for op in ops:
            cluster.execute(op)
        assert cluster.failover.failovers >= 1
        assert cluster.primary is not old_primary
        client.finalize()

        for op in ops:
            assert client.read(op.database, op.record_id) == op.content

        index = cluster.primary.engine.index_for("db")
        assert index.hot_bytes <= index.hot_bytes_budget
        assert index.record_ids() <= set(cluster.primary.db.records)
        assert check_reconciliation(
            metrics_document(cluster.registry)
        ) == []
        assert client.check_invariants(strict=False).ok


@pytest.mark.parametrize("shards", [1, 2])
def test_sharded_tiered_round_trip(shards):
    client = tiered_client(shards=shards)
    workload = make_workload("enron", seed=SEED, target_bytes=200_000)
    client.run(workload.insert_trace())
    client.finalize()
    assert check_reconciliation(
        metrics_document(
            client.cluster.registry
            if shards == 1
            else client.cluster.shards[0].registry
        )
    ) == []
    assert client.check_invariants().ok
    assert client.replicas_converged()

"""GC chaos: crashes, corrupt reads, and failover mid-garbage-collection.

Each scenario builds a dedup-heavy cluster, deletes still-referenced
records so real tombstone cohorts exist, then injects a seeded fault at
the worst point of the GC batch lifecycle:

* a crash after apply but before post-validation (GC never touches the
  oplog, so replay must land on the exact pre-GC logical state);
* sticky corrupt page reads while the collector re-encodes dependents
  (corrupt cohorts are skipped or rolled back, never half-applied);
* a primary kill mid-workload, with GC and the rebuilt audit trail
  running on the promoted secondary (the check-metrics reconciliation
  identity must survive the failover rebuild);
* a deterministic post-validation failure, proving a bad batch rolls
  back to byte-identical state and a clean retry then succeeds.

Failing fault plans land in ``chaos-artifacts/`` via ``record_fault_plan``.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.api import ClusterSpec, open_cluster
from repro.core.config import DedupConfig
from repro.core.gc import (
    OUTCOME_APPLIED,
    OUTCOME_NOOP,
    OUTCOME_ROLLED_BACK,
)
from repro.db.invariants import check_database
from repro.obs.export import check_reconciliation, metrics_document
from repro.sim.faults import CorruptPageReads, CrashNode, FaultPlan
from repro.workloads.base import Operation

BASE_SEEDS = (101, 202, 303)

SEEDS = BASE_SEEDS + (
    (int(os.environ["CHAOS_SEED"]) % 1_000_000,)
    if os.environ.get("CHAOS_SEED")
    else ()
)


def insert_trace(seed: int, count: int = 96) -> list[Operation]:
    """Similar records (a mutated shared base) across many entities."""
    rng = random.Random(seed)
    base = bytes(rng.randrange(256) for _ in range(700))
    ops = []
    for index in range(count):
        mutated = bytearray(base)
        for _ in range(6):
            mutated[rng.randrange(len(mutated))] = rng.randrange(256)
        ops.append(
            Operation(
                "insert", "db", f"e/{index // 4}/{index % 4}", bytes(mutated)
            )
        )
    return ops


def make_client(**overrides):
    defaults = dict(
        dedup=DedupConfig(chunk_size=64, size_filter_enabled=False),
        oplog_batch_bytes=4096,
    )
    defaults.update(overrides)
    return open_cluster(ClusterSpec(**defaults))


def delete_referenced(client, seed: int, limit: int = 6) -> list[str]:
    """Delete live records other records decode from → real tombstones."""
    primary = client.cluster.primary
    rng = random.Random(seed)
    victims = [
        record_id
        for record_id, record in primary.db.records.items()
        if record.ref_count > 0 and not record.deleted
    ]
    rng.shuffle(victims)
    victims = victims[:limit]
    for record_id in victims:
        client.cluster.execute(Operation("delete", "db", record_id))
    return victims


def expected_contents(trace, deleted) -> dict[str, bytes]:
    model = {op.record_id: op.content for op in trace}
    for record_id in deleted:
        model.pop(record_id, None)
    return model


def assert_reads_match(cluster, model) -> None:
    for record_id, expected in model.items():
        content, _ = cluster.read("db", record_id)
        assert content == expected


@pytest.mark.parametrize("seed", SEEDS)
def test_crash_mid_gc_batch_replays_to_pre_gc_state(seed, record_fault_plan):
    client = make_client()
    trace = insert_trace(seed)
    client.run(trace)
    deleted = delete_referenced(client, seed)
    model = expected_contents(trace, deleted)
    primary = client.cluster.primary
    plan = primary.gc.plan()
    assert plan.reroots, "trace must produce collectable tombstones"

    # Power loss after apply, before post-validation: the batch is
    # half-done in memory, and nothing about it ever reached the oplog.
    def power_loss(db, prepared):
        raise RuntimeError("simulated crash mid-GC batch")

    primary.gc.on_post_validate = power_loss
    with pytest.raises(RuntimeError):
        primary.collect_garbage()

    primary.crash()
    primary.restart()
    assert_reads_match(client.cluster, model)
    assert check_database(primary.db).ok
    audit = primary.engine.audit
    assert len(audit) > 0
    assert all(entry.rebuilt for entry in audit.entries)
    assert check_reconciliation(
        metrics_document(client.cluster.registry)
    ) == []


@pytest.mark.parametrize("seed", SEEDS)
def test_corrupt_page_reads_during_gc_migration(seed, record_fault_plan):
    client = make_client()
    plan = record_fault_plan(
        FaultPlan(
            seed=seed,
            rules=[CorruptPageReads(probability=0.15, sticky=True)],
        )
    )
    plan.install(client.cluster)
    trace = insert_trace(seed)
    client.run(trace)
    deleted = delete_referenced(client, seed)
    model = expected_contents(trace, deleted)

    # Collect while reads are lying: corrupt cohorts are skipped at
    # dry-run (decode fails) or rolled back at post-validation; either
    # way the batch never half-applies.
    primary = client.cluster.primary
    for _ in range(3):
        report = primary.collect_garbage()
        assert report.outcome in (
            OUTCOME_APPLIED, OUTCOME_ROLLED_BACK, OUTCOME_NOOP
        )

    # The cluster read path repairs sticky corruption; after the sweep
    # every surviving record is byte-exact again.
    report = client.check_invariants(strict=False)
    assert report.ok, report.summary()
    plan.suspend()
    assert_reads_match(client.cluster, model)


@pytest.mark.parametrize("seed", SEEDS)
def test_failover_mid_gc_rebuilds_audit_and_reconciles(
    seed, record_fault_plan
):
    client = make_client(num_secondaries=2)
    plan = record_fault_plan(
        FaultPlan(
            seed=seed,
            rules=[CrashNode(node="primary", after_appends=60, restart=False)],
        )
    )
    plan.install(client.cluster)
    trace = insert_trace(seed, count=120)
    client.run(trace)
    assert client.cluster.failover.failovers == 1

    # Inserts in the unreplicated oplog suffix at the crash are legally
    # rolled back by the promotion (the lost-write window); the model is
    # what actually survived the failover — GC must lose nothing more.
    model = {}
    for op in trace:
        content, _ = client.cluster.read("db", op.record_id)
        if content is not None:
            assert content == op.content
            model[op.record_id] = content
    assert len(model) > len(trace) // 2

    # The promoted secondary owns a fresh collector and an audit trail
    # rebuilt from the surviving oplog; GC keeps working after failover.
    primary = client.cluster.primary
    for record_id in delete_referenced(client, seed):
        model.pop(record_id, None)
    primary.collect_garbage()
    audit = primary.engine.audit
    assert len(audit) > 0
    assert any(entry.rebuilt for entry in audit.entries)

    assert_reads_match(client.cluster, model)
    report = client.check_invariants(strict=False)
    assert report.ok, report.summary()
    # The audit counters live on the cluster registry and span engine
    # generations: the savings identity must hold post-failover.
    assert check_reconciliation(
        metrics_document(client.cluster.registry)
    ) == []


@pytest.mark.parametrize("seed", SEEDS)
def test_failed_gc_batch_rolls_back_cleanly(seed, record_fault_plan):
    client = make_client()
    trace = insert_trace(seed)
    client.run(trace)
    deleted = delete_referenced(client, seed)
    model = expected_contents(trace, deleted)
    primary = client.cluster.primary
    gc = primary.gc

    # Corrupt an applied dependent between apply and post-validation:
    # validation must catch it and roll the whole batch back.
    def corrupt_applied(db, prepared):
        victim = prepared[0].dependents[0].record_id
        record = db.records[victim]
        record.payload = b"\xff" + record.payload

    gc.on_post_validate = corrupt_applied
    report = primary.collect_garbage()
    assert report.outcome == OUTCOME_ROLLED_BACK
    assert report.violations
    assert gc.batches[OUTCOME_ROLLED_BACK] == 1
    # Verify through the pure decode path: client reads (and the full
    # invariant sweep) would trigger the inline §4.1 splice and collect
    # the tombstones themselves, leaving nothing for the retry to prove.
    for record_id, expected in model.items():
        assert primary.db.decode_stored_content(record_id) == expected

    # A clean retry of the identical plan applies.
    gc.on_post_validate = None
    report = primary.collect_garbage()
    assert report.outcome == OUTCOME_APPLIED
    assert report.tombstones_removed > 0
    assert_reads_match(client.cluster, model)
    assert check_database(primary.db).ok
    assert check_reconciliation(
        metrics_document(client.cluster.registry)
    ) == []


@pytest.mark.parametrize("seed", SEEDS)
def test_unrelated_quarantined_record_does_not_roll_back_gc(seed):
    client = make_client()
    trace = insert_trace(seed)
    client.run(trace)
    delete_referenced(client, seed)
    primary = client.cluster.primary
    db = primary.db
    involved = set()
    for action in primary.gc.plan().reroots:
        involved.update((action.tombstone_id, action.grandbase_id))
        involved.update(action.dependent_ids)
    # A record in no cohort that nothing decodes through: only the
    # store-wide invariant sweep can see its corruption.
    bystander = next(
        record_id
        for record_id, record in sorted(db.records.items())
        if record_id not in involved and record.ref_count == 0
    )
    record = db.records[bystander]
    record.payload = bytes([record.payload[0] ^ 0xFF]) + record.payload[1:]
    assert db.verify_checksums() == [bystander]

    report = primary.collect_garbage()
    assert report.outcome == OUTCOME_APPLIED, report.violations
    assert report.tombstones_removed > 0
    # Still quarantined: repair, not GC, owns it.
    assert bystander in db.quarantine

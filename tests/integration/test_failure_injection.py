"""Seeded fault injection: every fault class, every seed, zero data loss.

The chaos matrix drives a mixed CRUD trace through a cluster with a
:class:`~repro.sim.faults.FaultPlan` installed — dropped replication
batches, transient I/O errors, corrupt page reads (transient and sticky)
and node crashes — and ends every run the same way: a strict
:func:`~repro.db.invariants.check_cluster` sweep. Faults may cost
compression or latency; they must never cost bytes.

Seeds come from ``BASE_SEEDS`` plus an optional ``CHAOS_SEED``
environment variable — CI rolls a fresh one per run and uploads the
failing plan's repr as an artifact (see ``conftest.py``).
"""

from __future__ import annotations

import os
import random

import pytest

from repro.core.config import DedupConfig
from repro.api import ClusterSpec, open_cluster
from repro.db.invariants import check_cluster
from repro.sim.faults import (
    CorruptPageReads,
    CrashNode,
    DropBatches,
    FaultPlan,
    TransientIOErrors,
)
from repro.workloads.base import Operation

BASE_SEEDS = (101, 202, 303, 404, 505)

#: CI exports CHAOS_SEED=$GITHUB_RUN_ID so every run also rolls a fresh
#: seed; a failure reproduces from the uploaded plan artifact.
SEEDS = BASE_SEEDS + (
    (int(os.environ["CHAOS_SEED"]) % 1_000_000,)
    if os.environ.get("CHAOS_SEED")
    else ()
)

SCENARIOS = {
    "drop": [DropBatches(every=3), DropBatches(probability=0.2)],
    "transient": [TransientIOErrors(probability=0.05)],
    "corrupt": [
        CorruptPageReads(probability=0.04, sticky=True),
        CorruptPageReads(probability=0.04, sticky=False),
    ],
    "crash": [
        CrashNode(node="primary", after_appends=50),
        CrashNode(node="secondary", after_appends=90),
    ],
}


def make_cluster():
    return open_cluster(
        ClusterSpec(
            dedup=DedupConfig(chunk_size=64, size_filter_enabled=False),
            oplog_batch_bytes=4096,
        )
    ).cluster


def mixed_trace(seed: int, inserts: int = 110) -> list[Operation]:
    """Similar-record inserts interleaved with reads, updates, deletes."""
    rng = random.Random(seed)
    base = bytes(rng.randrange(256) for _ in range(700))
    ops = []
    live: list[str] = []
    for index in range(inserts):
        content = bytearray(base)
        for _ in range(rng.randrange(1, 24)):
            content[rng.randrange(len(content))] = rng.randrange(256)
        record_id = f"r{index}"
        ops.append(Operation("insert", "chaos", record_id, bytes(content)))
        live.append(record_id)
        if index % 6 == 4:
            ops.append(Operation("read", "chaos", rng.choice(live)))
        if index % 9 == 7:
            ops.append(
                Operation(
                    "update", "chaos", rng.choice(live), bytes(content[::-1])
                )
            )
        if index % 31 == 29 and len(live) > 1:
            victim = live.pop(rng.randrange(len(live)))
            ops.append(Operation("delete", "chaos", victim))
    return ops


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_seeded_faults_preserve_all_invariants(
    scenario, seed, record_fault_plan
):
    cluster = make_cluster()
    plan = record_fault_plan(FaultPlan(seed=seed, rules=SCENARIOS[scenario]))
    plan.install(cluster)
    cluster.run(mixed_trace(seed))
    report = check_cluster(cluster)  # strict: raises on any violation
    assert report.ok
    assert report.nodes_checked == 2
    assert report.oplog_checked or cluster.primary.oplog.truncated_before > 0


@pytest.mark.parametrize("seed", BASE_SEEDS)
def test_all_fault_classes_at_once(seed, record_fault_plan):
    cluster = make_cluster()
    plan = record_fault_plan(
        FaultPlan(
            seed=seed,
            rules=[
                DropBatches(probability=0.25),
                TransientIOErrors(probability=0.03),
                CorruptPageReads(probability=0.02, sticky=True),
                CrashNode(node="secondary", after_appends=60),
            ],
        )
    )
    plan.install(cluster)
    cluster.run(mixed_trace(seed))
    assert check_cluster(cluster).ok


def test_fault_plans_are_deterministic():
    """Same seed + rules ⇒ identical injections, byte-identical cluster."""

    def run(seed):
        cluster = make_cluster()
        plan = FaultPlan(
            seed=seed,
            rules=[
                DropBatches(probability=0.3),
                TransientIOErrors(probability=0.05),
                CorruptPageReads(probability=0.03, sticky=True),
            ],
        )
        plan.install(cluster)
        cluster.run(mixed_trace(7))
        return plan, cluster

    plan_a, cluster_a = run(42)
    plan_b, cluster_b = run(42)
    assert plan_a.events == plan_b.events
    assert repr(plan_a) == repr(plan_b)
    assert cluster_a.network.bytes_delivered == cluster_b.network.bytes_delivered
    for cluster in (cluster_a, cluster_b):
        cluster.fault_plan.suspend()
        cluster.scrub()  # repair any still-quarantined sticky corruption
    contents_a = {
        record_id: cluster_a.read("chaos", record_id)[0]
        for record_id in cluster_a.primary.db.records
    }
    contents_b = {
        record_id: cluster_b.read("chaos", record_id)[0]
        for record_id in cluster_b.primary.db.records
    }
    assert contents_a == contents_b


def test_plan_repr_reproduces_the_run():
    """The CI artifact (repr) evals back into an equivalent plan."""
    plan = FaultPlan(
        seed=99,
        rules=[DropBatches(every=4, limit=3), CrashNode(after_appends=30)],
    )
    rebuilt = eval(  # noqa: S307 - round-tripping our own repr
        repr(plan),
        {
            "FaultPlan": FaultPlan,
            "DropBatches": DropBatches,
            "CrashNode": CrashNode,
        },
    )
    assert rebuilt.seed == plan.seed
    assert rebuilt.rules == plan.rules


def test_dropped_batches_are_resent_not_lost(record_fault_plan):
    cluster = make_cluster()
    plan = record_fault_plan(
        FaultPlan(seed=5, rules=[DropBatches(every=2, limit=6)])
    )
    plan.install(cluster)
    cluster.run(mixed_trace(5))
    assert plan.injected > 0
    assert cluster.link.delivery_failures == plan.injected
    # Every batch eventually landed: the cursor reached the oplog head.
    assert cluster.link.cursor == cluster.primary.oplog.next_seq
    assert check_cluster(cluster).ok


def test_sticky_corruption_is_quarantined_and_repaired(record_fault_plan):
    cluster = make_cluster()
    plan = record_fault_plan(
        FaultPlan(
            seed=11,
            rules=[CorruptPageReads(probability=0.2, sticky=True, limit=8)],
        )
    )
    plan.install(cluster)
    cluster.run(mixed_trace(11))
    plan.suspend()
    corrupted = sum(
        1 for event in plan.events if event.startswith("corrupt")
    )
    assert corrupted > 0
    report = check_cluster(cluster)  # scrubs + repairs before checking
    assert report.ok
    assert (
        not cluster.primary.db.quarantine
        and not cluster.secondary.db.quarantine
    )


def test_transient_corruption_self_heals_without_repair(record_fault_plan):
    cluster = make_cluster()
    plan = record_fault_plan(
        FaultPlan(
            seed=13,
            rules=[CorruptPageReads(probability=0.3, sticky=False, limit=10)],
        )
    )
    plan.install(cluster)
    cluster.run(mixed_trace(13))
    db = cluster.primary.db
    assert plan.injected > 0
    # Checksum verification caught every flip; the re-read healed it.
    total = db.corrupt_reads_detected + cluster.secondary.db.corrupt_reads_detected
    recovered = (
        db.corrupt_reads_recovered + cluster.secondary.db.corrupt_reads_recovered
    )
    assert total == recovered > 0
    assert cluster.repairs == 0
    assert check_cluster(cluster).ok


def test_crash_recovery_restores_contents(record_fault_plan):
    cluster = make_cluster()
    plan = record_fault_plan(
        FaultPlan(seed=17, rules=[CrashNode(node="primary", after_appends=40)])
    )
    plan.install(cluster)
    ops = mixed_trace(17)
    expected = {}
    for op in ops:
        cluster.execute(op)
        if op.kind in ("insert", "update"):
            expected[op.record_id] = op.content
        elif op.kind == "delete":
            expected.pop(op.record_id, None)
    assert cluster.primary.crashes == 1
    plan.suspend()
    for record_id, content in expected.items():
        actual, _ = cluster.read("chaos", record_id)
        assert actual == content
    assert check_cluster(cluster).ok


def test_transient_io_errors_cost_latency_not_data(record_fault_plan):
    cluster = make_cluster()
    plan = record_fault_plan(
        FaultPlan(seed=23, rules=[TransientIOErrors(probability=0.15)])
    )
    plan.install(cluster)
    cluster.run(mixed_trace(23, inserts=60))
    retries = (
        cluster.primary.db.io_retries + cluster.secondary.db.io_retries
    )
    assert retries > 0
    assert check_cluster(cluster).ok

"""Failover chaos: kill nodes mid-workload, demand automatic recovery.

Every scenario drives a similar-record insert trace through a deployment
built with the public API, arms a seeded :class:`CrashNode` rule with
``restart=False`` — the node stays dead until the failover machinery
acts — and requires the run to complete *without manual intervention*,
end in a strict invariant sweep (including the single-primary and
rollback-completeness checks), and leave every replica byte-converged.

Each test writes the failover event log under the chaos artifact
directory; CI uploads those unconditionally, so promotion latencies and
rollback windows from every seeded run are inspectable after the fact.
"""

from __future__ import annotations

import os
import random
import re
from pathlib import Path

import pytest

from repro.api import ClusterSpec, open_cluster
from repro.core.config import DedupConfig
from repro.obs.export import check_metrics_payload, metrics_document
from repro.sim.faults import CrashNode, FaultPlan
from repro.workloads.base import Operation

BASE_SEEDS = (101, 202, 303)

#: CI exports CHAOS_SEED=$GITHUB_RUN_ID so every run also rolls a fresh
#: seed; a failure reproduces from the uploaded plan artifact.
SEEDS = BASE_SEEDS + (
    (int(os.environ["CHAOS_SEED"]) % 1_000_000,)
    if os.environ.get("CHAOS_SEED")
    else ()
)

ARTIFACT_DIR = Path(os.environ.get("CHAOS_ARTIFACT_DIR", "chaos-artifacts"))


def insert_trace(seed: int, count: int = 120) -> list[Operation]:
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
        num_secondaries=2,
        oplog_batch_bytes=4096,
    )
    defaults.update(overrides)
    return open_cluster(ClusterSpec(**defaults))


def dump_event_log(test_name: str, seed: int, *clusters) -> None:
    """Write the failover event log(s) as a CI artifact (always kept)."""
    ARTIFACT_DIR.mkdir(parents=True, exist_ok=True)
    safe = re.sub(r"[^A-Za-z0-9_.-]+", "_", f"failover-events-{test_name}-{seed}")
    lines = []
    for index, cluster in enumerate(clusters):
        if len(clusters) > 1:
            lines.append(f"# shard {index}")
        lines.append(cluster.failover.event_log() or "(no failover events)")
    (ARTIFACT_DIR / f"{safe}.log").write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("seed", SEEDS)
def test_primary_kill_completes_without_intervention(seed, record_fault_plan):
    client = make_client()
    plan = record_fault_plan(
        FaultPlan(
            seed=seed,
            rules=[CrashNode(node="primary", after_appends=60, restart=False)],
        )
    )
    plan.install(client.cluster)
    run = client.run(insert_trace(seed))
    failover = client.cluster.failover
    dump_event_log("primary-kill", seed, client.cluster)
    assert run.operations == 120
    assert failover.failovers == 1
    assert failover.last_time_to_promote_s is not None
    report = client.check_invariants(strict=False)
    assert report.ok, report.summary()
    # The demoted old primary rejoined as a replica and byte-converged.
    assert "primary" in [s.node_name for s in client.cluster.secondaries]
    assert client.replicas_converged()


@pytest.mark.parametrize("seed", SEEDS)
def test_rejoin_rollback_discards_unreplicated_suffix(seed, record_fault_plan):
    # The default shipping threshold leaves a real unreplicated suffix
    # at the crash: the rejoin must roll it back (lost-write window).
    client = make_client(oplog_batch_bytes=ClusterSpec().oplog_batch_bytes)
    plan = record_fault_plan(
        FaultPlan(
            seed=seed,
            rules=[CrashNode(node="primary", after_appends=60, restart=False)],
        )
    )
    plan.install(client.cluster)
    client.run(insert_trace(seed))
    failover = client.cluster.failover
    dump_event_log("rejoin-rollback", seed, client.cluster)
    assert failover.failovers == 1
    assert failover.rollback_entries > 0
    assert "rejoin" in {event.kind for event in failover.events}
    report = client.check_invariants(strict=False)
    assert report.ok, report.summary()
    assert client.replicas_converged()


@pytest.mark.parametrize("seed", SEEDS)
def test_secondary_kill_supervised_restart(seed, record_fault_plan):
    # Per-entry shipping so the replica's oplog (the crash trigger)
    # advances during the run, not only at finalize.
    client = make_client(oplog_batch_bytes=1)
    plan = record_fault_plan(
        FaultPlan(
            seed=seed,
            rules=[
                CrashNode(node="secondary:1", after_appends=40, restart=False)
            ],
        )
    )
    plan.install(client.cluster)
    client.run(insert_trace(seed))
    failover = client.cluster.failover
    dump_event_log("secondary-kill", seed, client.cluster)
    assert failover.failovers == 0
    assert failover.supervised_restarts >= 1
    report = client.check_invariants(strict=False)
    assert report.ok, report.summary()
    assert client.replicas_converged()


@pytest.mark.parametrize("seed", SEEDS)
def test_sharded_cluster_fails_over_per_shard(seed, record_fault_plan):
    client = make_client(shards=2, num_secondaries=2)
    plan = record_fault_plan(
        FaultPlan(
            seed=seed,
            rules=[CrashNode(node="primary", after_appends=25, restart=False)],
        )
    )
    plan.install(client.cluster.shards[0])
    client.run(insert_trace(seed))
    shards = client.cluster.shards
    dump_event_log("sharded-kill", seed, *shards)
    assert shards[0].failover.failovers == 1
    assert shards[1].failover.failovers == 0
    report = client.check_invariants(strict=False)
    assert report.ok, report.summary()
    assert client.replicas_converged()


def test_failover_metrics_export_and_reconcile(record_fault_plan):
    """The new counters land in ``repro.metrics/v1`` and reconcile."""
    client = make_client()
    plan = record_fault_plan(
        FaultPlan(
            seed=7,
            rules=[CrashNode(node="primary", after_appends=60, restart=False)],
        )
    )
    plan.install(client.cluster)
    client.run(insert_trace(7))
    document = metrics_document(client.cluster.registry)
    assert check_metrics_payload(document) == []
    metrics = document["metrics"]
    for name in (
        "failovers_total",
        "rollback_entries_total",
        "resync_bytes_total",
        "oplog_appends_total",
    ):
        assert name in metrics, name
    failovers = metrics["failovers_total"]["values"][0]["value"]
    assert failovers == 1
    rolled_back = metrics["rollback_entries_total"]["values"][0]["value"]
    appends = sum(
        row["value"] for row in metrics["oplog_appends_total"]["values"]
    )
    assert rolled_back > 0
    assert rolled_back <= appends

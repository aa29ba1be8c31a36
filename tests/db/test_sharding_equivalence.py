"""Property: a one-shard ShardedCluster IS the unsharded cluster.

The sharding layer promises that with ``shards=1`` every path — routing,
batch splitting, idle slicing, run accounting — degenerates to the plain
:class:`~repro.db.cluster.Cluster` behavior byte-for-byte. Hypothesis
drives both topologies with the same seeded workload and demands
identical run results, identical summary stats, and identical metrics
snapshots (modulo the ``shard`` label and the router's own families).

Both topologies also expose one ``shards`` view — a plain cluster is its
own one shard — so the invariant checker and the client's per-shard
reports take one code path whichever class they are handed.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ClusterSpec, DedupClient, IndexSpec, open_cluster
from repro.core.config import DedupConfig
from repro.db.invariants import check_cluster
from repro.db.sharding import ShardedCluster
from repro.workloads import make_workload

WORKLOADS = ("wikipedia", "enron")

#: Index variants the property must hold for: the default cuckoo index
#: and a budget-squeezed tiered index whose demote/promote churn must
#: stay deterministic across topologies.
INDEX_SPECS = (
    IndexSpec(),
    IndexSpec(hot_bytes_budget=1024, promotion_hits=2),
)


def strip_shard_dimension(snapshot: dict) -> dict:
    """Remove the shard label and router families from a merged snapshot."""
    stripped = {}
    for name, family in snapshot.items():
        if name.startswith("router_"):
            continue
        family = dict(family)
        family["labels"] = [
            label for label in family["labels"] if label != "shard"
        ]
        family["values"] = [
            {
                **row,
                "labels": {
                    key: value
                    for key, value in row["labels"].items()
                    if key != "shard"
                },
            }
            for row in family["values"]
        ]
        stripped[name] = family
    return stripped


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    workload_name=st.sampled_from(WORKLOADS),
    batch_size=st.sampled_from((1, 3, 8)),
    trace_kind=st.sampled_from(("insert", "mixed")),
    index_spec=st.sampled_from(INDEX_SPECS),
)
def test_one_shard_topology_is_byte_identical(
    seed, workload_name, batch_size, trace_kind, index_spec
):
    spec = ClusterSpec(
        dedup=DedupConfig(index=index_spec), insert_batch_size=batch_size
    )
    plain = open_cluster(spec).cluster
    sharded = ShardedCluster(dataclasses.replace(spec, shards=1))

    def trace():
        workload = make_workload(
            workload_name, seed=seed, target_bytes=40_000
        )
        return (
            workload.insert_trace()
            if trace_kind == "insert"
            else workload.mixed_trace()
        )

    plain_result = plain.run(trace())
    sharded_result = sharded.run(trace())

    assert sharded_result == plain_result
    assert sharded.clock.now == plain.clock.now

    plain_stats = plain.summary_stats()
    sharded_stats = sharded.summary_stats()
    for key, value in plain_stats.items():
        assert sharded_stats[key] == value, key

    assert strip_shard_dimension(sharded.metrics_snapshot()) == (
        plain.registry.snapshot()
    )

    assert sharded.replicas_converged() == plain.replicas_converged()
    assert sharded.router.cross_shard_misses == 0


def test_plain_cluster_is_its_own_one_shard():
    cluster = open_cluster(ClusterSpec()).cluster
    assert cluster.shards == (cluster,)
    assert DedupClient(cluster).shards == 1


def test_check_cluster_takes_a_sharded_topology():
    cluster = open_cluster(ClusterSpec(shards=2)).cluster
    cluster.run(make_workload("wikipedia", seed=9, target_bytes=40_000)
                .insert_trace())
    clean = check_cluster(cluster)
    assert clean.ok and clean.nodes_checked == 4
    # Teleport one record onto the shard the router does not own it on.
    victim = next(iter(cluster.shards[0].primary.db.records))
    wrong = 1 - cluster.router.shard_of(victim)
    cluster.shards[wrong].primary.insert("wiki", victim, b"smuggled")
    report = check_cluster(cluster, strict=False)
    placement = [v for v in report.violations if v.check == "placement"]
    assert placement
    assert all(v.node.startswith(f"shard{wrong}/") for v in placement)


@pytest.mark.parametrize(
    "call",
    [
        lambda client: client.drain_deferred(),
        lambda client: client.audit_report(limit=20),
        lambda client: client.admission_report(),
        lambda client: client.index_report(),
    ],
    ids=["drain_deferred", "audit_report", "admission_report", "index_report"],
)
def test_per_shard_reports_match_for_one_shard(call):
    # An unreachable inline bar defers every record past the first
    # window, so the drain has a queue to work through.
    spec = ClusterSpec(dedup=DedupConfig(
        chunk_size=64,
        governor_window=8,
        admission_mode="hybrid",
        admission_inline_threshold=100.0,
        index=INDEX_SPECS[1],
    ))
    clients = (
        open_cluster(spec),
        DedupClient(ShardedCluster(dataclasses.replace(spec, shards=1))),
    )
    for client in clients:
        for name in WORKLOADS:
            workload = make_workload(name, seed=5, target_bytes=150_000)
            for op in workload.insert_trace():
                client.insert(op.database, op.record_id, op.content)
    plain, sharded = (call(client) for client in clients)
    assert plain
    assert sharded == plain

"""Property: a one-shard ShardedCluster IS the unsharded cluster.

The sharding layer promises that with ``shards=1`` every path — routing,
batch splitting, idle slicing, run accounting — degenerates to the plain
:class:`~repro.db.cluster.Cluster` behavior byte-for-byte. Hypothesis
drives both topologies with the same seeded workload and demands
identical run results, identical summary stats, and identical metrics
snapshots (modulo the ``shard`` label and the router's own families).
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ClusterSpec, IndexSpec, open_cluster
from repro.core.config import DedupConfig
from repro.db.sharding import ShardedCluster
from repro.workloads import make_workload

WORKLOADS = ("wikipedia", "enron")

#: Index variants the property must hold for: the default cuckoo index
#: and a budget-squeezed tiered index whose demote/promote churn must
#: stay deterministic across topologies.
INDEX_SPECS = (
    IndexSpec(),
    IndexSpec(kind="tiered", hot_bytes_budget=1024, promotion_hits=2),
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

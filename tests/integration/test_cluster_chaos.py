"""Cluster-level chaos: random CRUD interleavings under seeded faults.

Hypothesis generates arbitrary interleavings of inserts (fresh or derived
from a previous record), updates, deletes and reads across two logical
databases — and pairs each interleaving with a :class:`FaultPlan` drawn
from the same example: dropped replication batches, transient I/O
errors, sticky page corruption, node crashes, or nothing at all. Every
example ends in a strict :func:`check_cluster` sweep on top of the
byte-level model comparison.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.workloads.edits import revise
from repro.workloads.text import TextGenerator

step = st.tuples(
    st.sampled_from(["fresh", "derive", "update", "delete", "read"]),
    st.integers(0, 9),
    st.integers(0, 9),
    st.sampled_from(["alpha", "beta"]),
)

FAULT_RULES = {
    "none": [],
    "drop": [DropBatches(probability=0.4)],
    "transient": [TransientIOErrors(probability=0.05)],
    "corrupt": [CorruptPageReads(probability=0.05, sticky=True)],
    "crash": [CrashNode(node="primary", after_appends=10)],
}


@settings(max_examples=20, deadline=None)
@given(
    steps=st.lists(step, min_size=5, max_size=35),
    fault_seed=st.integers(0, 2**16),
    scenario=st.sampled_from(sorted(FAULT_RULES)),
)
def test_random_crud_under_faults_preserves_invariants(
    steps, fault_seed, scenario
):
    cluster = open_cluster(
        ClusterSpec(
            dedup=DedupConfig(chunk_size=64, size_filter_enabled=False),
            oplog_batch_bytes=4096,
        )
    ).cluster
    plan = FaultPlan(seed=fault_seed, rules=FAULT_RULES[scenario])
    plan.install(cluster)
    rng = random.Random(1234)
    text_gen = TextGenerator(seed=1234)
    visible: dict[str, bytes] = {}  # record_id -> expected content
    used_ids: set[str] = set()

    for kind, a, b, database in steps:
        record_id = f"{database}/r{a}"
        if kind in ("fresh", "derive"):
            if record_id in used_ids:
                continue  # ids are never reused
            if kind == "derive" and visible:
                base = visible[rng.choice(sorted(visible))]
                content = revise(
                    rng, text_gen, base.decode(errors="replace"), num_edits=2
                ).encode()
            else:
                content = text_gen.document(1500 + 100 * b).encode()
            cluster.execute(Operation("insert", database, record_id, content))
            visible[record_id] = content
            used_ids.add(record_id)
        elif kind == "update" and record_id in visible:
            content = text_gen.document(800).encode()
            cluster.execute(Operation("update", database, record_id, content))
            visible[record_id] = content
        elif kind == "delete" and record_id in visible:
            cluster.execute(Operation("delete", database, record_id))
            del visible[record_id]
        elif kind == "read":
            target = f"{database}/r{b}"
            # Reads route through the cluster's repair path, so even a
            # sticky-corrupted record must come back byte-exact.
            content, _ = cluster.read(database, target)
            assert content == visible.get(target)

    # Model comparison with faults still live: reads self-heal.
    for record_id, expected in visible.items():
        database = record_id.split("/")[0]
        content, _ = cluster.read(database, record_id)
        assert content == expected

    # The full invariant sweep drains replication, scrubs corruption,
    # and raises with the failing report (the plan repr reproduces it).
    report = check_cluster(cluster)
    assert report.ok

    # After the sweep, the secondary serves the same bytes directly.
    # (Direct db reads bypass the repair path: suspend injection first.)
    plan.suspend()
    for record_id, expected in visible.items():
        database = record_id.split("/")[0]
        content, _ = cluster.secondary.db.read(database, record_id)
        assert content == expected

"""Hash-sharded multi-primary topology: N independent clusters, one client.

The paper's dbDedup runs one engine per primary; scaling the reproduction
to production-size corpora means partitioning the feature index and the
encoding chains the way HPDedup partitions dedup streams by locality and
LSHBloom bounds per-partition index memory. This module adds that axis
without touching the single-primary machinery: a :class:`ShardedCluster`
owns N full :class:`~repro.db.cluster.Cluster` shards — each with its own
:class:`~repro.core.engine.DedupEngine`, cuckoo index partition, oplog,
replication link(s) and secondaries — all driven on one shared
:class:`~repro.sim.clock.SimClock`.

Routing is pluggable through :class:`ShardRouter`:

* ``hash`` — uniform placement by MurmurHash3 of the full record id.
  Balanced, but versions of one entity scatter across shards, so the
  per-shard engines never see each other's similar records;
* ``prefix`` — locality-preserving placement by the record id's entity
  prefix (``wiki/7/41 → wiki/7``), so revision chains stay on one shard
  and cross-shard dedup loss collapses to zero at the cost of balance.

The router *measures* that trade-off: every insert whose entity already
has records on a different shard increments ``cross_shard_misses`` — the
dedup opportunities a sharded deployment forfeits — and the shard-scaling
experiment (``repro experiment shard-scaling``) turns the counter plus
the per-shard compression ratios into a dedup-ratio-vs-shard-count curve.

Batch execution splits each client batch into per-shard sub-batches that
run concurrently in simulated time (the shared clock advances once, by
the slowest shard's latency). With ``shards=1`` every path delegates to
the underlying cluster unchanged, which is what the byte-equivalence
property test in ``tests/db/test_sharding_equivalence.py`` pins down.

Callers never need to tell the two topologies apart: both expose
``shards`` (a plain :class:`~repro.db.cluster.Cluster` is its own one
shard), so per-shard work — the run loop's samplers, idle slicing,
:func:`~repro.db.invariants.check_cluster`, a fault plan installed with
``plan.install(cluster.shards[i])`` — is one loop over that tuple.
"""

from __future__ import annotations

from typing import Iterable

from repro.db.cluster import Cluster, RunResult, captured_spec, idle, run_trace
from repro.db.spec import PLACEMENTS, ClusterSpec
from repro.hashing.murmur import murmur3_32
from repro.obs import MetricsRegistry, Tracer
from repro.obs import runtime as obs_runtime
from repro.sim.clock import SimClock
from repro.workloads.base import Operation

#: Seed of the routing hash — fixed so placement is stable across runs
#: and across processes (record ids must not migrate between shards).
ROUTER_HASH_SEED = 0x5A4D


def locality_key(record_id: str) -> str:
    """The entity prefix similar records share.

    Every shipped workload names versions of one entity under a common
    ``/``-separated prefix (``wiki/<article>/<rev>``, ``mail/<seq>``,
    ``order/<id>``); dropping the last segment yields the key revisions
    of one article, or versions of one document, have in common. Ids
    without a separator are their own key.
    """
    head, sep, _tail = record_id.rpartition("/")
    return head if sep else record_id


class ShardRouter:
    """Deterministic record-to-shard placement with miss accounting.

    Args:
        shards: number of shards (>= 1).
        placement: ``'hash'`` (uniform, by full record id) or ``'prefix'``
            (locality-preserving, by :func:`locality_key`).

    Attributes:
        counts: inserts routed to each shard (placement-balance signal).
        cross_shard_misses: inserts whose entity already had records on a
            different shard — each one is dedup opportunity the sharded
            topology cannot exploit, the quantity the placement strategy
            exists to minimize.
    """

    def __init__(self, shards: int, placement: str = "hash") -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if placement not in PLACEMENTS:
            raise ValueError(
                f"placement must be one of {PLACEMENTS}, got {placement!r}"
            )
        self.shards = shards
        self.placement = placement
        self.counts = [0] * shards
        self.cross_shard_misses = 0
        self._entity_shard: dict[str, int] = {}

    def shard_of(self, record_id: str) -> int:
        """The shard a record id lives on (pure function of the id)."""
        key = (
            record_id
            if self.placement == "hash"
            else locality_key(record_id)
        )
        return murmur3_32(key.encode("utf-8"), ROUTER_HASH_SEED) % self.shards

    def route(self, op: Operation) -> int:
        """Route one operation, maintaining the insert-side accounting."""
        shard = self.shard_of(op.record_id)
        if op.kind == "insert":
            self.counts[shard] += 1
            entity = locality_key(op.record_id)
            home = self._entity_shard.setdefault(entity, shard)
            if home != shard:
                self.cross_shard_misses += 1
        return shard

    @property
    def entities_tracked(self) -> int:
        """Distinct locality keys seen so far."""
        return len(self._entity_shard)


class _MergedRegistryView:
    """Duck-typed registry exposing a sharded cluster's merged snapshot.

    The exporters only need ``snapshot()`` from a registry; this view
    satisfies them by re-labeling every shard's families with a ``shard``
    label and appending the router's own families, so one valid
    ``repro.metrics/v1`` document covers the whole topology.
    """

    def __init__(self, cluster: "ShardedCluster") -> None:
        self._cluster = cluster

    def snapshot(self) -> dict:
        """Merged ``{name: family}`` snapshot across every shard."""
        return self._cluster.metrics_snapshot()


class ShardedCluster:
    """N independent cluster shards behind one hash-routing client.

    ``ShardedCluster(spec)`` builds ``spec.shards`` shards placed by
    ``spec.placement``, every one running the same
    :class:`~repro.db.spec.ClusterSpec` (kept as ``config``); the public
    entry point is :func:`repro.api.open_cluster` with a spec whose
    ``shards`` is greater than one. ``capture=False`` keeps the topology
    out of an ambient observability capture.
    """

    def __init__(self, spec: ClusterSpec, *, capture: bool = True) -> None:
        cap = obs_runtime.active_capture() if capture else None
        self.config = captured_spec(spec, cap)
        #: One simulated clock shared by every shard — client batches fan
        #: out concurrently and background work on all shards sees one
        #: consistent timeline.
        self.clock = SimClock()
        #: One tracer spanning all shards (spans carry shard annotations).
        self.tracer = Tracer(self.clock, enabled=self.config.trace)
        self.router = ShardRouter(self.config.shards, self.config.placement)
        #: The shard clusters. Each keeps its *own* metrics registry so
        #: identical label sets (node="primary", ...) never collide; the
        #: merged view re-labels them with ``shard`` at export time.
        self.shards = tuple(
            Cluster(
                self.config,
                clock=self.clock,
                tracer=self.tracer,
                capture=False,
            )
            for _ in range(self.config.shards)
        )
        #: Merged-snapshot registry view (valid exporter input).
        self.registry = _MergedRegistryView(self)
        #: Sharded runs have per-shard samplers; there is no single
        #: sampler to export, so the bundle-level slot stays empty.
        self.sampler = None
        self._router_registry = MetricsRegistry()
        self._install_router_collectors()
        if cap is not None:
            cap.register(self)

    def _install_router_collectors(self) -> None:
        """Export the router's counters from the topology-level registry."""
        reg = self._router_registry
        router = self.router
        reg.gauge(
            "router_shard_count", "Number of shards in the topology",
        ).collect(lambda: {(): float(router.shards)})
        reg.counter(
            "router_records_routed_total",
            "Client inserts routed to each shard", ("shard",),
        ).collect(lambda: {
            (str(index),): float(count)
            for index, count in enumerate(router.counts)
        })
        reg.counter(
            "router_cross_shard_misses_total",
            "Inserts whose entity already lived on a different shard "
            "(forfeited dedup opportunities)",
        ).collect(lambda: {(): float(router.cross_shard_misses)})
        reg.gauge(
            "router_entities_tracked",
            "Distinct locality keys the router has seen",
        ).collect(lambda: {(): float(router.entities_tracked)})

    # -- client operations ---------------------------------------------------

    def execute(self, op: Operation) -> float:
        """Run one client operation on its owning shard."""
        if op.kind == "idle":
            return idle(self, op.idle_seconds)
        return self.shards[self.router.route(op)].execute(op)

    def client_read(
        self, database: str, record_id: str
    ) -> tuple[bytes | None, float]:
        """One accounted client read, routed to the owning shard."""
        shard = self.shards[self.router.shard_of(record_id)]
        return shard.client_read(database, record_id)

    def execute_insert_batch(self, ops: list[Operation]) -> float:
        """Run one client batch, split per shard, concurrently.

        Each shard's sub-batch goes through that shard's client-operation
        lifecycle; the shared clock advances once by the *slowest*
        sub-batch latency — the shards work in parallel, the client waits
        for all of them — and every record of the batch is recorded at
        the same share of that latency. A batch that lands entirely on
        one shard takes that shard's native batch path unchanged.
        """
        groups: dict[int, list[Operation]] = {}
        for op in ops:
            groups.setdefault(self.router.route(op), []).append(op)
        if len(groups) == 1:
            ((index, group),) = groups.items()
            return self.shards[index].execute_insert_batch(group)
        parts = sorted(groups.items())
        batch_latency = max(
            self.shards[index].execute_insert_batch(group, shard=index)
            for index, group in parts
        )
        self.clock.advance(batch_latency)
        share = batch_latency / len(ops)
        for index, group in parts:
            shard = self.shards[index]
            shard._settle_op(
                "insert", [op.database for op in group], share, 0.0
            )
            shard._after_op(len(group))
        return batch_latency

    def run(
        self,
        operations: Iterable[Operation],
        timeline_bucket_s: float | None = None,
    ) -> RunResult:
        """Execute a trace across the shards; collect merged measurements.

        The same loop as :meth:`Cluster.run <repro.db.cluster.Cluster.run>`
        (:func:`~repro.db.cluster.run_trace`) — consecutive inserts
        coalesce into client batches of ``config.insert_batch_size``,
        any other operation flushes first — and each batch is then split
        per shard by :meth:`execute_insert_batch`.
        """
        return run_trace(self, operations, timeline_bucket_s)

    # -- lifecycle / maintenance ---------------------------------------------

    def finalize(self) -> None:
        """Drain replication and write-back caches on every shard."""
        for shard in self.shards:
            shard.finalize()

    def scrub(self) -> dict[str, int]:
        """Checksum-scrub every shard; returns ``{shardN/node: repaired}``."""
        repaired: dict[str, int] = {}
        for index, shard in enumerate(self.shards):
            for name, count in shard.scrub().items():
                repaired[f"shard{index}/{name}"] = count
        return repaired

    def checkpoint(self, path) -> int:
        """Checkpoint every shard (``<path>.shard<N>``); sum of truncations."""
        return sum(
            shard.checkpoint(f"{path}.shard{index}")
            for index, shard in enumerate(self.shards)
        )

    def replicas_converged(self) -> bool:
        """True when every shard's replicas converged."""
        return all(shard.replicas_converged() for shard in self.shards)

    # -- observability --------------------------------------------------------

    def metrics_snapshot(self) -> dict:
        """Merged metrics: every shard's families, labeled by shard.

        Each shard keeps its own registry; this merge adds a ``shard``
        label to every family (values are the shard index) and appends
        the router-level families, yielding one snapshot the standard
        exporters and validators accept.
        """
        merged: dict[str, dict] = {}
        for index, shard in enumerate(self.shards):
            for name, family in shard.registry.snapshot().items():
                target = merged.get(name)
                if target is None:
                    target = {
                        key: value
                        for key, value in family.items()
                        if key != "values"
                    }
                    target["labels"] = list(family["labels"]) + ["shard"]
                    target["values"] = []
                    merged[name] = target
                for row in family["values"]:
                    labeled = dict(row)
                    labeled["labels"] = dict(row["labels"], shard=str(index))
                    target["values"].append(labeled)
        merged.update(self._router_registry.snapshot())
        return merged

    def summary_stats(self) -> dict:
        """Aggregated topology summary plus per-shard breakdown.

        Shares its top-level keys with :meth:`Cluster.summary_stats
        <repro.db.cluster.Cluster.summary_stats>` and adds the router's
        cross-shard accounting and the per-shard dicts under ``"per_shard"``.
        """
        per_shard = [shard.summary_stats() for shard in self.shards]
        logical = sum(stats["logical_bytes"] for stats in per_shard)
        stored = sum(stats["stored_bytes"] for stats in per_shard)
        network = sum(stats["network_bytes"] for stats in per_shard)
        return {
            "shards": len(self.shards),
            "placement": self.router.placement,
            "inserts": sum(stats["inserts"] for stats in per_shard),
            "reads": sum(stats["reads"] for stats in per_shard),
            "records": sum(stats["records"] for stats in per_shard),
            "logical_bytes": logical,
            "stored_bytes": stored,
            "physical_bytes": sum(
                stats["physical_bytes"] for stats in per_shard
            ),
            "network_bytes": network,
            "index_memory_bytes": sum(
                stats["index_memory_bytes"] for stats in per_shard
            ),
            "storage_compression_ratio": logical / stored if stored else 1.0,
            "network_compression_ratio": logical / network if network else 1.0,
            "cross_shard_misses": self.router.cross_shard_misses,
            "records_per_shard": list(self.router.counts),
            "per_shard": per_shard,
        }

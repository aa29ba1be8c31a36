"""The public client facade: :func:`open_cluster` and :class:`DedupClient`.

Callers describe a deployment with one :class:`~repro.api.ClusterSpec`
and get back a :class:`DedupClient` whose methods are ordinary CRUD plus
the lifecycle hooks experiments need (``run``, ``checkpoint``,
``stats``, ``check_invariants``). Whether the deployment is a plain
single-primary :class:`~repro.db.cluster.Cluster` or a hash-sharded
:class:`~repro.db.sharding.ShardedCluster` is an implementation detail
selected by ``spec.shards``; both expose the same operation surface, so
the client never branches on topology.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable

from repro.db.cluster import Cluster, RunResult
from repro.db.errors import NodeUnavailableError
from repro.db.sharding import ShardedCluster
from repro.db.spec import ClusterSpec
from repro.workloads.base import Operation


def open_cluster(spec: ClusterSpec | None = None, **overrides) -> "DedupClient":
    """Build a running deployment from a spec; the public entry point.

    Call with a :class:`ClusterSpec`, with keyword overrides applied on
    top of the defaults (``open_cluster(shards=4, trace=True)``), or with
    both (overrides win). ``spec.shards == 1`` yields a plain cluster,
    anything larger a sharded topology.
    """
    if spec is None:
        spec = ClusterSpec(**overrides)
    elif overrides:
        spec = replace(spec, **overrides)
    return DedupClient(
        Cluster(spec) if spec.shards == 1 else ShardedCluster(spec)
    )


class DedupClient:
    """Operation facade over a (possibly sharded) running deployment.

    Obtain one from :func:`open_cluster`; the constructor is public for
    wrapping an existing cluster (e.g. one built by a benchmark helper).
    All mutation latencies are simulated seconds.
    """

    def __init__(self, cluster: Cluster | ShardedCluster) -> None:
        self._cluster = cluster

    # -- introspection --------------------------------------------------------

    @property
    def cluster(self) -> Cluster | ShardedCluster:
        """The underlying deployment (escape hatch for experiment code)."""
        return self._cluster

    @property
    def spec(self) -> ClusterSpec:
        """The spec the deployment runs — the cluster's own config."""
        return self._cluster.config

    @property
    def shards(self) -> int:
        """Number of shards (1 for a plain cluster)."""
        if isinstance(self._cluster, ShardedCluster):
            return len(self._cluster.shards)
        return 1

    @property
    def clock(self):
        """The deployment's simulated clock."""
        return self._cluster.clock

    @property
    def registry(self):
        """Metrics registry (merged, shard-labeled view when sharded)."""
        return self._cluster.registry

    @property
    def tracer(self):
        """The deployment's tracer."""
        return self._cluster.tracer

    # -- CRUD -----------------------------------------------------------------

    @staticmethod
    def _unavailable(fault: NodeUnavailableError) -> NodeUnavailableError:
        """Re-frame a node-level outage as a client-actionable error.

        The type (and ``retriable`` flag) are preserved; the message
        gains the contract the caller cares about: nothing was applied,
        and a retry is safe once failover promotes a replacement. With
        automatic failover enabled the cluster absorbs outages silently
        — this error only reaches a client when failover is disabled or
        no candidate could be promoted.
        """
        wrapped = NodeUnavailableError(fault.node_name, fault.role)
        wrapped.args = (
            f"{fault.args[0]} — the operation was not applied and is safe "
            "to retry; enable automatic promotion with "
            "ClusterSpec(failover_enabled=True) to absorb outages without "
            "client errors",
        )
        return wrapped

    def insert(self, database: str, record_id: str, content: bytes) -> float:
        """Insert one record; returns the client latency in seconds."""
        try:
            return self._cluster.execute(
                Operation("insert", database, record_id, content)
            )
        except NodeUnavailableError as fault:
            raise self._unavailable(fault) from fault

    def insert_many(
        self, records: Iterable[tuple[str, str, bytes]]
    ) -> float:
        """Insert records as one client batch; returns the batch latency.

        On a sharded deployment the batch splits per shard and the
        sub-batches run concurrently in simulated time.
        """
        ops = [
            Operation("insert", database, record_id, content)
            for database, record_id, content in records
        ]
        if not ops:
            return 0.0
        try:
            return self._cluster.execute_insert_batch(ops)
        except NodeUnavailableError as fault:
            raise self._unavailable(fault) from fault

    def read(self, database: str, record_id: str) -> bytes | None:
        """Read one record's content (None when absent)."""
        try:
            content, _latency = self._cluster.client_read(database, record_id)
        except NodeUnavailableError as fault:
            raise self._unavailable(fault) from fault
        return content

    def update(self, database: str, record_id: str, content: bytes) -> float:
        """Update one record; returns the client latency in seconds."""
        try:
            return self._cluster.execute(
                Operation("update", database, record_id, content)
            )
        except NodeUnavailableError as fault:
            raise self._unavailable(fault) from fault

    def delete(self, database: str, record_id: str) -> float:
        """Delete one record; returns the client latency in seconds."""
        try:
            return self._cluster.execute(
                Operation("delete", database, record_id)
            )
        except NodeUnavailableError as fault:
            raise self._unavailable(fault) from fault

    # -- lifecycle ------------------------------------------------------------

    def run(
        self,
        operations: Iterable[Operation],
        timeline_bucket_s: float | None = None,
    ) -> RunResult:
        """Execute a workload trace end to end; see :meth:`Cluster.run
        <repro.db.cluster.Cluster.run>`."""
        return self._cluster.run(operations, timeline_bucket_s)

    def finalize(self) -> None:
        """Drain replication links and write-back caches."""
        self._cluster.finalize()

    def checkpoint(self, path) -> int:
        """Checkpoint the oplog(s) under ``path``; returns bytes truncated."""
        return self._cluster.checkpoint(path)

    # -- admission ------------------------------------------------------------

    def _primaries(self):
        if isinstance(self._cluster, ShardedCluster):
            return [shard.primary for shard in self._cluster.shards]
        return [self._cluster.primary]

    def drain_deferred(self, max_records: int | None = None) -> int:
        """Force a synchronous out-of-line dedup pass on every primary.

        Deferred records normally drain during simulated idleness (and
        unconditionally at :meth:`finalize`); this forces the pass now,
        ignoring the idleness signal. Returns the number of records
        drained across all shards.
        """
        drained = 0
        for primary in self._primaries():
            drained += primary.drain_deferred_dedup(
                max_records=max_records, force=True
            )
        return drained

    def cleanup(
        self, *, dry_run: bool = False, max_records: int | None = None
    ) -> dict:
        """Run (or just plan) a rollback-safe GC batch on every primary.

        With ``dry_run`` each shard returns its
        :class:`~repro.core.gc.GcPlan` (reclaimable bytes, chains to
        re-root, pages to compact) without touching the store; otherwise
        each shard runs one plan → dry-run → apply → post-validate batch
        and returns its :class:`~repro.core.gc.GcReport`. The idleness
        gate is bypassed — this is the operator-initiated path behind
        ``repro cleanup``.
        """
        shards = {}
        for index, primary in enumerate(self._primaries()):
            if dry_run:
                shards[index] = {"plan": primary.collect_garbage(dry_run=True)}
            else:
                shards[index] = {
                    "report": primary.collect_garbage(max_records=max_records)
                }
        return {"dry_run": dry_run, "shards": shards}

    def audit_report(
        self,
        *,
        database: str | None = None,
        reason: str | None = None,
        limit: int | None = None,
    ) -> dict:
        """Per-shard dedup audit trail: summary plus matching entries.

        Entries (:class:`~repro.core.audit.AuditEntry`) are newest-first
        and filterable by ``database`` and decision ``reason``; the
        summary aggregates records, reasons, raw and saved bytes. After a
        crash or failover the entries are rebuilt from the oplog
        (``rebuilt=True``) while the audit counters survive on the
        shared registry.
        """
        shards = {}
        for index, primary in enumerate(self._primaries()):
            engine = primary.engine
            if engine is None:
                shards[index] = {"summary": None, "entries": []}
                continue
            audit = engine.audit
            shards[index] = {
                "summary": audit.summary(),
                "entries": audit.query(
                    database=database, reason=reason, limit=limit
                ),
            }
        return {"shards": shards}

    def admission_report(self) -> dict:
        """Per-shard admission snapshot: mode, decision counts by
        stream, deferred-queue depth, bypassed streams, and the
        inline/out-of-line CPU split."""
        shards = {}
        for index, primary in enumerate(self._primaries()):
            engine = primary.engine
            if engine is None:
                shards[index] = {"mode": None}
                continue
            admission = engine.admission
            decisions: dict[str, dict[str, int]] = {}
            for (decision, stream), count in sorted(
                admission.decision_counts.items()
            ):
                decisions.setdefault(stream, {})[decision] = count
            shards[index] = {
                "mode": admission.mode,
                "decisions": decisions,
                "deferred_queue_depth": admission.pending_total,
                "deferred_discarded": admission.deferred_discarded_total,
                "outofline_records": admission.outofline_records_total,
                "outofline_bytes": admission.outofline_bytes_total,
                "bypassed_streams": sorted(admission.disabled_databases),
                "inline_cpu_seconds": engine.inline_cpu_seconds,
                "outofline_cpu_seconds": engine.outofline_cpu_seconds,
            }
        return {"shards": shards}

    def index_report(self) -> dict:
        """Per-shard feature-index snapshot.

        For every shard: the effective index kind, and per database
        partition the tier occupancy (entries, bytes, budget), amortized
        bytes per live record, the lookup outcome split (hot / cold /
        miss), and the cold-tier false-positive counter. Cuckoo
        partitions report the same shape with an empty cold tier.
        """
        shards = {}
        for index, primary in enumerate(self._primaries()):
            engine = primary.engine
            if engine is None:
                shards[index] = {"kind": None}
                continue
            partitions = {}
            for database, part in sorted(engine.index_partitions()):
                report = getattr(part, "tier_report", None)
                if report is not None:
                    body = report()
                else:
                    body = {
                        "kind": "cuckoo",
                        "hot_entries": len(part),
                        "hot_bytes": part.memory_bytes,
                        "hot_bytes_budget": None,
                        "cold_records": 0,
                        "cold_bands_materialized": 0,
                        "cold_bytes": 0,
                        "lookups": part.lookups,
                        "hot_hits": part.hot_hits,
                        "cold_hits": 0,
                        "misses": part.misses,
                        "cold_false_positives": 0,
                        "demotions": 0,
                        "promotions": 0,
                    }
                live = len(
                    engine._partition_records.get(database, ())
                )
                body["bytes_per_record"] = (
                    part.memory_bytes / live if live else 0.0
                )
                partitions[database] = body
            shards[index] = {
                "kind": engine.index_spec.kind,
                "maintenance_cpu_seconds":
                    engine.index_maintenance_cpu_seconds,
                "partitions": partitions,
            }
        return {"shards": shards}

    # -- health ---------------------------------------------------------------

    def stats(self) -> dict:
        """Topology summary: byte counters, compression ratios, and —
        when sharded — the router's cross-shard accounting."""
        return self._cluster.summary_stats()

    def replicas_converged(self) -> bool:
        """True when every replica matches its primary."""
        return self._cluster.replicas_converged()

    def check_invariants(self, *, drain: bool = True, strict: bool = True):
        """Run the full invariant sweep; returns the
        :class:`~repro.db.invariants.InvariantReport`."""
        from repro.db.invariants import check_cluster, check_sharded_cluster

        if isinstance(self._cluster, ShardedCluster):
            return check_sharded_cluster(
                self._cluster, drain=drain, strict=strict
            )
        return check_cluster(self._cluster, drain=drain, strict=strict)

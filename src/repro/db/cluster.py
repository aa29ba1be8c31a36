"""The evaluated deployment: one client, one primary, one secondary (§5).

:class:`Cluster` wires the nodes, the replication link and the simulated
clock together and exposes a trace runner that produces the measurements
the paper's figures are built from: throughput, latency distribution,
storage footprints at every layer, replicated bytes, and index memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.compression.block import make_block_compressor
from repro.db.errors import CorruptChain, CorruptPage, NodeUnavailableError
from repro.db.failover import (
    FAILOVER_TIMEOUT_S,
    HEARTBEAT_INTERVAL_S,
    REJOIN_DELAY_S,
    FailoverManager,
)
from repro.db.invariants import replica_divergences
from repro.db.node import PrimaryNode, SecondaryNode
from repro.db.recovery import oplog_model
from repro.db.replication import ReplicationLink
from repro.db.spec import ClusterSpec
from repro.obs import (
    OP_LATENCY_BUCKETS_S,
    MetricsRegistry,
    TimeSeriesSampler,
    Tracer,
    slo_events_family,
)
from repro.obs import runtime as obs_runtime
from repro.sim.clock import SimClock
from repro.sim.network import SimNetwork
from repro.util.stats import percentile
from repro.workloads.base import Operation


@dataclass
class RunResult:
    """Measurements from one trace execution."""

    operations: int
    inserts: int
    reads: int
    duration_s: float
    latencies_s: list[float]
    logical_bytes: int
    stored_bytes: int
    physical_bytes: int
    network_bytes: int
    index_memory_bytes: int
    throughput_timeline: list[tuple[float, float]] = field(default_factory=list)

    @property
    def throughput_ops(self) -> float:
        """Client operations per simulated second."""
        return self.operations / self.duration_s if self.duration_s else 0.0

    @property
    def storage_compression_ratio(self) -> float:
        """Raw bytes over post-dedup (pre-block-compression) bytes."""
        return self.logical_bytes / self.stored_bytes if self.stored_bytes else 1.0

    @property
    def physical_compression_ratio(self) -> float:
        """Raw bytes over fully compressed storage bytes."""
        return self.logical_bytes / self.physical_bytes if self.physical_bytes else 1.0

    @property
    def network_compression_ratio(self) -> float:
        """Raw inserted bytes over replicated bytes."""
        return self.logical_bytes / self.network_bytes if self.network_bytes else 1.0

    def latency_percentile(self, pct: float) -> float:
        """Client latency percentile in seconds."""
        return percentile(self.latencies_s, pct)


class Cluster:
    """One-primary / N-secondary deployment driven by a client trace.

    ``Cluster(spec)`` reads every deployment knob from the one
    :class:`~repro.db.spec.ClusterSpec` (kept as ``config``; its sharding
    fields are ignored here — a one-shard topology *is* a plain cluster,
    and :attr:`shards` says so). The keyword arguments only inject shared
    collaborators: a sharded cluster hands its shards one clock and
    tracer and passes ``capture=False``.
    """

    def __init__(
        self,
        spec: ClusterSpec,
        *,
        clock: SimClock | None = None,
        tracer: Tracer | None = None,
        capture: bool = True,
    ) -> None:
        # An ambient capture (opened by the CLI around experiment code
        # that builds clusters internally) turns observability on without
        # constructor plumbing; the spec's own settings still win. A
        # sharded cluster registers itself instead and passes
        # ``capture=False`` to its shards.
        cap = obs_runtime.active_capture() if capture else None
        #: The spec this cluster runs — every layer below reads it.
        self.config = captured_spec(spec, cap)
        self.costs = self.config.costs
        #: Simulated clock — private by default, injected (shared) when
        #: this cluster is one shard of a :class:`ShardedCluster`.
        self.clock = clock if clock is not None else SimClock()
        #: Shared metrics registry every layer of this cluster reports to.
        self.registry = MetricsRegistry()
        #: Per-operation service latency by op kind and tenant (logical
        #: database) — the distribution every SLO percentile is read
        #: from. Fine 1-2-5 buckets so interpolated p99/p999 are usable.
        self._op_latency = self.registry.histogram(
            "op_latency_seconds",
            "Client-observed operation service latency by op kind and "
            "tenant (simulated seconds)",
            ("op", "tenant"),
            buckets=OP_LATENCY_BUCKETS_S,
        )
        self._op_latency_children: dict[tuple[str, str], object] = {}
        #: Shared first-class SLO event family (the engine feeds
        #: admission/backpressure events into the same one).
        self._slo_events = slo_events_family(self.registry)
        #: Shared sim-clock tracer (disabled unless ``trace=True``);
        #: injectable so shards of one topology trace into one span store.
        self.tracer = (
            tracer
            if tracer is not None
            else Tracer(self.clock, enabled=self.config.trace)
        )
        sample_every_s = self.config.sample_every_s
        sample_every_ops = self.config.sample_every_ops
        #: Optional time-series sampler driven by client operations.
        self.sampler = (
            TimeSeriesSampler(
                self.registry,
                clock=self.clock,
                every_seconds=sample_every_s,
                every_ops=sample_every_ops,
            )
            if sample_every_s is not None or sample_every_ops is not None
            else None
        )
        self.primary = PrimaryNode(
            self.config,
            clock=self.clock,
            registry=self.registry,
            tracer=self.tracer,
            node_name="primary",
        )
        self.secondaries = [
            SecondaryNode(
                self.config,
                clock=self.clock,
                registry=self.registry,
                tracer=self.tracer,
                node_name=f"secondary{index}",
            )
            for index in range(self.config.num_secondaries)
        ]
        self.network = SimNetwork(self.clock, self.costs)
        self.network.tracer = self.tracer
        self._batch_compressor = (
            make_block_compressor(self.config.batch_compression)
            if self.config.batch_compression != "none"
            else None
        )
        self.links = [
            self._make_link(secondary) for secondary in self.secondaries
        ]
        #: Heartbeat monitor + promotion/rollback/resync driver.
        self.failover = FailoverManager(self)
        self.inserts = 0
        self.reads = 0
        self.secondary_reads = 0
        self.stale_read_fallbacks = 0
        self._read_cursor = 0
        #: Installed :class:`~repro.sim.faults.FaultPlan` (None when no
        #: chaos is injected); its ``after_operation`` hook fires crash
        #: rules after every client operation.
        self.fault_plan = None
        #: Records repaired through the quarantine path.
        self.repairs = 0
        self._install_collectors()
        if cap is not None:
            cap.register(self)

    def _make_link(self, secondary: SecondaryNode) -> ReplicationLink:
        """A replication link from the *current* primary to a secondary.

        Used at boot and again by the failover manager, which rebuilds
        every link against the promoted primary (seeking each cursor to
        the divergence point agreed with that replica).
        """
        return ReplicationLink(
            self.primary,
            secondary,
            self.network,
            self.config.oplog_batch_bytes,
            batch_compressor=self._batch_compressor,
            tracer=self.tracer,
        )

    def _install_collectors(self) -> None:
        """Export network, replication and cluster counters lazily."""
        reg = self.registry
        net = self.network
        reg.counter(
            "network_bytes_sent_total",
            "Bytes of all transfer attempts (including dropped ones)",
        ).collect(lambda: {(): float(net.bytes_sent)})
        reg.counter(
            "network_bytes_delivered_total",
            "Bytes of successfully delivered transfers",
        ).collect(lambda: {(): float(net.bytes_delivered)})
        reg.counter(
            "network_messages_total",
            "Transfer attempts by outcome", ("status",),
        ).collect(lambda: {
            ("sent",): float(net.messages),
            ("delivered",): float(net.messages_delivered),
            ("dropped",): float(net.messages_dropped),
        })

        def link_values(attr):
            return lambda: {
                (f"secondary{index}",): float(getattr(link, attr))
                for index, link in enumerate(self.links)
            }

        label = ("link",)
        reg.counter(
            "replication_batches_shipped_total",
            "Oplog batches confirmed delivered", label,
        ).collect(link_values("batches_shipped"))
        reg.counter(
            "replication_uncompressed_bytes_total",
            "Pre-batch-compression bytes of shipped batches", label,
        ).collect(link_values("uncompressed_bytes"))
        reg.counter(
            "replication_delivery_failures_total",
            "Delivery attempts dropped by fault injection", label,
        ).collect(link_values("delivery_failures"))
        reg.counter(
            "replication_failed_syncs_total",
            "Syncs that exhausted their delivery attempts", label,
        ).collect(link_values("failed_syncs"))
        reg.counter(
            "replication_resends_total",
            "Successful syncs that resent a previously failed batch", label,
        ).collect(link_values("resends"))
        reg.counter(
            "faults_injected_total", "Fault-plan rules that fired",
        ).collect(lambda: {
            (): float(self.fault_plan.injected)
            if self.fault_plan is not None
            else 0.0
        })
        reg.counter(
            "cluster_repairs_total",
            "Records restored through the quarantine repair path",
        ).collect(lambda: {(): float(self.repairs)})
        reg.counter(
            "cluster_secondary_reads_total",
            "Client reads routed to a secondary",
        ).collect(lambda: {(): float(self.secondary_reads)})
        reg.counter(
            "cluster_stale_read_fallbacks_total",
            "Secondary reads served by the primary (replica was stale)",
        ).collect(lambda: {(): float(self.stale_read_fallbacks)})
        reg.counter(
            "failovers_total",
            "Secondary promotions after a primary was declared dead",
        ).collect(lambda: {(): float(self.failover.failovers)})
        reg.counter(
            "rollback_entries_total",
            "Oplog entries dropped by divergence rollbacks (the lost-"
            "write window of asynchronous replication)",
        ).collect(lambda: {(): float(self.failover.rollback_entries)})
        reg.counter(
            "resync_bytes_total",
            "Catch-up wire bytes shipped to rejoining replicas",
        ).collect(lambda: {(): float(self.failover.resync_bytes)})
        reg.counter(
            "failover_supervised_restarts_total",
            "Downed secondaries revived by the failover supervisor",
        ).collect(lambda: {(): float(self.failover.supervised_restarts)})
        reg.counter(
            "failover_stalled_ops_total",
            "Client operations that waited out a promotion",
        ).collect(lambda: {(): float(self.failover.stalled_ops)})
        reg.counter(
            "oplog_appends_total",
            "Entries ever appended to each node's oplog (monotonic; "
            "rollbacks truncate the log but never this counter)",
            ("node",),
        ).collect(lambda: {
            (name,): float(node.oplog.appends) for name, node in self.nodes()
        })

    @property
    def shards(self) -> tuple["Cluster"]:
        """The topology's shards: a plain cluster is its own one shard,
        so every per-shard loop runs the same on either topology."""
        return (self,)

    @property
    def secondary(self) -> SecondaryNode:
        """The first secondary (the evaluated topology has exactly one)."""
        return self.secondaries[0]

    @property
    def link(self) -> ReplicationLink:
        """The first replication link."""
        return self.links[0]

    def nodes(self):
        """Yield ``(name, node)`` for the primary and every secondary.

        The single iteration order every whole-cluster sweep (scrub,
        convergence, invariants, fault installation) routes through, so
        sharded and unsharded topologies share one code path instead of
        each site re-deriving the node list.
        """
        yield "primary", self.primary
        for index, secondary in enumerate(self.secondaries):
            yield f"secondary{index}", secondary

    def _await_primary(self, tenant: str = "_cluster") -> PrimaryNode:
        """The current primary, waiting out a promotion if it is down.

        The client-transparency half of failover: while the primary is
        unavailable, simulated time advances heartbeat by heartbeat (the
        wait the client actually experiences) and the monitor ticks until
        it elects a replacement — the retried operation then lands on the
        promoted node. With failover disabled, or when no candidate ever
        becomes available, the typed :class:`NodeUnavailableError`
        surfaces to the caller instead. ``tenant`` labels the stall event
        with the stream whose operation waited (``"_cluster"`` when the
        caller has no stream context, e.g. a batch spanning streams).
        """
        if self.primary.is_available:
            return self.primary
        failover = self.failover
        if not self.config.failover_enabled:
            raise NodeUnavailableError(self.primary.node_name, "primary")
        failover.stalled_ops += 1
        self._slo_events.labels("failover_stall", tenant).inc()
        attempts = (
            int(FAILOVER_TIMEOUT_S / HEARTBEAT_INTERVAL_S)
            + int(REJOIN_DELAY_S / HEARTBEAT_INTERVAL_S)
            + 16
        )
        for _ in range(attempts):
            self.clock.advance(HEARTBEAT_INTERVAL_S)
            failover.tick()
            if self.primary.is_available:
                return self.primary
        raise NodeUnavailableError(self.primary.node_name, "primary")

    def _primary_op(
        self, tenant: str, method: str, *args
    ) -> tuple[None, float]:
        """Dispatch one write to the (possibly just-promoted) primary.

        ``tenant`` labels a failover stall: the database of a
        single-record write, ``"_cluster"`` for a batch, which may span
        streams. Returns ``(None, latency)``, the shape of :meth:`read`.
        """
        return None, getattr(self._await_primary(tenant), method)(*args)

    def observe_op_latency(
        self, op: str, tenant: str, latency_s: float
    ) -> None:
        """Land one operation's service latency in the SLO histograms."""
        key = (op, tenant)
        child = self._op_latency_children.get(key)
        if child is None:
            child = self._op_latency.labels(op, tenant)
            self._op_latency_children[key] = child
        child.observe(latency_s)

    def _client_op(
        self, span_name, span_attrs, kind, tenants, call, *args, fanout=False
    ) -> tuple[bytes | None, float]:
        """The client-operation lifecycle, shared by every entry point.

        ``call(*args)`` does the work and returns ``(content, latency)``;
        ``tenants`` names the stream of each record the operation carries
        (one entry, or one per batched record — each is recorded at its
        share of the latency). ``fanout`` marks one shard's part of a
        client batch split across shards: it stops when the span closes,
        because the shared clock advances once for all parts, and the
        sharded cluster then calls :meth:`_settle_op` and
        :meth:`_after_op` for each part.
        """
        records = len(tenants)
        span = self.tracer.start_span(span_name, **span_attrs)
        try:
            content, latency = call(*args)
            if kind == "insert":
                self.inserts += records
            elif kind == "read":
                self.reads += 1
            span.annotate("latency_s", latency)
            if not fanout:
                self._settle_op(
                    kind, tenants, latency / (records or 1), latency
                )
        finally:
            self.tracer.end_span(span)
        if not fanout:
            self._after_op(records)
        return content, latency

    def _settle_op(self, kind, tenants, share_s, advance_s) -> None:
        """Record each record's latency share, advance time, replicate."""
        for tenant in tenants:
            self.observe_op_latency(kind, tenant, share_s)
        self.clock.advance(advance_s)
        # Replication the operation triggered belongs in its trace.
        for link in self.links:
            link.maybe_sync()

    def _after_op(self, records: int) -> None:
        """Per-operation hooks: crash rules, failover monitor, sampler."""
        if self.fault_plan is not None:
            self.fault_plan.after_operation(self)
        self.failover.tick()
        if self.sampler is not None:
            for _ in range(records):
                self.sampler.note_op()

    def execute(self, op: Operation) -> float:
        """Run one client operation; returns its latency and advances time."""
        kind, tenant = op.kind, op.database
        if kind == "idle":
            return idle(self, op.idle_seconds)
        if kind == "read":
            call, args = self.read, (tenant, op.record_id)
        elif kind in ("insert", "update"):
            call = self._primary_op
            args = (tenant, kind, tenant, op.record_id, op.content)
        elif kind == "delete":
            call, args = self._primary_op, (tenant, kind, tenant, op.record_id)
        else:
            raise ValueError(f"unknown operation kind {kind!r}")
        return self._client_op(
            f"op:{kind}", {"record_id": op.record_id}, kind, (tenant,),
            call, *args,
        )[1]

    def execute_insert_batch(
        self, ops: list[Operation], *, shard: int | None = None
    ) -> float:
        """Run a batch of insert operations through the primary's batch
        path; returns the batch latency and advances time once.

        Replication ships after the whole batch, mirroring how a real
        client driver pipelines a bulk load. Each batched insert is
        recorded at its per-record share of the batch latency, matching
        how ``run()`` reports them. ``shard`` is set when ``ops`` is this
        shard's part of a client batch that spans shards (``fanout`` in
        :meth:`_client_op`).
        """
        attrs = {"records": len(ops)}
        if shard is not None:
            attrs = {"shard": shard, **attrs}
        return self._client_op(
            "op:insert_batch", attrs, "insert", [op.database for op in ops],
            self._primary_op, "_cluster", "insert_batch",
            [(op.database, op.record_id, op.content) for op in ops],
            fanout=shard is not None,
        )[1]

    def client_read(
        self, database: str, record_id: str
    ) -> tuple[bytes | None, float]:
        """One accounted client read: ``execute`` on a read operation,
        but the caller also gets the content back."""
        return self._client_op(
            "op:read", {"record_id": record_id}, "read", (database,),
            self.read, database, record_id,
        )

    def read(self, database: str, record_id: str) -> tuple[bytes | None, float]:
        """Client read honoring the configured read preference.

        With ``read_preference='secondary'`` reads rotate across replicas;
        a record the asynchronous replication has not delivered yet falls
        back to the primary (counted in ``stale_read_fallbacks``), plus one
        network round trip each way.
        """
        if self.config.read_preference == "primary":
            return self._read_with_repair(
                self._await_primary(database), database, record_id
            )
        # Rotate across replicas, skipping any that are down; when every
        # replica is down the primary serves (same as the stale path).
        secondary = None
        for _ in range(len(self.secondaries)):
            candidate = self.secondaries[
                self._read_cursor % len(self.secondaries)
            ]
            self._read_cursor += 1
            if candidate.is_available:
                secondary = candidate
                break
        latency = self.costs.network_time(256)  # request hop
        if secondary is not None:
            self.secondary_reads += 1
            if record_id in secondary.db.records and not secondary.db.records[
                record_id
            ].deleted:
                content, disk_latency = self._read_with_repair(
                    secondary, database, record_id
                )
                return (
                    content,
                    latency
                    + disk_latency
                    + self.costs.network_time(len(content) if content else 64),
                )
        # Stale replica (or record deleted there, or no replica up):
        # the primary serves it.
        self.stale_read_fallbacks += 1
        content, primary_latency = self._read_with_repair(
            self._await_primary(database), database, record_id
        )
        return content, latency + primary_latency + self.costs.network_time(
            len(content) if content else 64
        )

    def _read_with_repair(
        self, node, database: str, record_id: str
    ) -> tuple[bytes | None, float]:
        """Serve a read, routing detected corruption through quarantine.

        A read that trips a page checksum (:class:`CorruptPage`) names
        the corrupt record — possibly a decode *base* of the requested
        one. The record is repaired from a healthy replica and the read
        retried; a chain with several corrupt links converges because
        each round repairs at least one record.
        """
        for _ in range(8):
            try:
                return node.db.read(database, record_id)
            except CorruptPage as fault:
                if self.repair_record(node, fault.record_id) == 0:
                    raise
        return node.db.read(database, record_id)

    # -- quarantine repair (fault tolerance) ---------------------------------

    def repair_record(self, node, record_id: str) -> int:
        """Restore a corrupt record — and everything decoding through it —
        from a healthy copy, raw.

        Dependents must be restored too: their stored deltas decode
        against the corrupted record's *old* payload, which is gone.
        Restoring the whole dependent closure raw trades compression for
        correctness, exactly the write-back cache's loss model. Returns
        the number of records restored.
        """
        db = node.db
        closure = [record_id]
        frontier = [record_id]
        while frontier:
            current = frontier.pop()
            for dependent in db.dependents_of(current):
                if dependent not in closure:
                    closure.append(dependent)
                    frontier.append(dependent)
        restored = 0
        for target in closure:
            record = db.records.get(target)
            if record is None or record.deleted:
                # Tombstones have no client-visible content to restore;
                # they are reaped as their dependents release them.
                continue
            content = self._healthy_content(node, target)
            if content is None:
                continue  # unrecoverable for now; stays quarantined
            if db.restore_record_raw(target, content):
                restored += 1
        self.repairs += restored
        return restored

    def _healthy_content(self, exclude_node, record_id: str):
        """A record's content from any replica that holds it cleanly (read
        through the read-only ``Database.content_of``), falling back to
        the contents the oplog describes when no replica can serve it.

        A secondary with undelivered oplog entries for the record is
        skipped: it reads cleanly but serves the *previous* version, and
        restoring that onto the primary would silently roll back a
        confirmed write. The oplog fallback covers the case where no
        replica holds a fresh clean copy.
        """
        for node in [self.primary, *self.secondaries]:
            if node is exclude_node:
                continue
            if node is not self.primary and self._secondary_is_stale_for(
                node, record_id
            ):
                continue
            try:
                content = node.db.content_of(record_id)
            except (CorruptPage, CorruptChain):
                continue
            if content is not None:
                return content
        if self.primary.oplog.truncated_before > 0:
            return None  # the log no longer reaches truncated history
        return oplog_model(self.primary.oplog.entries()).get(record_id)

    def _secondary_is_stale_for(self, node, record_id: str) -> bool:
        """True when ``node`` has not yet applied every oplog entry the
        primary holds for ``record_id`` (or its position is unknowable)."""
        link = next(
            (link for link in self.links if link.secondary is node), None
        )
        if link is None:
            return True  # unlinked replica: freshness unknowable
        try:
            pending = self.primary.oplog.entries_since(link.cursor)
        except ValueError:
            return True  # cursor in truncated history: needs a snapshot
        return any(entry.record_id == record_id for entry in pending)

    def scrub(self) -> dict[str, int]:
        """Proactive checksum scrub: verify every node, repair quarantine.

        Returns ``{node_name: records_restored}`` — the background
        integrity pass a production deployment would run periodically.
        """
        repaired: dict[str, int] = {}
        for name, node in self.nodes():
            count = 0
            for record_id in node.db.verify_checksums():
                count += self.repair_record(node, record_id)
            repaired[name] = count
        return repaired

    def run(
        self,
        operations,
        timeline_bucket_s: float | None = None,
    ) -> RunResult:
        """Execute a trace (closed loop) and collect measurements; see
        :func:`run_trace`."""
        return run_trace(self, operations, timeline_bucket_s)

    def checkpoint(self, path) -> int:
        """Snapshot the primary and truncate oplog history every replica
        has consumed; returns the entries discarded."""
        return self.primary.checkpoint(
            path, replica_cursors=[link.cursor for link in self.links]
        )

    def finalize(self) -> None:
        """Ship the oplog tail and drain write-back caches on every node.

        Syncs loop until every link's cursor reaches the oplog head:
        under fault injection a sync can exhaust its delivery attempts
        and leave the batch pending, so one round is not enough. The
        round bound only trips when a fault plan drops *every* delivery
        forever — real plans have probabilistic or limited rules.

        Settles failover first: a pending promotion or rejoin completes
        (and the promoted primary's deferred index rebuild drains) before
        the tail ships, so the head below is the surviving history.
        """
        self.failover.settle()
        head = self.primary.oplog.next_seq
        for _ in range(64):
            if all(link.cursor >= head for link in self.links):
                break
            for link in self.links:
                if link.cursor < head:
                    link.sync()
        # Out-of-line dedup passes produce no oplog entries, so they may
        # run after the tail shipped; they do produce write-backs, which
        # the drain below then applies.
        self.primary.drain_deferred_dedup(force=True)
        self.primary.db.drain_writebacks()
        for secondary in self.secondaries:
            secondary.db.drain_writebacks()

    def replicas_converged(self) -> bool:
        """True when every replica holds identical live record contents
        (:func:`~repro.db.invariants.replica_divergences` is empty)."""
        return not replica_divergences(self)

    def summary_stats(self) -> dict:
        """Point-in-time client-facing summary (the facade's ``stats()``).

        Keys are shared with :meth:`ShardedCluster.summary_stats
        <repro.db.sharding.ShardedCluster.summary_stats>` so callers can
        treat both topologies uniformly.
        """
        db = self.primary.db
        logical = db.logical_raw_bytes
        stored = db.stored_bytes
        network = self.network.bytes_delivered
        return {
            "shards": 1,
            "inserts": self.inserts,
            "reads": self.reads,
            "records": db.live_records,
            "logical_bytes": logical,
            "stored_bytes": stored,
            "physical_bytes": db.physical_bytes(),
            "network_bytes": network,
            "index_memory_bytes": (
                self.primary.engine.index_memory_bytes
                if self.primary.engine
                else 0
            ),
            "storage_compression_ratio": logical / stored if stored else 1.0,
            "network_compression_ratio": logical / network if network else 1.0,
        }


def captured_spec(spec: ClusterSpec, cap) -> ClusterSpec:
    """``spec`` with the observability settings of the ambient capture
    ``cap`` (or None) filled in wherever the spec leaves them off."""
    if cap is None:
        return spec
    return replace(
        spec,
        trace=spec.trace or cap.trace,
        sample_every_s=(
            cap.sample_seconds
            if spec.sample_every_s is None
            else spec.sample_every_s
        ),
        sample_every_ops=(
            cap.sample_ops
            if spec.sample_every_ops is None
            else spec.sample_every_ops
        ),
    )


def idle(topology, seconds: float) -> float:
    """Advance quiet time in slices so background work on every shard of
    ``topology`` (a :class:`Cluster` or a sharded cluster) can drain."""
    clock = topology.clock
    remaining = seconds
    step = max(seconds / 20.0, 1e-6)
    while remaining > 0:
        clock.advance(min(step, remaining))
        remaining -= step
        for shard in topology.shards:
            shard.failover.tick()
            shard.primary.on_idle()
    return 0.0


def run_trace(topology, operations, timeline_bucket_s=None) -> RunResult:
    """Execute a trace (closed loop) on a cluster or a sharded cluster.

    Args:
        topology: a :class:`Cluster` or a
            :class:`~repro.db.sharding.ShardedCluster` — anything with
            ``execute`` / ``execute_insert_batch`` / ``finalize`` /
            ``summary_stats`` on one ``clock``, and ``shards`` whose
            time-series samplers are closed off once the trace has run.
        operations: iterable of :class:`Operation`.
        timeline_bucket_s: if set, also record an ops/sec timeline at
            this bucket width (used by Fig. 13b).

    With ``insert_batch_size > 1``, consecutive insert operations are
    coalesced into batches and admitted through ``execute_insert_batch``;
    each batched insert is recorded at its per-record share of the batch
    latency. Any non-insert operation flushes the pending batch first,
    preserving the trace's operation order.
    """
    clock = topology.clock
    latencies: list[float] = []
    buckets: dict[int, int] = {}
    start = clock.now
    batch_size = topology.config.insert_batch_size
    pending: list[Operation] = []

    def note_op(latency: float) -> None:
        latencies.append(latency)
        if timeline_bucket_s:
            bucket = int((clock.now - start) / timeline_bucket_s)
            buckets[bucket] = buckets.get(bucket, 0) + 1

    def flush_pending() -> None:
        if not pending:
            return
        batch_latency = topology.execute_insert_batch(pending)
        share = batch_latency / len(pending)
        for _ in pending:
            note_op(share)
        pending.clear()

    for op in operations:
        if batch_size > 1 and op.kind == "insert":
            pending.append(op)
            if len(pending) >= batch_size:
                flush_pending()
            continue
        flush_pending()
        latency = topology.execute(op)
        if op.kind != "idle":
            note_op(latency)
    flush_pending()
    topology.finalize()
    for shard in topology.shards:
        if shard.sampler is not None:
            shard.sampler.finalize()
    duration = clock.now - start
    if timeline_bucket_s and buckets:
        timeline = [
            (bucket * timeline_bucket_s,
             buckets.get(bucket, 0) / timeline_bucket_s)
            for bucket in range(max(buckets) + 1)
        ]
    else:
        timeline = []
    stats = topology.summary_stats()
    return RunResult(
        operations=len(latencies),
        inserts=stats["inserts"],
        reads=stats["reads"],
        duration_s=duration,
        latencies_s=latencies,
        logical_bytes=stats["logical_bytes"],
        stored_bytes=stats["stored_bytes"],
        physical_bytes=stats["physical_bytes"],
        network_bytes=stats["network_bytes"],
        index_memory_bytes=stats["index_memory_bytes"],
        throughput_timeline=timeline,
    )

"""Primary and secondary nodes (§4.1, Fig. 8).

The primary serves client writes: records land raw in storage and in the
oplog; the dedup encoder runs *off the critical path* (charged as
background CPU, not client latency), replacing oplog payloads with forward
deltas and queueing backward write-backs. The secondary replays shipped
oplog batches through the re-encoder so both replicas converge.

Each node's oplog is its write-ahead record, so a crash costs compression,
never bytes. Every rebuild of a node from that log (a crash restart of
either role, a divergence rollback, an old primary's rejoin) goes through
one routine, :func:`_recover`.
"""

from __future__ import annotations

from repro.compression.block import make_block_compressor
from repro.core.engine import DedupEngine
from repro.core.gc import MAX_BATCH_RECORDS, GarbageCollector
from repro.core.reencoder import SecondaryReencoder
from repro.db.database import Database
from repro.db.errors import NodeUnavailableError
from repro.db.oplog import Oplog, OplogEntry
from repro.db.recovery import ReplayReport, replay_oplog
from repro.db.spec import ClusterSpec
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import NULL_TRACER, Tracer, TracingObserver
from repro.sim.clock import SimClock
from repro.sim.disk import SimDisk


def _bind_spec(node, spec: ClusterSpec, clock, registry, tracer, name):
    """Bind what both node kinds share: the spec, the injected clock /
    registry / tracer, and the per-operation knobs as plain attributes
    (hot paths read ``node.costs``, never ``node.spec.costs``)."""
    node.spec = spec
    node.clock = clock
    node.costs = spec.costs
    #: The engine's :class:`~repro.core.config.DedupConfig`.
    node.config = spec.dedup
    node.dedup_enabled = spec.dedup_enabled
    node.registry = registry
    node.tracer = tracer if tracer is not None else NULL_TRACER
    node.node_name = name
    node._block_compressor = make_block_compressor(spec.block_compression)


def _build_database(node, role: str, record_cache, disk: SimDisk | None) -> Database:
    """Wire a fresh record store for ``node`` (initial boot, post-crash
    restart, rollback); ``disk`` is the surviving device, if any."""
    spec = node.spec
    disk = disk if disk is not None else SimDisk(node.clock, node.costs)
    disk.tracer = node.tracer
    page_store = None
    if spec.physical_storage:
        from repro.storage.heapfile import HeapFileStore

        page_store = HeapFileStore(
            page_size=spec.page_size,
            compressor=node._block_compressor,
            disk=disk,
        )
    return Database(
        clock=node.clock,
        disk=disk,
        page_size=spec.page_size,
        block_compressor=node._block_compressor,
        writeback_capacity=node.config.writeback_cache_bytes,
        record_cache=record_cache,
        page_store=page_store,
        node_role=role,
    )


def _require_whole_history(oplog: Oplog) -> None:
    """Raise ``ValueError`` when a checkpoint truncated ``oplog``: replay
    alone cannot rebuild the lost history, which needs the checkpoint
    snapshot (:func:`~repro.db.snapshot.load_snapshot`, then
    :func:`~repro.db.recovery.replay_oplog`)."""
    if oplog.truncated_before > 0:
        raise ValueError(
            "oplog history was truncated at a checkpoint; recovery needs "
            "the checkpoint snapshot"
        )


def _recover(
    node, drop_from: int | None = None
) -> tuple[list[OplogEntry], ReplayReport]:
    """Rebuild ``node``'s store from its oplog: the one recovery routine.

    Checks that the log holds the whole history before anything changes,
    drops the log's suffix from ``drop_from`` on (a rollback), then
    builds fresh volatile state on the node's surviving disk (the role's
    engine or re-encoder and a store whose decode cache is theirs), moves
    the fault plan's hooks to the new store and replays the log into it.
    Everything lands raw and re-compresses over time. Returns the dropped
    entries and the :class:`~repro.db.recovery.ReplayReport`.

    Raises:
        ValueError: when the oplog was truncated at a checkpoint
            (:func:`_require_whole_history`).
    """
    _require_whole_history(node.oplog)
    dropped = [] if drop_from is None else node.oplog.truncate_from(drop_from)
    old = node.db
    db = node._fresh_store(old.disk)  # the device outlives the process
    injector = old.fault_injector
    if injector is not None:
        db.fault_injector = injector
        old.disk.interceptor = injector._disk_interceptor(db)
    _, report = replay_oplog(node.oplog.entries(), into=db)
    node.db = db
    return dropped, report


def _insert_order(node) -> list[str]:
    """Record ids in the order the feature index must see them: ids the
    log never inserts (sorted), then each inserted id in log order."""
    order: list[str] = []
    seen: set[str] = set()
    for entry in node.oplog.entries():
        if entry.op == "insert" and entry.record_id not in seen:
            seen.add(entry.record_id)
            order.append(entry.record_id)
    return sorted(set(node.db.records) - seen) + order


def _install_node_collectors(registry: MetricsRegistry, node) -> None:
    """Export a node's storage-layer counters, labeled by node name.

    Collectors close over the *node*, not its current database: a crash
    restart swaps ``node.db`` (and the write-back cache with it) for a
    fresh instance, and the lazy read-through keeps pointing at whichever
    store is live. Counters on replaced components therefore reset on
    restart — exactly what happens to the volatile state they count.
    """
    label = ("node",)
    key = (node.node_name,)

    def export(make, name, help_text, kind="counter"):
        family = getattr(registry, kind)(name, help_text, label)
        family.collect(lambda: {key: float(make())})

    disk = lambda attr: (lambda: getattr(node.db.disk, attr))
    export(disk("reads"), "disk_reads_total", "Simulated disk read requests")
    export(disk("writes"), "disk_writes_total", "Simulated disk write requests")
    export(disk("bytes_read"), "disk_bytes_read_total", "Bytes read from disk")
    export(
        disk("bytes_written"), "disk_bytes_written_total",
        "Bytes written to disk",
    )
    export(
        lambda: node.db.disk.queue_length(), "disk_queue_depth",
        "Outstanding disk requests", kind="gauge",
    )

    wb = lambda attr: (lambda: getattr(node.db.writeback_cache, attr))
    export(
        wb("flushed"), "writeback_cache_flushed_total",
        "Write-back entries applied to storage",
    )
    export(
        wb("discarded"), "writeback_cache_discarded_total",
        "Write-back entries dropped by the byte budget",
    )
    export(
        wb("discarded_savings"), "writeback_cache_discarded_savings_bytes_total",
        "Storage savings lost with discarded write-backs",
    )
    export(
        wb("invalidated"), "writeback_cache_invalidated_total",
        "Write-back entries superseded by client writes or newer deltas",
    )
    export(
        wb("used_bytes"), "writeback_cache_used_bytes",
        "Bytes held by pending write-back entries", kind="gauge",
    )

    db = lambda attr: (lambda: getattr(node.db, attr))
    export(
        db("writebacks_applied"), "db_writebacks_applied_total",
        "Backward/hop deltas written back to storage",
    )
    export(
        db("gc_splices"), "db_gc_splices_total",
        "Deleted records spliced out of decode chains",
    )
    export(
        db("decode_base_fetches"), "db_decode_base_fetches_total",
        "Base records fetched while decoding delta chains",
    )
    export(
        db("io_retries"), "db_io_retries_total",
        "Disk requests retried after transient fault injection",
    )
    export(
        db("io_failures"), "db_io_failures_total",
        "Disk requests abandoned after exhausting retries",
    )
    export(
        db("corrupt_reads_detected"), "db_corrupt_reads_detected_total",
        "Checksum mismatches caught on the read path",
    )
    export(
        db("corrupt_reads_recovered"), "db_corrupt_reads_recovered_total",
        "Corrupt reads healed by re-reading storage",
    )
    export(
        lambda: len(node.db.quarantine), "db_quarantined_records",
        "Records awaiting repair from a healthy replica", kind="gauge",
    )
    export(
        lambda: node.crashes, "node_crashes_total",
        "Simulated process crashes",
    )
    export(
        lambda: node.background_cpu_seconds, "node_background_cpu_seconds_total",
        "Background CPU consumed off the client critical path",
    )

    # Only the physical engine (HeapFileStore.pool) has a buffer pool;
    # the idealized PageStore has none and exports zeros.
    pool = lambda attr: (lambda: getattr(node.db.buffer_pool, attr, 0))
    export(
        pool("hits"), "bufferpool_hits_total",
        "Buffer-pool page requests served from memory",
    )
    export(
        pool("misses"), "bufferpool_misses_total",
        "Buffer-pool page requests that hit the device",
    )
    export(
        pool("evictions"), "bufferpool_evictions_total",
        "Buffer-pool frames evicted to make room",
    )

    # Cumulative storage accounting: written minus reclaimed equals the
    # live logical footprint by construction — the check-metrics identity
    # reclaimed_bytes_total <= stored_bytes_total rides on these.
    export(
        db("stored_bytes_total"), "stored_bytes_total",
        "Bytes ever written into the record store (cumulative)",
    )
    export(
        db("reclaimed_bytes_total"), "reclaimed_bytes_total",
        "Bytes reclaimed from the record store by deletes, updates and GC",
    )

    # GC families read through node.gc lazily: restart swaps the
    # collector alongside the database it serves (secondaries have none,
    # so the getattr guard reads 0 there).
    gc = lambda attr: (lambda: getattr(getattr(node, "gc", None), attr, 0))
    export(
        gc("reclaimed_bytes"), "gc_reclaimed_bytes_total",
        "Stored bytes reclaimed by applied GC batches",
    )
    export(
        gc("reroots_applied"), "gc_reroots_total",
        "Delta chains re-rooted past a dead base",
    )
    export(
        gc("promotions"), "gc_promotions_total",
        "Dependents promoted to RAW while re-rooting",
    )
    export(
        gc("tombstones_removed"), "gc_tombstones_removed_total",
        "Tombstoned records physically removed by GC",
    )
    export(
        gc("pages_freed"), "gc_pages_freed_total",
        "Pages freed by GC-driven compaction",
    )
    export(
        gc("compaction_bytes_moved"), "gc_compaction_bytes_moved_total",
        "Live bytes migrated while compacting pages",
    )
    export(
        gc("cpu_seconds"), "gc_cpu_seconds_total",
        "Background CPU spent planning and applying GC batches",
    )

    batches_family = registry.counter(
        "gc_batches_total", "GC batches by outcome", ("node", "outcome")
    )

    def _gc_batches() -> dict[tuple[str, str], float]:
        collector = getattr(node, "gc", None)
        if collector is None:
            return {}
        return {
            (node.node_name, outcome): float(count)
            for outcome, count in collector.batches.items()
        }

    batches_family.collect(_gc_batches)


class PrimaryNode:
    """Write-serving node with the dbDedup encoder attached."""

    def __init__(
        self,
        spec: ClusterSpec,
        *,
        clock: SimClock,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        node_name: str = "primary",
    ) -> None:
        _bind_spec(self, spec, clock, registry, tracer, node_name)
        # Inline page compression (anything but 'none') costs CPU on the
        # write path; both knobs are read on every insert.
        self.inline_block_compression = spec.block_compression != "none"
        self.use_writeback_cache = spec.use_writeback_cache
        self.db = self._fresh_store()
        self.gc = GarbageCollector(self.db, self.costs)
        self.oplog = Oplog()
        self.background_cpu_seconds = 0.0
        self.crashes = 0
        self._crashed = False
        #: Record ids still awaiting feature-index registration after a
        #: promotion — the deferred (out-of-line) rebuild drained by
        #: :meth:`drain_index_backlog`.
        self._index_backlog: list[str] = []
        if self.registry is not None:
            _install_node_collectors(self.registry, self)

    @classmethod
    def from_secondary(cls, secondary: "SecondaryNode") -> "PrimaryNode":
        """Promote a caught-up secondary: adopt its store and local oplog.

        The promoted node keeps the secondary's record store (every
        replicated byte) and its local oplog (the write-ahead history new
        secondaries resync from) — nothing is copied or replayed. What a
        secondary does *not* have is the primary-side dedup machinery:
        the feature index, chain bookkeeping and source cache. Rebuilding
        those inline would stall the first post-failover writes for the
        whole corpus, so the rebuild is deferred — record ids queue on an
        index backlog consumed incrementally (a slice per insert, more
        when idle) by :meth:`drain_index_backlog`. Until a record is
        re-indexed, new writes simply miss dedup opportunities against it
        — costing compression, never correctness.
        """
        node = cls(
            secondary.spec,
            clock=secondary.clock,
            registry=secondary.registry,
            tracer=secondary.tracer,
            node_name=secondary.node_name,
        )
        node.db = secondary.db
        node.db.node_role = "primary"
        node.gc = GarbageCollector(node.db, node.costs)
        if node.engine is not None:
            # The store's decode cache becomes the engine's source cache
            # (same invalidation contract the constructor wires).
            node.db.record_cache = node.engine.source_cache
        node.oplog = secondary.oplog
        node.crashes = secondary.crashes
        node.background_cpu_seconds = secondary.background_cpu_seconds
        if node.engine is not None:
            node._index_backlog = _insert_order(node)
            # The audit trail's queryable entries are volatile engine
            # state; rebuild them from the adopted oplog (counters stay
            # untouched — the shared registry already holds them).
            node.engine.audit.rebuild_from_oplog(
                node.oplog.entries(), node.db.records
            )
        return node

    @property
    def is_available(self) -> bool:
        """False while the simulated process is down."""
        return not self._crashed

    def _require_available(self) -> None:
        if self._crashed:
            raise NodeUnavailableError(self.node_name, "primary")

    @property
    def index_backlog_len(self) -> int:
        """Records still awaiting deferred post-promotion indexing."""
        return len(self._index_backlog)

    def drain_index_backlog(self, max_records: int | None = None) -> int:
        """Consume part of the deferred post-promotion index rebuild.

        Re-indexes up to ``max_records`` backlog records (all of them
        when None) through the engine's restart-path rebuild, charging
        the sketching CPU as background work. Returns records indexed.
        """
        if self.engine is None or not self._index_backlog:
            return 0
        if max_records is None:
            max_records = len(self._index_backlog)
        chunk = self._index_backlog[:max_records]
        self._index_backlog = self._index_backlog[max_records:]
        charged = sum(
            len(self.db.records[record_id].payload)
            for record_id in chunk
            if record_id in self.db.records
        )
        self.background_cpu_seconds += charged * self.costs.cpu_chunk_byte_s
        # Budgeted rebuilds can spill while repopulating; that maintenance
        # CPU accumulates on the engine and is background work here too.
        before = self.engine.index_maintenance_cpu_seconds
        indexed = self.engine.rebuild_from(self.db, order=chunk)
        self.background_cpu_seconds += (
            self.engine.index_maintenance_cpu_seconds - before
        )
        return indexed

    def _fresh_store(self, disk: SimDisk | None = None) -> Database:
        """A fresh dedup engine (sharing the node's registry and tracer)
        and a primary store whose decode cache is its source cache.

        A shared registry sees a rebuilt engine's collectors shadow the
        dead engine's, so restarted state reads fresh.
        """
        self.engine = (
            DedupEngine(
                config=self.config,
                costs=self.costs,
                observers=(TracingObserver(self.tracer),),
                registry=self.registry,
            )
            if self.dedup_enabled
            else None
        )
        return _build_database(
            self, "primary",
            self.engine.source_cache if self.engine else None, disk,
        )

    # -- crash/recovery (§4.4) ------------------------------------------------

    def crash(self) -> None:
        """Simulated process crash: volatile state (record store, engine
        index, write-back cache) is lost; the oplog — the write-ahead
        record of every accepted operation — survives on durable storage.
        Call :meth:`restart` to recover."""
        self.crashes += 1
        self._crashed = True

    def restart(self) -> ReplayReport:
        """Recover from a crash by replaying the oplog.

        :func:`_recover` rebuilds the record store from every oplog entry
        on a fresh dedup engine — everything lands raw and re-compresses
        over time, losing nothing but transient disk space. The engine's
        feature index is then repopulated from the recovered records in
        original insert order, so the restarted node finds similar
        records exactly as the pre-crash node would have.

        Returns the :class:`~repro.db.recovery.ReplayReport`.

        Raises:
            ValueError: when the oplog was truncated at a checkpoint — the
                lost history is unrecoverable from the log alone; the
                node stays down with its store untouched.
        """
        _, report = _recover(self)
        self.gc = GarbageCollector(self.db, self.costs)
        if self.engine is not None:
            before = self.engine.index_maintenance_cpu_seconds
            self.engine.rebuild_from(self.db, order=_insert_order(self))
            self.background_cpu_seconds += (
                self.engine.index_maintenance_cpu_seconds - before
            )
            # Recover the queryable audit entries from the WAL; the
            # registry-backed audit counters survived the crash on the
            # shared registry and must not be re-incremented.
            self.engine.audit.rebuild_from_oplog(
                self.oplog.entries(), self.db.records
            )
        self._crashed = False
        return report

    # -- client operations (return the latency the client observes) ----------

    #: Backlog records re-indexed per client insert after a promotion —
    #: the deferred rebuild rides along on foreground traffic without
    #: stalling it (plus larger slices whenever the node goes idle).
    INDEX_REBUILD_SLICE = 8

    def insert(self, database: str, record_id: str, content: bytes) -> float:
        """Insert a record; dedup encode happens off the critical path."""
        return self.insert_batch([(database, record_id, content)])

    def insert_batch(
        self, items: list[tuple[str, str, bytes]]
    ) -> float:
        """Insert a batch of records in one client request.

        ``items`` is ``(database, record_id, content)`` triples in insert
        order. Records land raw in storage (one request overhead for the
        whole batch) and the dedup encode happens off the critical path
        (:meth:`~repro.core.engine.DedupEngine.encode_batch`, amortizing
        the vectorized sketch pass); oplog entries, write-back scheduling
        and chain bookkeeping follow insert order record by record, so
        replicas replay the same stream however the inserts were grouped.
        """
        self._require_available()
        self.drain_index_backlog(self.INDEX_REBUILD_SLICE)
        latency = self.costs.request_overhead_s
        if self.inline_block_compression:
            # Inline page compression (the Snappy configuration) costs CPU
            # on the write path, unlike dbDedup's background encode.
            total_bytes = sum(len(content) for _, _, content in items)
            latency += total_bytes * self.costs.cpu_compress_byte_s
        latency += self.db.insert_many(items)

        if self.engine is None:
            for database, record_id, content in items:
                self.oplog.append(
                    self.clock.now, "insert", database, record_id,
                    payload=content,
                )
            return latency

        results = self.engine.encode_batch(items, provider=self.db)
        for (database, record_id, content), result in zip(items, results):
            self._absorb_drained(result.drained)
            self.background_cpu_seconds += result.cpu_seconds
            if result.deduped:
                self.oplog.append(
                    self.clock.now,
                    "insert",
                    database,
                    record_id,
                    payload=result.forward_payload,
                    base_id=result.source_id,
                    encoded=True,
                )
                self._apply_writebacks(result)
            else:
                # Deferred records also land here: raw in storage, raw in
                # the oplog (the WAL must cover the record *now*; out-of-
                # line dedup later changes only the stored form, never
                # the log).
                self.oplog.append(
                    self.clock.now, "insert", database, record_id,
                    payload=content,
                )
        self.db.flush_writebacks_if_idle(max_flushes=4 * len(items))
        return latency

    def _apply_writebacks(self, result) -> None:
        """Schedule (or, in the ablation, immediately apply) write-backs."""
        if self.use_writeback_cache:
            self.db.schedule_writebacks(result.writebacks)
        else:
            # Ablation for Fig. 13b: write deltas back immediately; the
            # extra queued writes delay subsequent foreground requests.
            for entry in result.writebacks:
                self.db.apply_writeback(entry)

    def _absorb_drained(self, results) -> None:
        """Process the results of deferred records drained through the
        pipeline (riding along on an encode, or by an idle/forced drain).

        Drained records were stored (and oplogged) raw at insert time, so
        only their storage-side effects remain: write-backs and the CPU
        they burned. No oplog entries — replicas already have the bytes.
        """
        for drained in results:
            self.background_cpu_seconds += drained.cpu_seconds
            if drained.deduped:
                self._apply_writebacks(drained)

    def read(self, database: str, record_id: str) -> tuple[bytes | None, float]:
        """Client read, decoding if the record is delta-encoded."""
        self._require_available()
        content, disk_latency = self.db.read(database, record_id)
        return content, self.costs.request_overhead_s + disk_latency

    def update(self, database: str, record_id: str, content: bytes) -> float:
        """Replace a record's content."""
        self._require_available()
        latency = self.costs.request_overhead_s + self.db.update(record_id, content)
        if self.engine is not None:
            # A queued deferred copy holds the pre-update bytes; dedup-
            # processing them now would index stale content.
            self.engine.invalidate_deferred(record_id)
        self.oplog.append(
            self.clock.now, "update", database, record_id, payload=content
        )
        return latency

    def delete(self, database: str, record_id: str) -> float:
        """Delete a record."""
        self._require_available()
        latency = self.costs.request_overhead_s + self.db.delete(record_id)
        if self.engine is not None:
            # Per-record engine bookkeeping (insertion sequence) must not
            # outlive the record, or it leaks one entry per deletion.
            self.engine.forget_record(database, record_id)
            self.engine.invalidate_deferred(record_id)
        self.oplog.append(self.clock.now, "delete", database, record_id)
        return latency

    #: Deferred records dedup-processed per idle tick — bounded so one
    #: tick never monopolizes the simulated idle window.
    DEFERRED_DRAIN_SLICE = 32

    def on_idle(self) -> int:
        """Drain background work while the client is quiet (Fig. 13b)."""
        if self._crashed:
            return 0
        self.drain_index_backlog(8 * self.INDEX_REBUILD_SLICE)
        drained = self.drain_deferred_dedup(
            max_records=self.DEFERRED_DRAIN_SLICE
        )
        collected = self.maybe_collect_garbage()
        return self.db.flush_writebacks_if_idle() + drained + collected

    def maybe_collect_garbage(self) -> int:
        """Run one GC batch when idle and worth the trip (§3.3.2 gating).

        Three gates, all cheap: the config opt-in (``gc_enabled``), the
        idleness signal (an empty disk queue — the same signal the
        write-back flusher uses), and a reclaimable-bytes floor
        (``gc_reclaim_threshold_bytes``) so idle slices do not burn
        planning CPU on a clean store. Returns the
        units of GC work done (re-roots + tombstones + pages freed).
        """
        if (
            not self.config.gc_enabled
            or self._crashed
            or not self.db.disk.is_idle()
        ):
            return 0
        plan = self.gc.plan()
        if plan.estimated_reclaim_bytes < self.config.gc_reclaim_threshold_bytes:
            return 0
        report = self.gc.run(plan=plan, max_records=MAX_BATCH_RECORDS)
        self.background_cpu_seconds += report.cpu_seconds
        return (
            report.reroots_applied
            + report.tombstones_removed
            + report.pages_freed
        )

    def collect_garbage(self, *, dry_run: bool = False, max_records=None):
        """Run (or just plan) a GC batch on demand, ignoring idleness.

        With ``dry_run`` returns the :class:`~repro.core.gc.GcPlan`
        without touching the store; otherwise runs the rollback-safe
        batch and returns its :class:`~repro.core.gc.GcReport`.
        """
        self._require_available()
        plan = self.gc.plan()
        if dry_run:
            return plan
        report = self.gc.run(
            plan=plan,
            max_records=(
                max_records if max_records is not None else MAX_BATCH_RECORDS
            ),
        )
        self.background_cpu_seconds += report.cpu_seconds
        return report

    def drain_deferred_dedup(
        self, max_records: int | None = None, force: bool = False
    ) -> int:
        """Run out-of-line dedup passes over queued deferred records.

        Gated on §3.3.2's idleness signal (an empty disk queue) unless
        ``force`` is set — the finalize path forces a full drain so a
        run's storage state converges with the all-inline equivalent. Returns the records processed.
        """
        if self.engine is None or self._crashed:
            return 0
        if not force and not self.db.disk.is_idle():
            return 0
        results = self.engine.drain_deferred(
            self.db, max_records=max_records
        )
        self._absorb_drained(results)
        return len(results)

    @property
    def deferred_queue_len(self) -> int:
        """Records awaiting an out-of-line dedup pass (0 without dedup)."""
        if self.engine is None:
            return 0
        return self.engine.pending_deferred()

    def checkpoint(self, path, replica_cursors: list[int] | None = None) -> int:
        """Durability checkpoint: snapshot the store, truncate the oplog.

        Writes a snapshot file and discards oplog entries every consumer
        has seen — the minimum of the per-replica cursors (if given) and
        the built-in sync cursor. Recovery is then snapshot + replay of
        the retained tail. Returns the number of oplog entries discarded.
        """
        from repro.db.snapshot import save_snapshot

        save_snapshot(self.db, path)
        if replica_cursors:
            safe = min(replica_cursors)
        else:
            safe = self.oplog.synced_seq
        return self.oplog.truncate_before(safe)

    def compact_storage(self, max_records: int | None = None):
        """Run a background compaction pass (extension, see
        :mod:`repro.core.maintenance`): re-encode orphaned raw records
        against the best similar record the index still knows.

        Returns the :class:`~repro.core.maintenance.CompactionReport`, or
        None when dedup is disabled on this node.
        """
        if self.engine is None:
            return None
        from repro.core.maintenance import BackgroundCompactor

        report = BackgroundCompactor(self.engine, self.db).compact(max_records)
        self.db.flush_writebacks_if_idle()
        return report


class SecondaryNode:
    """Replica that replays oplog batches through the re-encoder."""

    def __init__(
        self,
        spec: ClusterSpec,
        *,
        clock: SimClock,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        node_name: str = "secondary",
    ) -> None:
        _bind_spec(self, spec, clock, registry, tracer, node_name)
        self.db = self._fresh_store()
        self.oplog = Oplog()
        self.background_cpu_seconds = 0.0
        self.decode_fallbacks = 0
        self.crashes = 0
        self._crashed = False
        if self.registry is not None:
            _install_node_collectors(self.registry, self)
            self.registry.counter(
                "secondary_decode_fallbacks_total",
                "Encoded entries applied raw because the base was missing",
                ("node",),
            ).collect(lambda: {(self.node_name,): float(self.decode_fallbacks)})

    @classmethod
    def from_demoted_primary(
        cls, node: PrimaryNode, point: int
    ) -> tuple["SecondaryNode", list[OplogEntry]]:
        """Rebuild a demoted old primary as a secondary replica.

        One :func:`_recover` call truncates the node's oplog at the
        divergence ``point`` and replays the retained log into a fresh
        store on the node's surviving disk; the node re-enters the replica
        set with a clean re-encoder (existing chains stay as stored;
        future encoded entries start new ones). Returns the replica and
        the dropped entries (the unreplicated writes it gives up).

        Raises:
            ValueError: when the node's oplog history was truncated at a
                checkpoint — same contract as :meth:`PrimaryNode.restart`;
                the rejoin then needs the checkpoint snapshot. Raised before
                the replica (and its metric collectors) exists.
        """
        _require_whole_history(node.oplog)
        secondary = cls(
            node.spec,
            clock=node.clock,
            registry=node.registry,
            tracer=node.tracer,
            node_name=node.node_name,
        )
        secondary.oplog = node.oplog
        secondary.crashes = node.crashes
        secondary.background_cpu_seconds = node.background_cpu_seconds
        secondary.db = node.db
        dropped, _ = _recover(secondary, drop_from=point)
        return secondary, dropped

    @property
    def is_available(self) -> bool:
        """False while the simulated process is down."""
        return not self._crashed

    def rollback_to(self, seq: int) -> list[OplogEntry]:
        """Divergence rollback: drop local history from ``seq`` onward.

        :func:`_recover` truncates the local oplog's suffix and rebuilds
        the store by replaying the retained prefix. Returns the dropped
        entries (the writes this replica is giving up); empty, with no
        rebuild, when already aligned.
        """
        if seq >= self.oplog.next_seq:
            return []
        dropped, _ = _recover(self, drop_from=seq)
        return dropped

    def _fresh_store(self, disk: SimDisk | None = None) -> Database:
        """A fresh re-encoder and a replica store whose decode cache is
        its source cache."""
        self.reencoder = (
            SecondaryReencoder(self.config, self.costs)
            if self.dedup_enabled
            else None
        )
        return _build_database(
            self, "secondary",
            self.reencoder.planner.source_cache if self.reencoder else None,
            disk,
        )

    # -- crash/recovery (§4.4) ------------------------------------------------

    def crash(self) -> None:
        """Simulated process crash; the replica's own oplog survives."""
        self.crashes += 1
        self._crashed = True

    def restart(self) -> ReplayReport:
        """Recover by replaying the replica's local oplog.

        The secondary appends every shipped entry to its own log before
        applying it, so :func:`_recover` replaying that log (forward
        deltas decode against already-replayed bases, the same path the
        live replica uses) reconverges it to the pre-crash client-visible
        state. A fresh re-encoder starts with empty chain bookkeeping:
        subsequent encoded entries simply start new chains, which changes
        storage forms but never contents.

        Returns the :class:`~repro.db.recovery.ReplayReport`.

        Raises:
            ValueError: when the oplog was truncated at a checkpoint
                (same contract as :meth:`PrimaryNode.restart`).
        """
        _, report = _recover(self)
        self._crashed = False
        return report

    def apply_batch(self, entries: list[OplogEntry], primary: PrimaryNode) -> None:
        """Replay one replication batch (§4.1 secondary-side flow)."""
        for entry in entries:
            if entry.op == "insert":
                self._apply_insert(entry, primary)
                continue
            self.oplog.append(
                entry.timestamp,
                entry.op,
                entry.database,
                entry.record_id,
                payload=entry.payload,
                base_id=entry.base_id,
                encoded=entry.encoded,
            )
            if entry.op == "update":
                self.db.update(entry.record_id, entry.payload)
            elif entry.op == "delete":
                self.db.delete(entry.record_id)
        self.db.flush_writebacks_if_idle()

    def _apply_insert(self, entry: OplogEntry, primary: PrimaryNode) -> None:
        # The local oplog records each insert *as applied* (encoded only
        # when the forward delta actually decoded here), so a post-crash
        # replay of the local log never depends on a base this replica
        # never had.
        if not entry.encoded or self.reencoder is None:
            self.oplog.append(
                entry.timestamp, "insert", entry.database, entry.record_id,
                payload=entry.payload,
            )
            self.db.insert(entry.database, entry.record_id, entry.payload)
            if self.reencoder is not None:
                self.reencoder.apply_raw(entry.record_id, entry.payload)
            return
        outcome = self.reencoder.apply_encoded(
            entry.record_id, entry.base_id, entry.payload, provider=self.db
        )
        if outcome is None:
            # §4.1 footnote 4: base missing locally — ask the primary for
            # the raw record instead of decoding.
            self.decode_fallbacks += 1
            content, _ = primary.db.read(entry.database, entry.record_id)
            if content is None:
                return
            self.oplog.append(
                entry.timestamp, "insert", entry.database, entry.record_id,
                payload=content,
            )
            self.db.insert(entry.database, entry.record_id, content)
            return
        self.oplog.append(
            entry.timestamp, "insert", entry.database, entry.record_id,
            payload=entry.payload, base_id=entry.base_id, encoded=True,
        )
        self.background_cpu_seconds += outcome.cpu_seconds
        # Re-encode CPU lands on the open replica_apply span (if any).
        self.tracer.add_cost("cpu_s", outcome.cpu_seconds)
        self.db.insert(entry.database, entry.record_id, outcome.content)
        self.db.schedule_writebacks(outcome.writebacks)

"""The dbDedup encoding engine (§3.1 workflow, §3.2 encodings, §4.1 flow).

For each inserted record the engine runs the four-step pipeline —
feature extraction → index lookup → source selection → delta compression —
and returns an :class:`EncodeResult` describing

* what to ship to replicas (the forward-encoded oplog payload), and
* which older records to re-encode on disk (backward/hop write-backs),

leaving the actual storage mutations to the database, which schedules them
through the lossy write-back cache. The engine only touches storage
through the narrow :class:`RecordProvider` protocol, so it is equally
testable against a dict as against the full simulated DBMS.

The workflow itself lives in :mod:`repro.core.pipeline` as an explicit
stage list; :meth:`DedupEngine.encode_batch` drives a batch of records
through it — amortizing the vectorized sketch extraction across them —
and :meth:`DedupEngine.encode` is its batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Protocol, Sequence

from repro.cache.writeback import WriteBackEntry
from repro.chunking.cdc import ContentDefinedChunker
from repro.core.admission import (
    DECISION_DEFER,
    AdmissionController,
)
from repro.core.audit import AuditTrail
from repro.core.config import DedupConfig
from repro.core.pipeline import (
    EncodeContext,
    PipelineObserver,
    StageStatsObserver,
    build_default_pipeline,
)
from repro.core.planner import CpuMeter, WritebackPlanner
from repro.core.selector import SourceSelector
from repro.core.size_filter import AdaptiveSizeFilter
from repro.core.stats import DedupStats
from repro.index.tiered import FeatureIndex, build_index
from repro.obs.registry import MetricsRegistry, slo_events_family
from repro.sim.costs import CostModel
from repro.sketch.features import SketchExtractor


class RecordProvider(Protocol):
    """What the engine needs from the database it serves."""

    def fetch_content(self, record_id: str) -> bytes | None:
        """Raw (decoded) content of a record, or None if unavailable.

        Implementations charge whatever I/O this costs; the engine calls
        it only on source-cache misses.
        """
        ...

    def stored_size(self, record_id: str) -> int:
        """Bytes the record currently occupies on disk (0 if unknown)."""
        ...


@dataclass(frozen=True)
class EncodeResult:
    """Everything the database needs to finish one insert.

    Attributes:
        record_id / database / raw_size: identity of the new record.
        deduped: True if a source was selected and the delta paid off.
        source_id: the selected source record (None when unique).
        forward_payload: serialized forward delta for the oplog; None for
            unique records (the oplog then carries the raw content).
        oplog_size: bytes this record contributes to replication traffic.
        writebacks: backward/hop re-encodings to schedule via the lossy
            write-back cache.
        ideal_stored_delta: net change in post-dedup storage bytes if every
            write-back is applied (new raw record minus planned savings).
        overlapped: the source was not its chain's tail (Fig. 5).
        source_was_cached: source content came from the source record cache.
        cpu_seconds: simulated CPU time the encode consumed.
        deferred: the record was parked for an out-of-line dedup pass
            instead of running the pipeline — store raw, oplog raw; its
            statistics are counted once, when it is later drained.
        drained: results of deferred records the engine pushed through
            the pipeline as part of producing *this* result (same-stream
            order preservation, or queue-bound backpressure). The caller
            must process their write-backs and CPU like any other encode;
            they produce no oplog entries (their raw payload already
            shipped at insert time).
    """

    record_id: str
    database: str
    raw_size: int
    deduped: bool
    source_id: str | None = None
    forward_payload: bytes | None = None
    oplog_size: int = 0
    writebacks: tuple[WriteBackEntry, ...] = ()
    ideal_stored_delta: int = 0
    overlapped: bool = False
    source_was_cached: bool = False
    cpu_seconds: float = 0.0
    deferred: bool = False
    drained: tuple["EncodeResult", ...] = ()


class DedupEngine:
    """Primary-side deduplication engine."""

    def __init__(
        self,
        *,
        config: DedupConfig | None = None,
        costs: CostModel | None = None,
        observers: Sequence[PipelineObserver] = (),
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.config = config if config is not None else DedupConfig()
        self.costs = costs if costs is not None else CostModel()
        #: Shared observability registry; the cluster passes its own so
        #: engine, storage, and replication metrics export together.
        self.registry = registry if registry is not None else MetricsRegistry()
        chunker = ContentDefinedChunker(avg_size=self.config.chunk_size)
        self.extractor = SketchExtractor(
            chunker=chunker, top_k=self.config.top_k, seed=self.config.murmur_seed
        )
        self.planner = WritebackPlanner(self.config)
        self.selector = SourceSelector(
            self.planner.source_cache, self.config.cache_reward
        )
        self.admission = AdmissionController(
            mode=self.config.admission_mode,
            threshold=self.config.governor_threshold,
            window=self.config.governor_window,
            inline_yield_threshold=self.config.admission_inline_threshold,
            bypass_yield_threshold=self.config.admission_bypass_threshold,
            bypass_patience=self.config.admission_bypass_patience,
            locality_weight=self.config.admission_locality_weight,
            locality_depth=self.config.admission_locality_depth,
            max_deferred_records=self.config.admission_queue_records,
        )
        #: CPU split the admission experiment reports: pipeline work done
        #: synchronously with client inserts vs. during deferred drains.
        self.inline_cpu_seconds = 0.0
        self.outofline_cpu_seconds = 0.0
        self.size_filter = AdaptiveSizeFilter(
            cut_percentile=self.config.size_filter_percentile,
            refresh_interval=self.config.size_filter_interval,
            enabled=self.config.size_filter_enabled,
        )
        self.stats = DedupStats(
            registry=self.registry,
            saving_sample_cap=self.config.saving_sample_cap,
            source_cache=self.planner.source_cache,
        )
        #: Per-record dedup decision log, fed by the accounting stage in
        #: lockstep with ``stats`` so the audit reconciliation identity
        #: holds by construction. Rebuilt from the oplog after a
        #: crash/failover (see ``PrimaryNode.restart``/``from_secondary``).
        self.audit = AuditTrail(registry=self.registry)
        #: First-class SLO events (shared family; the cluster feeds
        #: ``failover_stall`` into the same one). Children are cached so
        #: the per-insert cost is one dict hit plus a float add.
        self._slo_events = slo_events_family(self.registry)
        self._slo_children: dict[tuple[str, str], object] = {}
        #: Per-logical-database statistics (savings samples only kept
        #: globally, to bound memory).
        self.database_stats: dict[str, DedupStats] = {}
        #: The effective index configuration (flat knobs already folded).
        self.index_spec = self.config.resolved_index()
        self._indexes: dict[str, FeatureIndex] = {}
        #: Simulated CPU spent on tier maintenance (demotions/promotions),
        #: charged as background work via :meth:`charge_index_maintenance`.
        self.index_maintenance_cpu_seconds = 0.0
        #: record id → global insertion sequence, used for recency
        #: tie-breaks in source selection. Pruned on record deletion and
        #: on governor-driven partition teardown.
        self._insert_seq: dict[str, int] = {}
        self._next_seq = 0
        #: database → ids registered while its partition lived, so a
        #: partition teardown can prune ``_insert_seq`` without a scan.
        self._partition_records: dict[str, set[str]] = {}
        #: The staged encode workflow (see :mod:`repro.core.pipeline`).
        self.pipeline = build_default_pipeline(
            self, observers=[StageStatsObserver(self.stats), *observers]
        )
        self._install_collectors()

    # -- convenience views -----------------------------------------------------

    @property
    def source_cache(self):
        """The planner's source record cache (shared with the selector)."""
        return self.planner.source_cache

    @property
    def chains(self):
        """The planner's chain registry."""
        return self.planner.chains

    @property
    def index_memory_bytes(self) -> int:
        """Total feature-index memory across database partitions."""
        return sum(index.memory_bytes for index in self._indexes.values())

    def note_slo_event(self, event: str, tenant: str) -> None:
        """Bump the shared ``slo_events_total{event,tenant}`` counter."""
        key = (event, tenant)
        child = self._slo_children.get(key)
        if child is None:
            child = self._slo_events.labels(event, tenant)
            self._slo_children[key] = child
        child.inc()

    def stats_for(self, database: str) -> DedupStats:
        """Per-database statistics (created on first use)."""
        stats = self.database_stats.get(database)
        if stats is None:
            stats = DedupStats(
                registry=self.registry, scope=database,
                keep_saving_samples=False,
            )
            self.database_stats[database] = stats
        return stats

    def _install_collectors(self) -> None:
        """Export component-native counters through the shared registry.

        Caches and index partitions keep counting in their own plain
        attributes (zero registry cost on their hot paths); these lazy
        collectors read them out at snapshot time. Index families are
        labeled by database because partitions come and go with the
        governor.
        """
        reg = self.registry
        cache = self.planner.source_cache
        reg.counter(
            "source_cache_hits_total",
            "Source-cache lookups served from memory",
        ).collect(lambda: {(): cache.hits})
        reg.counter(
            "source_cache_misses_total",
            "Source-cache lookups that fell through to storage",
        ).collect(lambda: {(): cache.misses})
        reg.counter(
            "source_cache_evictions_total",
            "Source-cache entries evicted by the byte budget",
        ).collect(lambda: {(): cache.evictions})
        reg.gauge(
            "source_cache_used_bytes", "Bytes held by the source cache",
        ).collect(lambda: {(): cache.used_bytes})

        def index_values(attr):
            return lambda: {
                (database,): getattr(index, attr)
                for database, index in self._indexes.items()
            }

        label = ("database",)
        reg.counter(
            "cuckoo_lookups_total", "Feature-index lookups", label,
        ).collect(index_values("lookups"))
        reg.counter(
            "cuckoo_inserts_total", "Feature-index insertions", label,
        ).collect(index_values("inserts"))
        reg.counter(
            "cuckoo_displacements_total",
            "Cuckoo kicks (entries displaced during insertion)", label,
        ).collect(index_values("displacements"))
        reg.counter(
            "cuckoo_evictions_total",
            "Entries LRU-evicted from full buckets", label,
        ).collect(index_values("lru_evictions"))
        reg.gauge(
            "cuckoo_entries", "Live feature-index entries", label,
        ).collect(lambda: {
            (database,): float(len(index))
            for database, index in self._indexes.items()
        })
        reg.gauge(
            "cuckoo_memory_bytes", "Feature-index memory footprint", label,
        ).collect(lambda: {
            (database,): float(index.memory_bytes)
            for database, index in self._indexes.items()
        })

        # Kind-uniform index families: the cuckoo index carries the same
        # hot_hits/misses split as the tiered one, and missing tier
        # attributes read as 0 (a cuckoo index has no cold tier), so the
        # reconciliation identity hot + cold + miss == lookups holds for
        # every index kind.
        def tier_values(attr, default=0):
            return lambda: {
                (database,): float(getattr(index, attr, default))
                for database, index in self._indexes.items()
            }

        reg.counter(
            "index_lookups_total", "Feature-index lookups (all tiers)",
            label,
        ).collect(tier_values("lookups"))
        reg.counter(
            "index_hot_hits_total",
            "Lookups answered by the exact hot tier", label,
        ).collect(tier_values("hot_hits"))
        reg.counter(
            "index_cold_hits_total",
            "Lookups answered by the approximate cold tier", label,
        ).collect(tier_values("cold_hits"))
        reg.counter(
            "index_misses_total",
            "Lookups answered by neither tier", label,
        ).collect(tier_values("misses"))
        reg.counter(
            "index_cold_false_positives_total",
            "Cold-tier Bloom hits for features never demoted", label,
        ).collect(tier_values("cold_false_positives"))
        reg.counter(
            "index_demotions_total",
            "Hot-tier entries spilled to the cold tier", label,
        ).collect(tier_values("demotions"))
        reg.counter(
            "index_promotions_total",
            "Cold features promoted back into the hot tier", label,
        ).collect(tier_values("promotions"))
        tier_label = ("database", "tier")
        reg.gauge(
            "index_tier_residency",
            "Entries resident per index tier", tier_label,
        ).collect(lambda: {
            key: value
            for database, index in self._indexes.items()
            for key, value in (
                ((database, "hot"),
                 float(getattr(index, "hot_entries", len(index)))),
                ((database, "cold"),
                 float(getattr(index, "cold_records", 0))),
            )
        })
        reg.gauge(
            "index_tier_memory_bytes",
            "Charged index memory per tier", tier_label,
        ).collect(lambda: {
            key: value
            for database, index in self._indexes.items()
            for key, value in (
                ((database, "hot"),
                 float(getattr(index, "hot_bytes", index.memory_bytes))),
                ((database, "cold"),
                 float(getattr(index, "cold_bytes", 0))),
            )
        })
        reg.gauge(
            "index_bytes_per_record",
            "Index memory amortized over the partition's live records",
            label,
        ).collect(lambda: {
            (database,): index.memory_bytes
            / max(1, len(self._partition_records.get(database, ())))
            for database, index in self._indexes.items()
        })
        reg.counter(
            "index_maintenance_cpu_seconds_total",
            "Simulated CPU spent demoting/promoting index entries",
        ).collect(lambda: {(): self.index_maintenance_cpu_seconds})
        reg.gauge(
            "governor_dedup_enabled",
            "1 while admission control keeps dedup on for the database",
            label,
        ).collect(lambda: {
            (database,): 0.0
            if database in self.admission.disabled_databases
            else 1.0
            for database in self.database_stats
        })
        admission = self.admission

        def owned(family):
            # The admission families are fed exclusively by the current
            # engine. An engine rebuild (restart, promotion) must reset
            # them as one coherent group — the reconciliation identity
            # over defer decisions / drains / queue depth only holds
            # within a single engine generation, and the dead engine's
            # sparse gauge rows would otherwise leak through shadowing.
            family.clear_collectors()
            return family

        owned(reg.counter(
            "admission_decisions_total",
            "Admission decisions per stream (inline / defer / bypass)",
            ("decision", "stream"),
        )).collect(lambda: {
            key: float(count)
            for key, count in admission.decision_counts.items()
        })
        owned(reg.gauge(
            "deferred_queue_depth",
            "Records awaiting an out-of-line dedup pass", ("stream",),
        )).collect(lambda: {
            (database,): float(admission.pending(database))
            for database in admission.databases_with_pending()
        })
        owned(reg.counter(
            "outofline_dedup_records_total",
            "Deferred records drained through the dedup pipeline",
        )).collect(lambda: {(): float(admission.outofline_records_total)})
        owned(reg.counter(
            "outofline_dedup_bytes_total",
            "Raw bytes of deferred records drained through the pipeline",
        )).collect(lambda: {(): float(admission.outofline_bytes_total)})
        owned(reg.counter(
            "deferred_discarded_total",
            "Deferred records discarded (stream bypassed, or superseded "
            "by a client update/delete)",
        )).collect(lambda: {(): float(admission.deferred_discarded_total)})
        owned(reg.counter(
            "admission_inline_cpu_seconds_total",
            "Encode CPU spent synchronously with client inserts",
        )).collect(lambda: {(): self.inline_cpu_seconds})
        owned(reg.counter(
            "admission_outofline_cpu_seconds_total",
            "Encode CPU spent draining deferred records",
        )).collect(lambda: {(): self.outofline_cpu_seconds})
        chunker = self.extractor.chunker

        owned(reg.counter(
            "chunker_bytes_scanned_total",
            "Bytes pushed through the CDC gear hash, per chunker lane",
            ("impl",),
        )).collect(lambda: {
            (impl,): float(count)
            for impl, count in chunker.bytes_scanned.items()
            if count
        })
        owned(reg.counter(
            "chunker_skip_bytes_total",
            "Bytes the scalar chunker lane skipped past min-chunk regions",
        )).collect(lambda: {(): float(chunker.bytes_skipped)})
        extractor = self.extractor
        owned(reg.counter(
            "sketch_chunks_hashed_total",
            "Chunks feature-hashed for similarity sketches, per murmur lane",
            ("lane",),
        )).collect(lambda: {
            (lane,): float(count)
            for lane, count in extractor.chunks_hashed.items()
            if count
        })
        reg.gauge(
            "size_filter_threshold_bytes",
            "Adaptive size filter cut-off per database", label,
        ).collect(lambda: {
            (database,): float(self.size_filter.threshold(database))
            for database in self.database_stats
        })

    def describe(self) -> str:
        """Operator-facing summary: per-database status + per-stage table."""
        from repro.bench.report import render_table

        rows = []
        for database in sorted(self.database_stats):
            stats = self.database_stats[database]
            rows.append(
                (
                    database,
                    stats.records_seen,
                    stats.dedup_hit_ratio,
                    stats.network_compression_ratio,
                    "on" if self.admission.is_enabled(database) else "OFF",
                    self.size_filter.threshold(database),
                )
            )
        status = render_table(
            "dbDedup engine status",
            ["database", "records", "hit ratio", "net ratio", "governor",
             "size cut-off"],
            rows,
        )
        return status + "\n\n" + self.describe_pipeline()

    def describe_pipeline(self) -> str:
        """Per-stage instrumentation table: records in/out, drops, CPU."""
        from repro.bench.report import render_table

        rows = []
        for name in self.pipeline.stage_names():
            rows.append(
                (
                    name,
                    self.stats.stage_records_in.get(name, 0),
                    self.stats.stage_records_out.get(name, 0),
                    self.stats.drops_at_stage(name),
                    f"{self.stats.stage_cpu_seconds.get(name, 0.0):.4f}",
                )
            )
        table = render_table(
            "encode pipeline stages",
            ["stage", "in", "out", "drops", "cpu s"],
            rows,
        )
        if self.stats.drop_reasons:
            reasons = ", ".join(
                f"{reason}={count}"
                for reason, count in sorted(self.stats.drop_reasons.items())
            )
            table += f"\ndrop reasons: {reasons}"
            by_stream = self.stats.drop_reasons_by_stream
            if by_stream and set(by_stream) != {"_all"}:
                for stream in sorted(by_stream):
                    reasons = ", ".join(
                        f"{reason}={count}"
                        for reason, count in sorted(by_stream[stream].items())
                    )
                    table += f"\n  drops[{stream}]: {reasons}"
        return table

    def index_partitions(self) -> list[tuple[str, FeatureIndex]]:
        """Live ``(database, index)`` partitions (invariant checking)."""
        return list(self._indexes.items())

    def index_for(self, database: str) -> FeatureIndex:
        """The database's feature-index partition (created on demand)."""
        index = self._indexes.get(database)
        if index is None:
            index = build_index(self.index_spec)
            self._indexes[database] = index
        return index

    def charge_index_maintenance(self, index, meter=None) -> float:
        """Convert an index's pending tier-maintenance bytes to CPU time.

        Demotions and promotions move entries between tiers; the bytes
        moved accumulate on the index (``drain_maintenance_bytes``, 0 for
        a plain cuckoo index) and are converted here at the cost model's
        ``cpu_index_maintain_byte_s`` rate. With a ``meter`` the charge
        rides the current encode's CPU total (and therefore the node's
        background-CPU ledger); without one it only lands on the engine's
        :attr:`index_maintenance_cpu_seconds`, which always accumulates
        the charge and is what the rebuild paths read deltas from.
        """
        drain = getattr(index, "drain_maintenance_bytes", None)
        if drain is None:
            return 0.0
        pending = drain()
        if not pending:
            return 0.0
        seconds = pending * self.costs.cpu_index_maintain_byte_s
        self.index_maintenance_cpu_seconds += seconds
        if meter is not None:
            meter.charge_index_maintenance(pending)
        return seconds

    def rebuild_from(self, db, order: list[str] | None = None) -> int:
        """Repopulate engine state from an existing database (restart path).

        A freshly restored node (snapshot or oplog replay) has records but
        an empty feature index, source cache and chain bookkeeping — new
        inserts would find no similar records. This walks the live records
        (in ``order`` if given, else sorted by record id), re-extracts
        sketches, and re-registers everything. Returns the number of
        records indexed.

        Chains are *not* reconstructed (stored base pointers already
        encode them); future inserts simply start new chains, exactly as
        if the existing records had been their sources all along.
        """
        record_ids = order if order is not None else sorted(db.records)
        indexed = 0
        for record_id in record_ids:
            record = db.records.get(record_id)
            if record is None or record.deleted:
                continue
            content = db.fetch_content(record_id)
            if content is None:
                continue
            sketch = self.extractor.sketch(content)
            index = self.index_for(record.database)
            for feature in sketch.features:
                index.insert(feature, record_id)
            self.register_insert(record.database, record_id)
            self.source_cache.admit(record_id, content)
            indexed += 1
        # Tiered rebuilds can demote while repopulating; settle the
        # maintenance bytes into the engine's CPU ledger so the caller
        # (node restart / backlog drain) can charge the delta.
        for index in self._indexes.values():
            self.charge_index_maintenance(index)
        return indexed

    # -- the workflow ------------------------------------------------------------

    def encode(
        self,
        database: str,
        record_id: str,
        content: bytes,
        provider: RecordProvider,
    ) -> EncodeResult:
        """Encode one record: the batch of one of :meth:`encode_batch`."""
        return self.encode_batch([(database, record_id, content)], provider)[0]

    def encode_batch(
        self,
        items: Sequence[tuple[str, str, bytes]],
        provider: RecordProvider,
    ) -> list[EncodeResult]:
        """Run the dedup workflow for a batch of inserted records.

        Args:
            items: ``(database, record_id, content)`` triples in insert
                order.
            provider: storage access shared by the whole batch.

        Each record takes the admission decision, then the pipeline. A
        ``defer`` decision instead parks the record on the admission
        queue and returns a raw, :attr:`EncodeResult.deferred` result
        without touching the pipeline or its statistics — the record is
        counted exactly once, when a later drain pushes it through. An
        inline decision first drains any queued records *of the same
        stream*, so each stream's records enter the pipeline in insert
        order (which makes a hybrid run byte-identical to an all-inline
        run after the queue drains).

        Before that loop, a batch lets every stage precompute over all of
        it (``prepare_batch`` — the vectorized sketch pass); this changes
        where sketching is done, never a result. A single record skips
        it: there is nothing to amortize, and sketching ahead of the
        gates would chunk and hash a record they may drop. So does a
        batch whose records can defer (hybrid mode, or a non-empty
        queue): which of them reach the sketch stage is then decided
        record by record.
        """
        admission = self.admission
        contexts = [self._context(*item, provider) for item in items]
        if (
            len(contexts) > 1
            and not admission.supports_defer
            and not admission.pending_total
        ):
            for stage in self.pipeline.stages:
                stage.prepare_batch(contexts)
        results: list[EncodeResult] = []
        for item, ctx in zip(items, contexts):
            database = ctx.database
            decision = admission.decide(database)
            admission.note_decision(database, decision)
            if decision == DECISION_DEFER:
                self.note_slo_event("admission_defer", database)
                results.append(self._defer_record(*item, provider))
                continue
            drained = self._drain_stream(database, provider)
            self.pipeline.run(ctx)
            result = ctx.result
            self.inline_cpu_seconds += result.cpu_seconds
            if drained:
                result = replace(result, drained=tuple(drained))
            results.append(result)
        return results

    def _context(
        self,
        database: str,
        record_id: str,
        content: bytes,
        provider: RecordProvider,
    ) -> EncodeContext:
        return EncodeContext(
            database=database,
            record_id=record_id,
            content=content,
            provider=provider,
            meter=CpuMeter(self.costs),
        )

    def _encode_outofline(
        self,
        database: str,
        record_id: str,
        content: bytes,
        provider: RecordProvider,
    ) -> EncodeResult:
        ctx = self._context(database, record_id, content, provider)
        self.pipeline.run(ctx)
        result = ctx.result
        self.outofline_cpu_seconds += result.cpu_seconds
        self.admission.note_outofline(database, result.raw_size)
        return result

    def _defer_record(
        self,
        database: str,
        record_id: str,
        content: bytes,
        provider: RecordProvider,
    ) -> EncodeResult:
        """Park one record on the deferred queue; store and oplog it raw.

        Backpressure (§3.3.2's queue-length trigger, inverted): when the
        queue is at its bound, the oldest entries are forced through the
        pipeline *now* — deferred work is never dropped, because a
        dropped record would silently diverge from the all-inline run.
        """
        admission = self.admission
        drained: list[EncodeResult] = []
        while admission.pending_total >= admission.max_deferred_records:
            oldest = admission.pop_oldest()
            if oldest is None:
                break
            # The stalled party is the *inserting* stream (``database``):
            # its insert blocks while someone else's backlog force-drains.
            self.note_slo_event("backpressure_stall", database)
            drained.append(self._encode_outofline(*oldest, provider))
        admission.defer(database, record_id, content)
        raw_size = len(content)
        return EncodeResult(
            record_id=record_id,
            database=database,
            raw_size=raw_size,
            deduped=False,
            oplog_size=raw_size,
            ideal_stored_delta=raw_size,
            cpu_seconds=0.0,
            deferred=True,
            drained=tuple(drained),
        )

    def _drain_stream(
        self, database: str, provider: RecordProvider
    ) -> list[EncodeResult]:
        """Push every queued record of one stream through the pipeline.

        Runs before an inline encode of the same stream so per-stream
        pipeline order always matches insert order. Entries of a stream
        that got bypassed mid-drain are discarded by the index teardown
        in :meth:`observe_admission`, which empties the queue for us.
        """
        results: list[EncodeResult] = []
        while True:
            entry = self.admission.pop_deferred(database)
            if entry is None:
                return results
            record_id, content = entry
            results.append(
                self._encode_outofline(database, record_id, content, provider)
            )

    def drain_deferred(
        self,
        provider: RecordProvider,
        max_records: int | None = None,
    ) -> list[EncodeResult]:
        """Drain queued deferred records (globally oldest first).

        Called from the idle hook (``PrimaryNode.on_idle``, driven by
        ``repro.db.cluster.idle``) and from ``Cluster.finalize``. Global-
        oldest order preserves each stream's FIFO order, which is all the
        equivalence property needs. Returns the drained results; the
        caller handles their write-backs and CPU accounting.
        """
        results: list[EncodeResult] = []
        while max_records is None or len(results) < max_records:
            oldest = self.admission.pop_oldest()
            if oldest is None:
                break
            results.append(self._encode_outofline(*oldest, provider))
        return results

    def pending_deferred(self, database: str | None = None) -> int:
        """Deferred records awaiting an out-of-line pass."""
        if database is None:
            return self.admission.pending_total
        return self.admission.pending(database)

    def invalidate_deferred(self, record_id: str) -> bool:
        """Drop a queued record superseded by a client update/delete."""
        return self.admission.invalidate(record_id)

    # -- pipeline support (called by the stages) ---------------------------------

    def register_insert(self, database: str, record_id: str) -> None:
        """Record a new insert in the recency sequence and its partition."""
        self._insert_seq[record_id] = self._next_seq
        self._next_seq += 1
        self._partition_records.setdefault(database, set()).add(record_id)

    def forget_record(self, database: str, record_id: str) -> None:
        """Drop per-record bookkeeping when a record is deleted.

        Index entries for the record are pruned eagerly so the index
        never offers a deleted record as a dedup source (its content is
        gone, so the delta stage could not verify it anyway), and the
        insertion-sequence map would otherwise grow forever.
        """
        self._insert_seq.pop(record_id, None)
        partition = self._partition_records.get(database)
        if partition is not None:
            partition.discard(record_id)
        index = self._indexes.get(database)
        if index is not None:
            index.remove_record(record_id)

    def observe_admission(
        self,
        database: str,
        bytes_in: int,
        bytes_out: int,
        features: Iterable[int] | None = None,
    ) -> None:
        """Feed one record's outcome to the yield estimator; tear down on
        a permanent-bypass transition.

        ``features`` is the record's sketch, feeding the duplicate-
        locality half of the score.
        """
        still_enabled = self.admission.observe(
            database, bytes_in, bytes_out, features=features
        )
        if not still_enabled:
            # §3.4.1: delete the disabled database's index partition, and
            # prune the per-record bookkeeping that referenced it. Queued
            # deferred records of the stream are pointless now and are
            # discarded (counted in deferred_discarded_total).
            index = self._indexes.pop(database, None)
            if index is not None:
                index.clear()
            for record_id in self._partition_records.pop(database, ()):
                self._insert_seq.pop(record_id, None)
            self.admission.discard_deferred(database)

"""The encode body: the §3.1/§4.1 workflow as one straight-line function.

The paper describes deduplication as a four-step pipeline — sketch →
index lookup → source selection → delta compression — and
:meth:`DedupPipeline.run` is that pipeline written out in order: the
admission and size-filter gates, the four steps, the write-back plan,
then the accounting block every record reaches. A step either lets the
record continue or *drops* it with a machine-readable reason, which is
an early return into accounting.

Each step is bracketed by :meth:`DedupPipeline._enter` /
:meth:`DedupPipeline._leave`, which feed the per-stage counters of
:class:`~repro.core.stats.DedupStats` (records in/out, drops, simulated
CPU) and then the attached :class:`PipelineObserver` hooks. The steps
keep their stage names (:attr:`DedupPipeline.stages`) as the label set
of those counters and of the ``stage:<name>`` trace spans.

Ordering contract: the steps from the index lookup onward mutate shared
state (feature index, insertion sequence, source cache, chain registry,
admission estimator) whose evolution must match the sequential insert
order exactly — replica convergence depends on both ends of the
replication link deriving identical chains from the same ordered
stream. A batch therefore hoists only *pure* work (the vectorized
sketch, passed to :meth:`DedupPipeline.run` per record), and the body
runs record-at-a-time, which is what makes ``encode_batch() ≡
[encode(), …]`` hold byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.cache.writeback import WriteBackEntry
from repro.core.planner import CpuMeter

if TYPE_CHECKING:  # pragma: no cover — import cycle guard, types only
    from repro.core.engine import DedupEngine, RecordProvider
    from repro.core.selector import SelectedSource
    from repro.sketch.features import FeatureSketch


# -- drop reasons ---------------------------------------------------------------

#: Admission control has dedup permanently bypassed for the record's
#: stream (§3.4.1 governor semantics).
#: The label value keeps the historical "governor_bypass" spelling so
#: exported metrics stay comparable across versions.
DROP_GOVERNOR = "governor_bypass"
#: The record is below the adaptive size filter's cut-off (§3.4.2).
DROP_SIZE_FILTER = "size_filtered"
#: The index returned no usable candidate (or only the record itself).
DROP_NO_CANDIDATE = "no_candidate"
#: The selected source's content could not be fetched.
DROP_MISSING_SOURCE = "missing_source"
#: The forward delta saved too little to justify a chain edge.
DROP_WEAK_DELTA = "weak_delta"

#: Every drop reason, in pipeline order of the stage that raises it.
DROP_REASONS = (
    DROP_GOVERNOR,
    DROP_SIZE_FILTER,
    DROP_NO_CANDIDATE,
    DROP_MISSING_SOURCE,
    DROP_WEAK_DELTA,
)


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


@dataclass
class EncodeContext:
    """What observers and the drop accounting see of one record.

    Attributes:
        database / record_id / content / raw_size: identity of the insert.
        provider: storage access for source fetches.
        meter: simulated-CPU accumulator for this record.
        sketch: similarity sketch, set once the record passes the gates.
        drop_reason / drop_stage: why and where the record left the dedup
            path (None while it is still on it).
    """

    database: str
    record_id: str
    content: bytes
    provider: "RecordProvider"
    meter: CpuMeter
    raw_size: int = 0
    sketch: "FeatureSketch | None" = None
    drop_reason: str | None = None
    drop_stage: str | None = None

    def __post_init__(self) -> None:
        if not self.raw_size:
            self.raw_size = len(self.content)


class PipelineObserver:
    """Hook interface for per-stage instrumentation.

    Subclass and override what you need; all hooks default to no-ops.
    Observers must not mutate the context.
    """

    def on_stage_start(self, stage: str, ctx: EncodeContext) -> None:
        """Called before ``stage`` runs for ``ctx``."""

    def on_stage_end(
        self, stage: str, ctx: EncodeContext, cpu_seconds: float
    ) -> None:
        """Called after ``stage`` ran; ``cpu_seconds`` is the simulated
        CPU the stage charged to the record's meter."""

    def on_drop(self, stage: str, ctx: EncodeContext, reason: str) -> None:
        """Called when ``stage`` dropped ``ctx`` with ``reason``."""


class DedupPipeline:
    """One engine's encode body, its stage names and attached observers.

    Counting convention: a stage's ``in`` is every record that entered
    it, its ``out`` is every record that left it still on the dedup
    path, so ``in == out + drops-at-stage`` holds per stage and the
    terminal accounting stage sees every record exactly once.
    """

    #: The stage names, in execution order.
    stages = (
        "admission_gate",
        "size_filter_gate",
        "sketch",
        "index_lookup",
        "source_select",
        "forward_delta",
        "writeback_plan",
        "accounting",
    )

    def __init__(
        self,
        engine: "DedupEngine",
        observers: Sequence[PipelineObserver] = (),
    ) -> None:
        self.engine = engine
        self.observers = list(observers)

    def add_observer(self, observer: PipelineObserver) -> None:
        """Attach an instrumentation hook (sees all subsequent records)."""
        self.observers.append(observer)

    def _enter(self, stage: str, ctx: EncodeContext) -> float:
        """Count ``ctx`` into ``stage``; returns the meter reading."""
        self.engine.stats.note_stage_entry(stage)
        for observer in self.observers:
            observer.on_stage_start(stage, ctx)
        return ctx.meter.seconds

    def _leave(
        self,
        stage: str,
        ctx: EncodeContext,
        cpu_before: float,
        reason: str | None = None,
    ) -> None:
        """Count ``ctx`` out of ``stage``, dropped with ``reason`` if given."""
        cpu_seconds = ctx.meter.seconds - cpu_before
        stats = self.engine.stats
        if reason is not None:
            ctx.drop_reason = reason
            ctx.drop_stage = stage
            stats.note_drop(reason, stage, ctx.database)
            for observer in self.observers:
                observer.on_drop(stage, ctx, reason)
        stats.note_stage_exit(stage, cpu_seconds, survived=reason is None)
        for observer in self.observers:
            observer.on_stage_end(stage, ctx, cpu_seconds)

    def run(
        self, ctx: EncodeContext, sketch: "FeatureSketch | None" = None
    ) -> EncodeResult:
        """Encode one record: the gates, the four steps, the write-back plan.

        ``sketch`` is the record's batch-precomputed sketch. It is attached
        only once the record passes the gates, so a gated record stays
        unsketched to accounting even in a pre-sketched batch.
        """
        engine = self.engine
        database = ctx.database

        # §3.4.1: admission control bypasses streams whose dedup is off.
        # Deferral never reaches this point — the engine parks deferred
        # records before building a context, so each record is counted
        # exactly once.
        before = self._enter("admission_gate", ctx)
        if not engine.admission.is_enabled(database):
            engine.stats.note_bypass()
            engine.stats_for(database).note_bypass()
            self._leave("admission_gate", ctx, before, DROP_GOVERNOR)
            return self._account(ctx)
        self._leave("admission_gate", ctx, before)

        # §3.4.2: skip records below the learned size cut-off.
        before = self._enter("size_filter_gate", ctx)
        if not engine.size_filter.should_dedup(database, ctx.raw_size):
            engine.stats.note_filtered()
            engine.stats_for(database).note_filtered()
            self._leave("size_filter_gate", ctx, before, DROP_SIZE_FILTER)
            return self._account(ctx)
        self._leave("size_filter_gate", ctx, before)

        # §3.1.1: content-defined chunking + top-K consistent sampling.
        before = self._enter("sketch", ctx)
        ctx.meter.charge_chunking(ctx.raw_size)
        ctx.sketch = (
            sketch if sketch is not None else engine.extractor.sketch(ctx.content)
        )
        self._leave("sketch", ctx, before)

        # §3.1.2: per-feature candidate lookup, registering the new record.
        before = self._enter("index_lookup", ctx)
        index = engine.index_for(database)
        candidates = [
            index.lookup_and_insert(feature, ctx.record_id)
            for feature in ctx.sketch.features
        ]
        engine.register_insert(database, ctx.record_id)
        # Cold-tier demotions/promotions triggered by this record's lookups
        # and inserts are charged to this encode's CPU meter, so the sim
        # sees tier churn as background work on the node.
        engine.charge_index_maintenance(index, ctx.meter)
        self._leave("index_lookup", ctx, before)

        # §3.1.3: cache-aware scoring, then source content resolution.
        before = self._enter("source_select", ctx)
        selected = engine.selector.select(
            candidates,
            recency_of=lambda rid: engine._insert_seq.get(rid, -1),
        )
        if selected is None or selected.record_id == ctx.record_id:
            self._leave("source_select", ctx, before, DROP_NO_CANDIDATE)
            return self._account(ctx)
        source = engine.planner.fetch(selected.record_id, ctx.provider)
        if source is None:
            self._leave("source_select", ctx, before, DROP_MISSING_SOURCE)
            return self._account(ctx)
        self._leave("source_select", ctx, before)

        # §3.2.1: forward delta against the source; reject weak savings.
        before = self._enter("forward_delta", ctx)
        ctx.meter.charge_delta(len(source) + ctx.raw_size)
        payload = engine.planner.compressor.compress(source, ctx.content)
        if len(payload) >= ctx.raw_size * engine.config.min_savings_ratio:
            self._leave("forward_delta", ctx, before, DROP_WEAK_DELTA)
            return self._account(ctx)
        self._leave("forward_delta", ctx, before)

        # §3.2.2/§3.3: extend the chain, plan backward/hop write-backs.
        before = self._enter("writeback_plan", ctx)
        writebacks, overlapped = engine.planner.plan(
            ctx.record_id,
            selected.record_id,
            ctx.content,
            source,
            payload,
            ctx.provider,
            ctx.meter,
        )
        self._leave("writeback_plan", ctx, before)
        return self._account(ctx, selected, payload, tuple(writebacks), overlapped)

    def _account(
        self,
        ctx: EncodeContext,
        selected: "SelectedSource | None" = None,
        payload: bytes | None = None,
        writebacks: tuple[WriteBackEntry, ...] = (),
        overlapped: bool = False,
    ) -> EncodeResult:
        """The accounting stage: statistics, audit, admission feedback and
        the :class:`EncodeResult`, for every record, deduped or dropped."""
        before = self._enter("accounting", ctx)
        engine = self.engine
        raw_size = ctx.raw_size
        deduped = selected is not None
        source_id = selected.record_id if deduped else None
        if deduped:
            if overlapped:
                engine.stats.note_overlap()
            engine.stats.note_writebacks_planned(len(writebacks))
            oplog_size = len(payload)
            ideal_delta = raw_size
            if engine.config.encoding != "forward":
                ideal_delta -= sum(entry.space_saving for entry in writebacks)
        else:
            oplog_size = ideal_delta = raw_size
            if ctx.sketch is not None:
                # Past the gates. §3.3.1: an unencoded record still enters
                # the source cache (it may become tomorrow's source) and
                # the admission window; gated records do neither.
                engine.source_cache.admit(ctx.record_id, ctx.content)
                engine.observe_admission(
                    ctx.database, raw_size, raw_size, features=ctx.sketch.features
                )
        engine.stats.record_insert(raw_size, oplog_size, ideal_delta, deduped)
        engine.stats_for(ctx.database).record_insert(
            raw_size, oplog_size, ideal_delta, deduped
        )
        # The audit trail is fed in lockstep with the engine-scope
        # record_insert above — its reconciliation identity depends on
        # exactly this 1:1 pairing.
        engine.audit.record(
            record_id=ctx.record_id,
            database=ctx.database,
            reason="deduped" if deduped else ctx.drop_reason,
            raw_size=raw_size,
            saved_bytes=raw_size - oplog_size,
            source_id=source_id,
            similarity=selected.score if deduped else None,
        )
        if ctx.sketch is not None:
            engine.stats.note_chunks(ctx.sketch.chunk_count)
        if deduped:
            engine.observe_admission(
                ctx.database, raw_size, oplog_size, features=ctx.sketch.features
            )
        result = EncodeResult(
            record_id=ctx.record_id,
            database=ctx.database,
            raw_size=raw_size,
            deduped=deduped,
            source_id=source_id,
            forward_payload=payload,
            oplog_size=oplog_size,
            writebacks=writebacks,
            ideal_stored_delta=ideal_delta,
            overlapped=overlapped,
            source_was_cached=deduped and selected.was_cached,
            cpu_seconds=ctx.meter.seconds,
        )
        self._leave("accounting", ctx, before)
        return result

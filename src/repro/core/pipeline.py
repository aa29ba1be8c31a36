"""Staged encode pipeline: the §3.1/§4.1 workflow as explicit stages.

The paper describes deduplication as a four-step pipeline — sketch →
index lookup → source selection → delta compression — and this module is
that pipeline made literal. One :class:`EncodeContext` carries a record
through an ordered list of :class:`Stage` objects composed by
:class:`DedupPipeline`; each stage either advances the context or *drops*
it with a machine-readable reason, after which only the terminal
accounting stage still runs. The stage boundaries are the seams the
monolithic ``DedupEngine.encode()`` never had:

* **batching** — :meth:`Stage.prepare_batch` lets a stage precompute
  over a whole batch at once, which is how sketch extraction amortizes
  its vectorized numpy inner loops. :meth:`DedupEngine.encode_batch
  <repro.core.engine.DedupEngine.encode_batch>` calls it for batches of
  more than one record, before running the records one by one;
* **observability** — :class:`PipelineObserver` hooks see every stage
  entry/exit and every drop, feeding the per-stage counters in
  :class:`~repro.core.stats.DedupStats`.

Ordering contract: the stages from the index lookup onward mutate shared
state (feature index, insertion sequence, source cache, chain registry,
admission estimator) whose evolution must match the sequential insert
order exactly —
replica convergence depends on both ends of the replication link deriving
identical chains from the same ordered stream. The batch phase therefore
hoists only *pure* work (sketching), and :meth:`DedupPipeline.run` drives
the stateful stage list record-at-a-time, which is what makes
``encode_batch() ≡ [encode(), …]`` hold byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, Sequence

from repro.cache.writeback import WriteBackEntry
from repro.core.planner import CpuMeter

if TYPE_CHECKING:  # pragma: no cover — import cycle guard, types only
    from repro.core.engine import DedupEngine, EncodeResult, RecordProvider
    from repro.core.selector import SelectedSource
    from repro.sketch.features import FeatureSketch


# -- drop reasons ---------------------------------------------------------------

#: Admission control has dedup permanently bypassed for the record's
#: stream (§3.4.1 governor semantics; hybrid-mode bypass transitions).
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


@dataclass
class EncodeContext:
    """Everything one record accumulates on its way through the pipeline.

    Attributes:
        database / record_id / content / raw_size: identity of the insert.
        provider: storage access for source fetches.
        meter: simulated-CPU accumulator for this record.
        sketch: similarity sketch (set by :class:`SketchStage`).
        prepared_sketch: batch-precomputed sketch, consumed (and cleared)
            by :class:`SketchStage` instead of re-extracting.
        candidates: per-feature index candidates.
        selected: the winning source record.
        source_content: the source's raw bytes.
        forward_payload: the forward delta in its wire format.
        writebacks / overlapped: write-back plan (§3.2.2 / Fig. 5).
        drop_reason / drop_stage: why and where the record left the dedup
            path (None while it is still in flight).
        result: the finished :class:`~repro.core.engine.EncodeResult`,
            produced by the terminal accounting stage.
    """

    database: str
    record_id: str
    content: bytes
    provider: "RecordProvider"
    meter: CpuMeter
    raw_size: int = 0
    sketch: "FeatureSketch | None" = None
    prepared_sketch: "FeatureSketch | None" = None
    candidates: list[list[str]] | None = None
    selected: "SelectedSource | None" = None
    source_content: bytes | None = None
    forward_payload: bytes | None = None
    writebacks: tuple[WriteBackEntry, ...] = ()
    overlapped: bool = False
    drop_reason: str | None = None
    drop_stage: str | None = None
    result: "EncodeResult | None" = None

    def __post_init__(self) -> None:
        if not self.raw_size:
            self.raw_size = len(self.content)

    @property
    def dropped(self) -> bool:
        """True once some stage removed the record from the dedup path."""
        return self.drop_reason is not None

    def drop(self, stage: str, reason: str) -> None:
        """Mark the record as leaving the dedup path at ``stage``."""
        self.drop_reason = reason
        self.drop_stage = stage

    @property
    def passed_gates(self) -> bool:
        """True if the record made it past the governor and size gates.

        Gated records store unique *without* entering the source cache or
        the governor's ratio window; records dropped deeper in the
        pipeline become cache candidates and count toward the governor
        (§3.3.1: an unencoded record may be tomorrow's source).
        """
        return self.drop_reason not in (DROP_GOVERNOR, DROP_SIZE_FILTER)


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


class StageStatsObserver(PipelineObserver):
    """Feeds pipeline activity into :class:`~repro.core.stats.DedupStats`.

    Counting convention: a stage's ``in`` is every context that entered
    it, its ``out`` is every context that left it still on the dedup path,
    so ``in == out + drops-at-stage`` holds per stage and the terminal
    accounting stage sees every record exactly once.
    """

    def __init__(self, stats) -> None:
        self.stats = stats

    def on_stage_start(self, stage: str, ctx: EncodeContext) -> None:
        self.stats.note_stage_entry(stage)

    def on_stage_end(
        self, stage: str, ctx: EncodeContext, cpu_seconds: float
    ) -> None:
        self.stats.note_stage_exit(
            stage, cpu_seconds, survived=ctx.drop_stage != stage
        )

    def on_drop(self, stage: str, ctx: EncodeContext, reason: str) -> None:
        self.stats.note_drop(reason, stage, ctx.database)


class Stage(Protocol):
    """One step of the encode workflow.

    Attributes:
        name: stable identifier used in stats tables and observer hooks.
        always_runs: True for stages that must see *every* record, even
            ones already dropped (the terminal accounting stage).
    """

    name: str
    always_runs: bool

    def run(self, ctx: EncodeContext) -> None:
        """Advance one context; call ``ctx.drop(...)`` to end its path."""
        ...

    def prepare_batch(self, contexts: Sequence[EncodeContext]) -> None:
        """Optional vectorized precomputation over a whole batch.

        Runs once per batch *before* any per-record execution, so it must
        be pure: no shared-state mutation, no meter charges — only
        derived values parked on the contexts.
        """
        ...


class _StageBase:
    """Default stage behaviour: per-record only, engine-bound."""

    name = "stage"
    always_runs = False

    def __init__(self, engine: "DedupEngine") -> None:
        self.engine = engine

    def prepare_batch(self, contexts: Sequence[EncodeContext]) -> None:
        """No batch precomputation by default."""


class AdmissionGate(_StageBase):
    """Admission control: bypass streams whose dedup is disabled.

    Covers §3.4.1 (governor mode) and the hybrid mode's permanent-bypass
    transitions. Deferral never reaches this stage — the engine parks
    deferred records *before* building a pipeline context, so every
    record the pipeline sees is counted exactly once in its stats.
    """

    name = "admission_gate"

    def run(self, ctx: EncodeContext) -> None:
        """Drop the record when its stream's dedup is disabled."""
        if not self.engine.admission.is_enabled(ctx.database):
            self.engine.stats.note_bypass()
            self.engine.stats_for(ctx.database).note_bypass()
            ctx.drop(self.name, DROP_GOVERNOR)


class SizeFilterGate(_StageBase):
    """§3.4.2: skip records below the learned size cut-off."""

    name = "size_filter_gate"

    def run(self, ctx: EncodeContext) -> None:
        """Observe the record's size; drop it below the cut-off."""
        if not self.engine.size_filter.should_dedup(ctx.database, ctx.raw_size):
            self.engine.stats.note_filtered()
            self.engine.stats_for(ctx.database).note_filtered()
            ctx.drop(self.name, DROP_SIZE_FILTER)


class SketchStage(_StageBase):
    """§3.1.1: content-defined chunking + top-K consistent sampling.

    The only stage with a real batch phase: :meth:`prepare_batch` sketches
    the whole batch in one vectorized pass (one padded gear-hash sweep
    over the concatenated contents when the vectorized chunker lane is
    active — see :mod:`repro.chunking.cdc`), and :meth:`run` then just
    consumes the parked sketch. CPU is still charged per record at
    :meth:`run` time so gated records never pay for a sketch they did
    not use.
    """

    name = "sketch"

    def prepare_batch(self, contexts: Sequence[EncodeContext]) -> None:
        live = [ctx for ctx in contexts if not ctx.dropped]
        if not live:
            return
        sketches = self.engine.extractor.sketch_many(
            [ctx.content for ctx in live]
        )
        for ctx, sketch in zip(live, sketches):
            ctx.prepared_sketch = sketch

    def run(self, ctx: EncodeContext) -> None:
        """Charge chunking CPU and attach the similarity sketch."""
        ctx.meter.charge_chunking(ctx.raw_size)
        if ctx.prepared_sketch is not None:
            ctx.sketch = ctx.prepared_sketch
            ctx.prepared_sketch = None
        else:
            ctx.sketch = self.engine.extractor.sketch(ctx.content)


class IndexLookupStage(_StageBase):
    """§3.1.2: per-feature candidate lookup, registering the new record."""

    name = "index_lookup"

    def run(self, ctx: EncodeContext) -> None:
        """Collect per-feature candidates; register the record."""
        index = self.engine.index_for(ctx.database)
        ctx.candidates = [
            index.lookup_and_insert(feature, ctx.record_id)
            for feature in ctx.sketch.features
        ]
        self.engine.register_insert(ctx.database, ctx.record_id)
        # Tiered demotions/promotions triggered by this record's lookups
        # and inserts are charged to this encode's CPU meter, so the sim
        # sees tier churn as background work on the node.
        self.engine.charge_index_maintenance(index, ctx.meter)


class SourceSelectStage(_StageBase):
    """§3.1.3: cache-aware scoring, then source content resolution."""

    name = "source_select"

    def run(self, ctx: EncodeContext) -> None:
        """Pick the source record and resolve its content."""
        engine = self.engine
        selected = engine.selector.select(
            ctx.candidates,
            recency_of=lambda rid: engine._insert_seq.get(rid, -1),
        )
        if selected is None or selected.record_id == ctx.record_id:
            ctx.drop(self.name, DROP_NO_CANDIDATE)
            return
        ctx.selected = selected
        ctx.source_content = engine.planner.fetch(
            selected.record_id, ctx.provider
        )
        if ctx.source_content is None:
            ctx.drop(self.name, DROP_MISSING_SOURCE)


class ForwardDeltaStage(_StageBase):
    """§3.2.1: forward delta against the source; reject weak savings."""

    name = "forward_delta"

    def run(self, ctx: EncodeContext) -> None:
        """Compute the forward delta; drop weak savings."""
        ctx.meter.charge_delta(len(ctx.source_content) + ctx.raw_size)
        ctx.forward_payload = self.engine.planner.compressor.compress(
            ctx.source_content, ctx.content
        )
        min_ratio = self.engine.config.min_savings_ratio
        if len(ctx.forward_payload) >= ctx.raw_size * min_ratio:
            ctx.drop(self.name, DROP_WEAK_DELTA)


class WritebackPlanStage(_StageBase):
    """§3.2.2/§3.3: extend the chain, plan backward/hop write-backs."""

    name = "writeback_plan"

    def run(self, ctx: EncodeContext) -> None:
        """Plan the chain extension and its write-backs."""
        writebacks, overlapped = self.engine.planner.plan(
            ctx.record_id,
            ctx.selected.record_id,
            ctx.content,
            ctx.source_content,
            ctx.forward_payload,
            ctx.provider,
            ctx.meter,
        )
        ctx.writebacks = tuple(writebacks)
        ctx.overlapped = overlapped


class AccountingStage(_StageBase):
    """Terminal stage: statistics, governor feedback, the EncodeResult.

    Runs for every record — deduped or dropped — so the per-stage
    counters it feeds always reconcile to ``records_seen``.
    """

    name = "accounting"
    always_runs = True

    def run(self, ctx: EncodeContext) -> None:
        """Finalize statistics and build the EncodeResult."""
        from repro.core.engine import EncodeResult

        engine = self.engine
        if not ctx.dropped:
            if ctx.overlapped:
                engine.stats.note_overlap()
            engine.stats.note_writebacks_planned(len(ctx.writebacks))
            oplog_size = len(ctx.forward_payload)
            planned_savings = sum(
                entry.space_saving for entry in ctx.writebacks
            )
            ideal_delta = (
                ctx.raw_size
                if engine.config.encoding == "forward"
                else ctx.raw_size - planned_savings
            )
            engine.stats.record_insert(
                ctx.raw_size, oplog_size, ideal_delta, deduped=True
            )
            engine.stats_for(ctx.database).record_insert(
                ctx.raw_size, oplog_size, ideal_delta, deduped=True
            )
            # The audit trail is fed in lockstep with the engine-scope
            # record_insert above — its reconciliation identity depends
            # on exactly this 1:1 pairing.
            engine.audit.record(
                record_id=ctx.record_id,
                database=ctx.database,
                reason="deduped",
                raw_size=ctx.raw_size,
                saved_bytes=ctx.raw_size - oplog_size,
                source_id=ctx.selected.record_id,
                similarity=ctx.selected.score,
            )
            if ctx.sketch is not None:
                engine.stats.note_chunks(ctx.sketch.chunk_count)
            # Source-cache hit/miss accounting lives in the cache itself
            # since the unification; stats delegate to it.
            engine.observe_admission(
                ctx.database,
                ctx.raw_size,
                oplog_size,
                features=ctx.sketch.features if ctx.sketch else None,
            )
            ctx.result = EncodeResult(
                record_id=ctx.record_id,
                database=ctx.database,
                raw_size=ctx.raw_size,
                deduped=True,
                source_id=ctx.selected.record_id,
                forward_payload=ctx.forward_payload,
                oplog_size=oplog_size,
                writebacks=ctx.writebacks,
                ideal_stored_delta=ideal_delta,
                overlapped=ctx.overlapped,
                source_was_cached=ctx.selected.was_cached,
                cpu_seconds=ctx.meter.seconds,
            )
            return

        if ctx.passed_gates:
            # §3.3.1: an unencoded record still enters the source cache
            # (it may become tomorrow's source) and the admission window.
            engine.source_cache.admit(ctx.record_id, ctx.content)
            engine.observe_admission(
                ctx.database,
                ctx.raw_size,
                ctx.raw_size,
                features=ctx.sketch.features if ctx.sketch else None,
            )
        engine.stats.record_insert(
            ctx.raw_size, ctx.raw_size, ctx.raw_size, deduped=False
        )
        engine.stats_for(ctx.database).record_insert(
            ctx.raw_size, ctx.raw_size, ctx.raw_size, deduped=False
        )
        engine.audit.record(
            record_id=ctx.record_id,
            database=ctx.database,
            reason=ctx.drop_reason or "unique",
            raw_size=ctx.raw_size,
            saved_bytes=0,
        )
        if ctx.sketch is not None:
            engine.stats.note_chunks(ctx.sketch.chunk_count)
        ctx.result = EncodeResult(
            record_id=ctx.record_id,
            database=ctx.database,
            raw_size=ctx.raw_size,
            deduped=False,
            oplog_size=ctx.raw_size,
            ideal_stored_delta=ctx.raw_size,
            cpu_seconds=ctx.meter.seconds,
        )


class DedupPipeline:
    """Composes the stage list and drives contexts through it."""

    def __init__(
        self,
        stages: Sequence[Stage],
        observers: Sequence[PipelineObserver] = (),
    ) -> None:
        self.stages = list(stages)
        self.observers = list(observers)

    def add_observer(self, observer: PipelineObserver) -> None:
        """Attach an instrumentation hook (sees all subsequent records)."""
        self.observers.append(observer)

    def stage_names(self) -> list[str]:
        """The stage identifiers, in execution order."""
        return [stage.name for stage in self.stages]

    def run(self, ctx: EncodeContext) -> EncodeContext:
        """Drive one context through every applicable stage."""
        for stage in self.stages:
            if ctx.dropped and not stage.always_runs:
                continue
            for observer in self.observers:
                observer.on_stage_start(stage.name, ctx)
            cpu_before = ctx.meter.seconds
            stage.run(ctx)
            cpu_spent = ctx.meter.seconds - cpu_before
            if ctx.drop_stage == stage.name:
                for observer in self.observers:
                    observer.on_drop(stage.name, ctx, ctx.drop_reason)
            for observer in self.observers:
                observer.on_stage_end(stage.name, ctx, cpu_spent)
        return ctx


def build_default_pipeline(
    engine: "DedupEngine", observers: Sequence[PipelineObserver] = ()
) -> DedupPipeline:
    """The standard dbDedup stage list wired to one engine."""
    return DedupPipeline(
        stages=[
            AdmissionGate(engine),
            SizeFilterGate(engine),
            SketchStage(engine),
            IndexLookupStage(engine),
            SourceSelectStage(engine),
            ForwardDeltaStage(engine),
            WritebackPlanStage(engine),
            AccountingStage(engine),
        ],
        observers=observers,
    )

"""Deduplication statistics: the numbers every figure is built from.

Since the observability refactor, :class:`DedupStats` is a *projection*
over a :class:`~repro.obs.registry.MetricsRegistry` rather than a bag of
plain counters. Every increment lands in a registry instrument (labeled
by ``scope`` — ``"_total"`` for the engine-wide view, the database name
for per-database views), and the legacy attributes (``records_seen``,
``bytes_in``, the per-stage dicts, …) are read-only views over those
same instruments. The paper-facing summary and the exported metrics are
therefore the same numbers by construction — they cannot drift.

Two pieces intentionally stay off the registry:

* the saving-sample reservoir (raw per-record tuples, not a counter);
* ``source_cache_hits``/``misses`` — since the cache-accounting
  unification these *delegate to the source cache itself*
  (:class:`~repro.cache.source_cache.SourceRecordCache` is the single
  source of truth; an unbound stats object reports zero, which is what
  per-database views historically showed).

Hot-path cost: one attribute access plus a float add per counter — the
registry children are resolved once in ``__init__`` and cached.
"""

from __future__ import annotations

import random

from repro.obs.registry import BYTE_BUCKETS, MetricsRegistry

#: Default bound on retained saving samples (satellite of Fig. 7): enough
#: for a statistically tight weighted CDF, small enough to stay O(1) in
#: corpus size.
DEFAULT_SAVING_SAMPLE_CAP = 100_000

#: Fixed reservoir seed — sampling must be a deterministic function of the
#: insert stream so batched and sequential execution produce identical
#: statistics (and so experiment reruns reproduce bit-for-bit).
_RESERVOIR_SEED = 0x5EED

#: Scope label of the engine-wide (cross-database) view.
ENGINE_SCOPE = "_total"

#: Power-of-two buckets for the chunks-per-record histogram — chunk
#: counts are small integers, so byte buckets would collapse them.
CHUNK_COUNT_BUCKETS: tuple[float, ...] = tuple(
    float(1 << k) for k in range(11)
)


class DedupStats:
    """Counters accumulated by the engine, viewed through one scope.

    Compression ratios are reported the paper's way: original size divided
    by reduced size, so 1.0 means "no compression".

    Besides the headline counters, the encode body feeds per-stage
    instrumentation directly (see :class:`repro.core.pipeline.DedupPipeline`):
    ``stage_records_in``/``stage_records_out`` count records entering and
    surviving each stage, ``stage_cpu_seconds`` accumulates the simulated
    CPU charged inside each stage, and ``drop_reasons`` tallies why
    records left the dedup path. They reconcile: for every stage,
    ``in == out + drops-at-stage``, and the terminal accounting stage sees
    exactly ``records_seen`` contexts.

    Args:
        registry: the instrument registry to project; a private one is
            created when omitted (standalone/test use).
        scope: label value all this view's increments carry.
        keep_saving_samples: False disables the reservoir (per-database
            views, to bound memory).
        saving_sample_cap: reservoir bound; <= 0 means unbounded.
        source_cache: when bound, ``source_cache_hits``/``misses``
            delegate to it; None reports zero.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        scope: str = ENGINE_SCOPE,
        keep_saving_samples: bool = True,
        saving_sample_cap: int = DEFAULT_SAVING_SAMPLE_CAP,
        source_cache=None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.scope = scope
        self.source_cache = source_cache
        self.keep_saving_samples = keep_saving_samples
        self.saving_sample_cap = saving_sample_cap
        #: Per-record space saving samples, kept for Fig. 7's weighted CDF:
        #: (raw record size, bytes saved by dedup on the forward path).
        #: Bounded by ``saving_sample_cap`` via reservoir sampling
        #: (Vitter's algorithm R): once full, each subsequent record
        #: replaces a random slot with probability cap/seen, so the
        #: reservoir stays a uniform sample of *all* records.
        self.saving_samples: list[tuple[int, int]] = []
        #: How many samples were *offered* (records seen while sampling).
        self.saving_samples_seen = 0
        self._sample_rng = random.Random(_RESERVOIR_SEED)

        reg = self.registry
        label = ("scope",)
        self._seen = reg.counter(
            "dedup_records_seen_total", "Records processed by the engine",
            label,
        ).labels(scope)
        self._deduped = reg.counter(
            "dedup_records_deduped_total",
            "Records stored as a forward delta", label,
        ).labels(scope)
        self._unique = reg.counter(
            "dedup_records_unique_total", "Records stored raw", label,
        ).labels(scope)
        self._filtered = reg.counter(
            "dedup_records_filtered_total",
            "Records skipped by the adaptive size filter", label,
        ).labels(scope)
        self._bypassed = reg.counter(
            "dedup_records_bypassed_total",
            "Records bypassed by the dedup governor", label,
        ).labels(scope)
        self._bytes_in = reg.counter(
            "dedup_bytes_in_total", "Raw bytes offered to the engine",
            label,
        ).labels(scope)
        self._oplog_bytes_out = reg.counter(
            "dedup_oplog_bytes_out_total",
            "Bytes shipped to replicas (deltas or raw payloads)", label,
        ).labels(scope)
        # A gauge, not a counter: one record's contribution can be
        # negative when its planned write-backs save more than the
        # record itself adds.
        self._ideal_storage_bytes = reg.gauge(
            "dedup_ideal_storage_bytes",
            "Storage bytes the encoding aims for before write-back losses",
            label,
        ).labels(scope)
        self._overlapped = reg.counter(
            "dedup_overlapped_encodings_total",
            "Chain extensions from a non-tail source (Fig. 5)", label,
        ).labels(scope)
        self._writebacks_planned = reg.counter(
            "dedup_writebacks_planned_total",
            "Backward/hop re-encodings scheduled", label,
        ).labels(scope)
        self._record_bytes = reg.histogram(
            "dedup_record_bytes", "Raw size distribution of records",
            label, buckets=BYTE_BUCKETS,
        ).labels(scope)
        self._chunks_per_record = reg.histogram(
            "dedup_chunks_per_record",
            "CDC chunks per sketched record (records that reached the "
            "sketch stage)",
            label, buckets=CHUNK_COUNT_BUCKETS,
        ).labels(scope)

        stage_labels = ("scope", "stage")
        self._stage_in = reg.counter(
            "pipeline_stage_records_in_total",
            "Contexts entering each pipeline stage", stage_labels,
        )
        self._stage_out = reg.counter(
            "pipeline_stage_records_out_total",
            "Contexts leaving each stage still on the dedup path",
            stage_labels,
        )
        self._stage_cpu = reg.counter(
            "pipeline_stage_cpu_seconds_total",
            "Simulated CPU charged inside each stage", stage_labels,
        )
        self._drops = reg.counter(
            "pipeline_drops_total",
            "Records leaving the dedup path, by stage, reason, and "
            "originating tenant/stream",
            ("scope", "stage", "reason", "stream"),
        )
        # Per-stage children resolved lazily so the projected dicts only
        # contain stages that actually saw traffic (legacy semantics).
        self._stage_in_children: dict[str, object] = {}
        self._stage_out_children: dict[str, object] = {}
        self._stage_cpu_children: dict[str, object] = {}
        self._drop_children: dict[tuple[str, str, str], object] = {}

    # -- accumulation (called by the engine/pipeline) ----------------------------

    def record_insert(
        self, raw_size: int, oplog_size: int, ideal_stored: int, deduped: bool
    ) -> None:
        """Account one processed record."""
        self._seen.inc()
        self._bytes_in.inc(raw_size)
        self._oplog_bytes_out.inc(oplog_size)
        self._ideal_storage_bytes.inc(ideal_stored)
        self._record_bytes.observe(raw_size)
        if deduped:
            self._deduped.inc()
        else:
            self._unique.inc()
        if self.keep_saving_samples:
            self._offer_sample((raw_size, raw_size - oplog_size))

    def note_bypass(self) -> None:
        """Count one record the governor bypassed."""
        self._bypassed.inc()

    def note_filtered(self) -> None:
        """Count one record the size filter skipped."""
        self._filtered.inc()

    def note_overlap(self) -> None:
        """Count one overlapped (non-tail-source) encoding."""
        self._overlapped.inc()

    def note_chunks(self, count: int) -> None:
        """Record how many CDC chunks one sketched record produced."""
        self._chunks_per_record.observe(count)

    @property
    def chunks_per_record(self):
        """The chunks-per-record histogram child (sum/count/buckets)."""
        return self._chunks_per_record

    def note_writebacks_planned(self, count: int) -> None:
        """Count ``count`` scheduled write-backs."""
        if count:
            self._writebacks_planned.inc(count)

    def _offer_sample(self, sample: tuple[int, int]) -> None:
        """Reservoir-sample one record into ``saving_samples``."""
        self.saving_samples_seen += 1
        if self.saving_sample_cap <= 0 or (
            len(self.saving_samples) < self.saving_sample_cap
        ):
            self.saving_samples.append(sample)
            return
        slot = self._sample_rng.randrange(self.saving_samples_seen)
        if slot < self.saving_sample_cap:
            self.saving_samples[slot] = sample

    # -- pipeline instrumentation (fed by DedupPipeline._enter / _leave) --

    def note_stage_entry(self, stage: str) -> None:
        """Count one context entering ``stage``."""
        child = self._stage_in_children.get(stage)
        if child is None:
            child = self._stage_in.labels(self.scope, stage)
            self._stage_in_children[stage] = child
        child.inc()

    def note_stage_exit(
        self, stage: str, cpu_seconds: float, survived: bool
    ) -> None:
        """Count one context leaving ``stage``; ``survived`` is False when
        the stage dropped it from the dedup path."""
        if survived:
            child = self._stage_out_children.get(stage)
            if child is None:
                child = self._stage_out.labels(self.scope, stage)
                self._stage_out_children[stage] = child
            child.inc()
        if cpu_seconds:
            child = self._stage_cpu_children.get(stage)
            if child is None:
                child = self._stage_cpu.labels(self.scope, stage)
                self._stage_cpu_children[stage] = child
            child.inc(cpu_seconds)

    def note_drop(
        self, reason: str, stage: str = "unknown", stream: str = "_all"
    ) -> None:
        """Tally one record leaving the dedup path at ``stage``.

        ``stream`` is the tenant/logical database the dropped record
        belonged to; callers that have no stream context (unit tests,
        standalone stats) leave the ``"_all"`` default.
        """
        key = (stage, reason, stream)
        child = self._drop_children.get(key)
        if child is None:
            child = self._drops.labels(self.scope, stage, reason, stream)
            self._drop_children[key] = child
        child.inc()

    # -- legacy attribute views over the registry --------------------------------

    @property
    def records_seen(self) -> int:
        """Records processed."""
        return int(self._seen.value)

    @property
    def records_deduped(self) -> int:
        """Records stored as forward deltas."""
        return int(self._deduped.value)

    @property
    def records_unique(self) -> int:
        """Records stored raw."""
        return int(self._unique.value)

    @property
    def records_filtered(self) -> int:
        """Records skipped by the size filter."""
        return int(self._filtered.value)

    @property
    def records_bypassed(self) -> int:
        """Records bypassed by the governor."""
        return int(self._bypassed.value)

    @property
    def bytes_in(self) -> int:
        """Raw bytes offered to the engine."""
        return int(self._bytes_in.value)

    @property
    def oplog_bytes_out(self) -> int:
        """Bytes shipped to replicas (forward-encoded or raw payloads)."""
        return int(self._oplog_bytes_out.value)

    @property
    def ideal_storage_bytes(self) -> int:
        """Bytes the storage encoding aims to reach (raw tails + backward
        deltas, before any write-back losses)."""
        return int(self._ideal_storage_bytes.value)

    @property
    def overlapped_encodings(self) -> int:
        """Chain extensions whose source was not its chain's tail."""
        return int(self._overlapped.value)

    @property
    def writebacks_planned(self) -> int:
        """Backward/hop re-encodings scheduled."""
        return int(self._writebacks_planned.value)

    @property
    def source_cache_hits(self) -> int:
        """Source-cache lookups served from memory (cache's own count)."""
        return self.source_cache.hits if self.source_cache is not None else 0

    @property
    def source_cache_misses(self) -> int:
        """Source-cache lookups that fell through (cache's own count)."""
        return (
            self.source_cache.misses if self.source_cache is not None else 0
        )

    def _scoped_stages(self, family, cast) -> dict:
        return {
            key[1]: cast(value)
            for key, value in family.items()
            if key[0] == self.scope
        }

    @property
    def stage_records_in(self) -> dict[str, int]:
        """Stage → contexts that entered it (this scope only)."""
        return self._scoped_stages(self._stage_in, int)

    @property
    def stage_records_out(self) -> dict[str, int]:
        """Stage → contexts that left it still on the dedup path."""
        return self._scoped_stages(self._stage_out, int)

    @property
    def stage_cpu_seconds(self) -> dict[str, float]:
        """Stage → simulated CPU seconds charged inside it."""
        return self._scoped_stages(self._stage_cpu, float)

    @property
    def drop_reasons(self) -> dict[str, int]:
        """Drop reason → records dropped for it (summed over stages)."""
        reasons: dict[str, int] = {}
        for key, value in self._drops.items():
            if key[0] != self.scope:
                continue
            reason = key[2]
            reasons[reason] = reasons.get(reason, 0) + int(value)
        return reasons

    @property
    def drop_reasons_by_stream(self) -> dict[str, dict[str, int]]:
        """Tenant/stream → {drop reason → count} (summed over stages).

        The per-stream measurement the sketch-recall roadmap item asks
        for: a stream whose revisions fork into ``no_candidate`` drops
        shows up here directly instead of being averaged away.
        """
        streams: dict[str, dict[str, int]] = {}
        for key, value in self._drops.items():
            if key[0] != self.scope:
                continue
            reason, stream = key[2], key[3]
            per_stream = streams.setdefault(stream, {})
            per_stream[reason] = per_stream.get(reason, 0) + int(value)
        return streams

    def drops_at_stage(self, stage: str) -> int:
        """Records dropped inside ``stage`` (in minus out)."""
        return self.stage_records_in.get(stage, 0) - self.stage_records_out.get(
            stage, 0
        )

    # -- derived ratios ----------------------------------------------------------

    @property
    def network_compression_ratio(self) -> float:
        """Raw bytes over replicated bytes (1.0 when nothing processed)."""
        return self.bytes_in / self.oplog_bytes_out if self.oplog_bytes_out else 1.0

    @property
    def dedup_hit_ratio(self) -> float:
        """Fraction of seen records that found a usable source."""
        return self.records_deduped / self.records_seen if self.records_seen else 0.0

    @property
    def source_cache_miss_ratio(self) -> float:
        """Fraction of source retrievals that had to hit the database."""
        total = self.source_cache_hits + self.source_cache_misses
        return self.source_cache_misses / total if total else 0.0

    # -- summary / equality ------------------------------------------------------

    def summary(self) -> dict:
        """Every legacy counter as one plain dict (the paper-facing view).

        This is by construction the same data the registry exports —
        each entry is read straight from a registry instrument (or the
        bound source cache), which is what makes "legacy summary ==
        exported metrics" an identity rather than a test assertion.
        """
        return {
            "records_seen": self.records_seen,
            "records_deduped": self.records_deduped,
            "records_unique": self.records_unique,
            "records_filtered": self.records_filtered,
            "records_bypassed": self.records_bypassed,
            "bytes_in": self.bytes_in,
            "oplog_bytes_out": self.oplog_bytes_out,
            "ideal_storage_bytes": self.ideal_storage_bytes,
            "overlapped_encodings": self.overlapped_encodings,
            "writebacks_planned": self.writebacks_planned,
            "source_cache_hits": self.source_cache_hits,
            "source_cache_misses": self.source_cache_misses,
            "stage_records_in": self.stage_records_in,
            "stage_records_out": self.stage_records_out,
            "stage_cpu_seconds": self.stage_cpu_seconds,
            "drop_reasons": self.drop_reasons,
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DedupStats):
            return NotImplemented
        return (
            self.summary() == other.summary()
            and self.saving_samples == other.saving_samples
            and self.saving_samples_seen == other.saving_samples_seen
        )

    __hash__ = None  # mutable value object

    def __repr__(self) -> str:
        return (
            f"DedupStats(scope={self.scope!r}, seen={self.records_seen}, "
            f"deduped={self.records_deduped}, unique={self.records_unique})"
        )

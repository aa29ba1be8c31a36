"""Configuration for the dbDedup engine — every §3/§5 knob in one place."""

from __future__ import annotations

from dataclasses import dataclass

from repro.index.spec import IndexSpec
from repro.util.deprecation import warn_once

#: Flat index knobs that predate :class:`IndexSpec`, with their defaults —
#: still accepted (folded into a cuckoo spec with a one-time deprecation
#: warning) but rejected when an explicit ``index`` spec is also given.
_FLAT_INDEX_KNOBS = (
    ("index_buckets", 1 << 16),
    ("index_slots", 4),
    ("max_candidates", 8),
)


@dataclass(frozen=True)
class DedupConfig:
    """Tunable parameters, defaulting to the paper's chosen values
    (frozen: derive a variant with :func:`dataclasses.replace`).

    Attributes:
        chunk_size: average content-defined chunk size for feature
            extraction. Fig. 1 headlines 1 KB and 64 B; 1 KB is the
            general default.
        top_k: sketch size K (§3.1.1; paper default 8).
        index: the :class:`~repro.index.spec.IndexSpec` describing the
            feature index (kind, geometry, tiered memory budget). None
            falls back to the flat knobs below via :meth:`resolved_index`.
        max_candidates: per-feature cap on similar records returned by the
            index before LRU eviction kicks in (§3.1.2). **Deprecated** as
            a flat knob — set ``index=IndexSpec(max_candidates=...)``.
        index_buckets / index_slots: cuckoo feature index geometry.
            **Deprecated** — set ``index=IndexSpec(num_buckets=...,
            slots_per_bucket=...)`` instead; overriding these while also
            passing ``index`` is an error.
        anchor_interval: delta-compression anchor sampling interval
            (§4.2; paper default 64).
        delta_window: delta-compression checksum window (xDelta's 16).
        encoding: storage-side encoding scheme — ``'hop'`` (paper default),
            ``'backward'``, ``'version-jumping'``, or ``'forward'`` (no
            storage encoding; network-only dedup, like sDedup).
        hop_distance: hop distance / cluster size H (§5.5 default 16).
        source_cache_bytes: source record cache budget (§5.4: 32 MB).
        writeback_cache_bytes: lossy write-back cache budget (§5.4: 8 MB).
        cache_reward: cache-aware selection reward score (§3.1.3 default 2).
        min_savings_ratio: a forward delta must be at most this fraction of
            the raw record, or the record is stored unique — a delta that
            saves almost nothing is not worth a chain edge.
        governor_threshold: compression ratio below which governor-mode
            admission disables dedup for a database (§3.4.1: 1.1).
        governor_window: inserts per admission evaluation window
            (§3.4.1: 100 000; simulations use smaller corpora, so this
            is configurable).
        admission_mode: per-stream admission policy — ``"governor"``
            (paper-faithful one-way kill switch, the default),
            ``"inline"`` (always dedup inline), or ``"hybrid"``
            (three-way inline / defer / bypass decisions driven by the
            online yield estimator).
        admission_inline_threshold: hybrid mode — yield score (window
            ratio + weighted locality) at or above which a stream
            dedups inline; below it, records defer to the out-of-line
            queue.
        admission_bypass_threshold: hybrid mode — yield score below
            which a window counts toward permanent bypass; ``<= 0``
            disables bypass (low-yield streams defer forever instead).
        admission_bypass_patience: consecutive low-yield windows before
            a hybrid-mode stream is permanently bypassed.
        admission_locality_weight: weight of the duplicate-locality
            fraction in the yield score.
        admission_locality_depth: recent sketches per stream retained
            for the locality signal.
        admission_queue_records: global bound on queued deferred
            records; at the bound the oldest entries are force-drained
            through the pipeline before new ones are queued.
        size_filter_percentile: percentile of record size used as the
            dedup cut-off (§3.4.2: the 40 %-tile).
        size_filter_interval: inserts between cut-off refreshes (1000).
        size_filter_enabled: the filter can be disabled for ablations.
        idle_queue_threshold: disk queue length at or below which the
            write-back cache flushes (§3.3.2's idleness signal).
        gc_enabled: run the online garbage collector
            (:class:`repro.core.gc.GarbageCollector`) during idle
            slices. Off by default: reclamation changes stored forms,
            so baselines opt in explicitly.
        gc_reclaim_threshold_bytes: minimum estimated reclaimable bytes
            (tombstones + compactable page slack) before an idle slice
            spends time on a GC batch.
        gc_max_batch_records: most dependent records re-encoded per GC
            batch — bounds the work (and the rollback scope) of one
            idle slice.
        murmur_seed: seed of the MurmurHash3 feature hash the sketch
            extractor uses; fixed so sketches (and every golden value
            downstream of them) are reproducible.
        saving_sample_cap: maximum per-record saving samples retained for
            Fig. 7's weighted CDF; beyond the cap the engine reservoir-
            samples so memory stays O(cap) however long the run. <= 0
            keeps every sample (unbounded; pre-cap behaviour).
    """

    chunk_size: int = 1024
    top_k: int = 8
    index: IndexSpec | None = None
    max_candidates: int = 8
    index_buckets: int = 1 << 16
    index_slots: int = 4
    anchor_interval: int = 64
    delta_window: int = 16
    encoding: str = "hop"
    hop_distance: int = 16
    source_cache_bytes: int = 32 * 1024 * 1024
    writeback_cache_bytes: int = 8 * 1024 * 1024
    cache_reward: int = 2
    min_savings_ratio: float = 0.9
    governor_threshold: float = 1.1
    governor_window: int = 100_000
    admission_mode: str = "governor"
    admission_inline_threshold: float = 1.2
    admission_bypass_threshold: float = 0.0
    admission_bypass_patience: int = 2
    admission_locality_weight: float = 0.5
    admission_locality_depth: int = 64
    admission_queue_records: int = 4096
    size_filter_percentile: float = 40.0
    size_filter_interval: int = 1000
    size_filter_enabled: bool = True
    idle_queue_threshold: int = 0
    gc_enabled: bool = False
    gc_reclaim_threshold_bytes: int = 64 * 1024
    gc_max_batch_records: int = 64
    murmur_seed: int = 0x5EED
    saving_sample_cap: int = 100_000

    def __post_init__(self) -> None:
        if self.chunk_size < 8 or self.chunk_size & (self.chunk_size - 1):
            raise ValueError(
                f"chunk_size must be a power of two >= 8, got {self.chunk_size}"
            )
        if self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")
        if self.encoding not in ("hop", "backward", "version-jumping", "forward"):
            raise ValueError(f"unknown encoding scheme {self.encoding!r}")
        if not 0.0 < self.min_savings_ratio <= 1.0:
            raise ValueError(
                f"min_savings_ratio must be in (0, 1], got {self.min_savings_ratio}"
            )
        if self.hop_distance < 2:
            raise ValueError(f"hop_distance must be >= 2, got {self.hop_distance}")
        if not 0.0 <= self.size_filter_percentile < 100.0:
            raise ValueError(
                f"size_filter_percentile must be in [0, 100), got "
                f"{self.size_filter_percentile}"
            )
        if self.gc_reclaim_threshold_bytes < 0:
            raise ValueError(
                "gc_reclaim_threshold_bytes must be >= 0, got "
                f"{self.gc_reclaim_threshold_bytes}"
            )
        if self.gc_max_batch_records < 1:
            raise ValueError(
                f"gc_max_batch_records must be >= 1, got "
                f"{self.gc_max_batch_records}"
            )
        # Validate the index configuration (and emit the flat-knob
        # deprecation warning, if due) at construction time.
        self.resolved_index()
        # Admission parameters share the controller's validation so a bad
        # spec fails at construction, not at first insert.
        from repro.core.admission import AdmissionController

        AdmissionController(
            mode=self.admission_mode,
            threshold=self.governor_threshold,
            window=self.governor_window,
            inline_yield_threshold=self.admission_inline_threshold,
            bypass_yield_threshold=self.admission_bypass_threshold,
            bypass_patience=self.admission_bypass_patience,
            locality_weight=self.admission_locality_weight,
            locality_depth=self.admission_locality_depth,
            max_deferred_records=self.admission_queue_records,
        )

    def resolved_index(self) -> IndexSpec:
        """The effective :class:`IndexSpec`, folding in deprecated knobs.

        Resolution order:

        * ``index`` set and no flat knob overridden → the spec, as given;
        * ``index`` set *and* a flat knob overridden → ``ValueError``
          (two sources of truth for the same geometry);
        * flat knobs overridden, no ``index`` → a cuckoo spec built from
          them, after a once-per-process deprecation warning;
        * neither → the default cuckoo spec.
        """
        overridden = [
            name
            for name, default in _FLAT_INDEX_KNOBS
            if getattr(self, name) != default
        ]
        if self.index is not None:
            if overridden:
                raise ValueError(
                    "DedupConfig.index and deprecated flat index knobs "
                    f"({', '.join(overridden)}) were both set; configure "
                    "the index through IndexSpec alone"
                )
            return self.index
        if overridden:
            warn_once(
                "DedupConfig.index_flat_knobs",
                "DedupConfig's flat index knobs (index_buckets, "
                "index_slots, max_candidates) are deprecated; pass "
                "index=IndexSpec(...) instead",
            )
        return IndexSpec(
            num_buckets=self.index_buckets,
            slots_per_bucket=self.index_slots,
            max_candidates=self.max_candidates,
        )

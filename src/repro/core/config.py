"""Configuration for the dbDedup engine — every §3/§5 knob in one place."""

from __future__ import annotations

from dataclasses import dataclass

from repro.index.spec import IndexSpec


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
            feature index (cuckoo geometry, hot-tier memory budget and
            cold-tier geometry).
        anchor_interval: delta-compression anchor sampling interval
            (§4.2; paper default 64).
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
        governor_window: inserts per admission evaluation window
            (§3.4.1: 100 000; simulations use smaller corpora, so this
            is configurable).
        admission_mode: per-stream admission policy — ``"governor"``
            (paper-faithful one-way kill switch, the default),
            ``"inline"`` (always dedup inline), or ``"hybrid"``
            (inline / defer decisions driven by the online yield
            estimator).
        admission_inline_threshold: hybrid mode — yield score (window
            ratio + weighted locality) at or above which a stream
            dedups inline; below it, records defer to the out-of-line
            queue.
        admission_queue_records: global bound on queued deferred
            records; at the bound the oldest entries are force-drained
            through the pipeline before new ones are queued.
        size_filter_interval: inserts between refreshes of the size
            filter's cut-off (1000; the cut is §3.4.2's 40 %-tile).
        size_filter_enabled: the filter can be disabled for ablations.
        gc_enabled: run the online garbage collector
            (:class:`repro.core.gc.GarbageCollector`) during idle
            slices. Off by default: reclamation changes stored forms,
            so baselines opt in explicitly.
        gc_reclaim_threshold_bytes: minimum estimated reclaimable bytes
            (tombstones + compactable page slack) before an idle slice
            spends time on a GC batch.
        saving_sample_cap: maximum per-record saving samples retained for
            Fig. 7's weighted CDF; beyond the cap the engine reservoir-
            samples so memory stays O(cap) however long the run. <= 0
            keeps every sample (unbounded; pre-cap behaviour).
    """

    chunk_size: int = 1024
    top_k: int = 8
    index: IndexSpec = IndexSpec()
    anchor_interval: int = 64
    encoding: str = "hop"
    hop_distance: int = 16
    source_cache_bytes: int = 32 * 1024 * 1024
    writeback_cache_bytes: int = 8 * 1024 * 1024
    cache_reward: int = 2
    min_savings_ratio: float = 0.9
    governor_window: int = 100_000
    admission_mode: str = "governor"
    admission_inline_threshold: float = 1.2
    admission_queue_records: int = 4096
    size_filter_interval: int = 1000
    size_filter_enabled: bool = True
    gc_enabled: bool = False
    gc_reclaim_threshold_bytes: int = 64 * 1024
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
        if self.gc_reclaim_threshold_bytes < 0:
            raise ValueError(
                "gc_reclaim_threshold_bytes must be >= 0, got "
                f"{self.gc_reclaim_threshold_bytes}"
            )
        # Admission parameters share the controller's validation so a bad
        # spec fails at construction, not at first insert.
        from repro.core.admission import AdmissionController

        AdmissionController(
            mode=self.admission_mode,
            window=self.governor_window,
            inline_yield_threshold=self.admission_inline_threshold,
            max_deferred_records=self.admission_queue_records,
        )

"""Ablations of dbDedup's design choices beyond the paper's figures.

DESIGN.md calls out the mechanisms that make the paper's scheme practical;
each sweep here removes or re-parameterizes one of them so its individual
contribution is visible:

* sketch geometry (chunk size × K) — similarity detection vs index memory;
* encoding scheme × dataset — what hop encoding buys outside Fig. 14's
  single-chain setting;
* write-back cache capacity — how lossiness trades memory for ratio;
* minimum-savings threshold — when a delta is worth a chain edge;
* oplog-batch compression — how today's block-compressed replication
  streams compose with forward encoding.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.report import render_table
from repro.core.config import DedupConfig
from repro.db.cluster import Cluster
from repro.db.spec import ClusterSpec
from repro.workloads import make_workload


@dataclass(frozen=True)
class SketchSweepRow:
    chunk_size: int
    top_k: int
    compression_ratio: float
    dedup_hit_ratio: float
    index_memory_bytes: int
    #: Mean CDC chunks per sketched record (``dedup_chunks_per_record``
    #: histogram) — halving the chunk size should roughly double this.
    mean_chunks_per_record: float = 0.0
    #: Median of the same histogram (upper bound of the p50 bucket).
    p50_chunks_per_record: float = 0.0
    #: Drop reason → records dropped for it, engine-wide — shows *why*
    #: the non-deduped remainder left the pipeline at this geometry.
    drop_reasons: dict[str, int] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.drop_reasons is None:
            object.__setattr__(self, "drop_reasons", {})


def _format_drops(drop_reasons: dict[str, int]) -> str:
    if not drop_reasons:
        return "-"
    return ", ".join(
        f"{reason}={count}"
        for reason, count in sorted(drop_reasons.items())
    )


@dataclass
class SketchSweepResult:
    workload: str
    rows: list[SketchSweepRow]

    def row(self, chunk_size: int, top_k: int) -> SketchSweepRow:
        """Look up one result row by its key; raises KeyError if absent."""
        for row in self.rows:
            if row.chunk_size == chunk_size and row.top_k == top_k:
                return row
        raise KeyError((chunk_size, top_k))

    def render(self) -> str:
        """Render this result as an aligned text table/summary."""
        return render_table(
            f"Ablation ({self.workload}): sketch geometry (chunk size x K)",
            ["chunk", "K", "ratio", "dedup hits", "index KB",
             "chunks/rec (mean/p50)", "drops by reason"],
            [
                (row.chunk_size, row.top_k, row.compression_ratio,
                 row.dedup_hit_ratio, row.index_memory_bytes / 1024.0,
                 f"{row.mean_chunks_per_record:.1f}/"
                 f"{row.p50_chunks_per_record:.0f}",
                 _format_drops(row.drop_reasons))
                for row in self.rows
            ],
        )


def sketch_sweep(
    workload_name: str = "wikipedia",
    chunk_sizes: tuple[int, ...] = (1024, 256, 64),
    top_ks: tuple[int, ...] = (2, 8),
    target_bytes: int = 800_000,
    seed: int = 7,
) -> SketchSweepResult:
    """Chunk-size × K sweep: finer features find more similar records."""
    rows = []
    for chunk_size in chunk_sizes:
        for top_k in top_ks:
            dedup = DedupConfig(chunk_size=chunk_size, top_k=top_k)
            cluster = Cluster(ClusterSpec(dedup=dedup))
            workload = make_workload(
                workload_name, seed=seed, target_bytes=target_bytes
            )
            result = cluster.run(workload.insert_trace())
            stats = cluster.primary.engine.stats
            chunks = stats.chunks_per_record
            rows.append(
                SketchSweepRow(
                    chunk_size=chunk_size,
                    top_k=top_k,
                    compression_ratio=result.storage_compression_ratio,
                    dedup_hit_ratio=stats.dedup_hit_ratio,
                    index_memory_bytes=result.index_memory_bytes,
                    mean_chunks_per_record=(
                        chunks.sum / chunks.count if chunks.count else 0.0
                    ),
                    p50_chunks_per_record=chunks.quantile(0.5),
                    drop_reasons=stats.drop_reasons,
                )
            )
    return SketchSweepResult(workload=workload_name, rows=rows)


@dataclass(frozen=True)
class EncodingSweepRow:
    workload: str
    encoding: str
    storage_ratio: float
    network_ratio: float
    worst_decode: int


@dataclass
class EncodingSweepResult:
    rows: list[EncodingSweepRow]

    def row(self, workload: str, encoding: str) -> EncodingSweepRow:
        """Look up one result row by its key; raises KeyError if absent."""
        for row in self.rows:
            if row.workload == workload and row.encoding == encoding:
                return row
        raise KeyError((workload, encoding))

    def render(self) -> str:
        """Render this result as an aligned text table/summary."""
        return render_table(
            "Ablation: encoding scheme x dataset",
            ["workload", "encoding", "storage", "network", "worst decode"],
            [
                (row.workload, row.encoding, row.storage_ratio,
                 row.network_ratio, row.worst_decode)
                for row in self.rows
            ],
        )


def encoding_sweep(
    workloads: tuple[str, ...] = ("wikipedia", "enron"),
    encodings: tuple[str, ...] = ("forward", "backward", "version-jumping", "hop"),
    target_bytes: int = 600_000,
    seed: int = 7,
) -> EncodingSweepResult:
    """Each storage encoding on each dataset: ratio and decode bounds."""
    rows = []
    for workload_name in workloads:
        for encoding in encodings:
            dedup = DedupConfig(chunk_size=64, encoding=encoding)
            cluster = Cluster(ClusterSpec(dedup=dedup))
            workload = make_workload(
                workload_name, seed=seed, target_bytes=target_bytes
            )
            result = cluster.run(workload.insert_trace())
            db = cluster.primary.db
            worst = max(db.decode_cost(record_id) for record_id in db.records)
            rows.append(
                EncodingSweepRow(
                    workload=workload_name,
                    encoding=encoding,
                    storage_ratio=result.storage_compression_ratio,
                    network_ratio=result.network_compression_ratio,
                    worst_decode=worst,
                )
            )
    return EncodingSweepResult(rows=rows)


@dataclass(frozen=True)
class WritebackSweepRow:
    capacity_bytes: int
    storage_ratio: float
    discarded: int
    discarded_savings: int


@dataclass
class WritebackSweepResult:
    rows: list[WritebackSweepRow]

    def render(self) -> str:
        """Render this result as an aligned text table/summary."""
        return render_table(
            "Ablation: lossy write-back cache capacity (Wikipedia)",
            ["capacity KB", "storage ratio", "discards", "lost savings KB"],
            [
                (row.capacity_bytes / 1024.0, row.storage_ratio, row.discarded,
                 row.discarded_savings / 1024.0)
                for row in self.rows
            ],
        )


def writeback_capacity_sweep(
    capacities: tuple[int, ...] = (2 * 1024, 16 * 1024, 8 * 1024 * 1024),
    target_bytes: int = 700_000,
    seed: int = 7,
) -> WritebackSweepResult:
    """Shrinking the write-back cache loses exactly the discarded savings."""
    rows = []
    for capacity in capacities:
        dedup = DedupConfig(chunk_size=64, writeback_cache_bytes=capacity)
        cluster = Cluster(ClusterSpec(dedup=dedup))
        workload = make_workload("wikipedia", seed=seed, target_bytes=target_bytes)
        result = cluster.run(workload.insert_trace())
        cache = cluster.primary.db.writeback_cache
        rows.append(
            WritebackSweepRow(
                capacity_bytes=capacity,
                storage_ratio=result.storage_compression_ratio,
                discarded=cache.discarded,
                discarded_savings=cache.discarded_savings,
            )
        )
    return WritebackSweepResult(rows=rows)


@dataclass(frozen=True)
class NetworkStackRow:
    label: str
    network_ratio: float


@dataclass
class NetworkStackResult:
    rows: list[NetworkStackRow]

    def row(self, label: str) -> NetworkStackRow:
        """Look up one result row by its key; raises KeyError if absent."""
        for row in self.rows:
            if row.label == label:
                return row
        raise KeyError(label)

    def render(self) -> str:
        """Render this result as an aligned text table/summary."""
        return render_table(
            "Ablation: replication-stream reduction stack (Wikipedia)",
            ["configuration", "network ratio"],
            [(row.label, row.network_ratio) for row in self.rows],
        )


@dataclass
class CompactionAblationResult:
    """Effect of background compaction on a fork-heavy corpus."""

    ratio_before: float
    ratio_after: float
    raw_before: int
    raw_after: int
    compacted: int

    def render(self) -> str:
        """Render this result as an aligned text table/summary."""
        return (
            "Ablation: background compaction on a fork-heavy wiki corpus\n"
            f"  storage ratio: {self.ratio_before:.2f}x -> "
            f"{self.ratio_after:.2f}x\n"
            f"  raw records:   {self.raw_before} -> {self.raw_after} "
            f"({self.compacted} re-encoded)"
        )


def compaction_ablation(
    target_bytes: int = 600_000,
    seed: int = 7,
    incremental_fraction: float = 0.9,
) -> CompactionAblationResult:
    """Overlapped-encoding orphans reclaimed by the background compactor.

    Uses a revert-heavy wiki corpus (10 % of revisions derive from old
    versions) where Fig. 5 forks orphan many raw records; one compaction
    pass re-encodes them and recovers the Fig. 11 storage/network gap.
    """
    from repro.db.record import RecordForm
    from repro.workloads.wikipedia import WikipediaWorkload

    cluster = Cluster(ClusterSpec(dedup=DedupConfig(chunk_size=64)))
    workload = WikipediaWorkload(
        seed=seed, target_bytes=target_bytes,
        incremental_fraction=incremental_fraction,
    )
    result = cluster.run(workload.insert_trace())
    db = cluster.primary.db

    def raw_count() -> int:
        return sum(
            1 for record in db.records.values()
            if record.form is RecordForm.RAW
        )

    before_ratio = result.storage_compression_ratio
    before_raw = raw_count()
    report = cluster.primary.compact_storage()
    db.drain_writebacks()
    after_ratio = db.logical_raw_bytes / db.stored_bytes if db.stored_bytes else 1.0
    return CompactionAblationResult(
        ratio_before=before_ratio,
        ratio_after=after_ratio,
        raw_before=before_raw,
        raw_after=raw_count(),
        compacted=report.compacted,
    )


def network_stack_ablation(
    target_bytes: int = 700_000, seed: int = 7
) -> NetworkStackResult:
    """Batch compression vs forward encoding vs both, on the wire."""
    configs = [
        ("original", ClusterSpec(dedup_enabled=False)),
        (
            "batch-snappy",
            ClusterSpec(dedup_enabled=False, batch_compression="snappy"),
        ),
        ("dbDedup", ClusterSpec(dedup=DedupConfig(chunk_size=64))),
        (
            "dbDedup+batch-snappy",
            ClusterSpec(
                dedup=DedupConfig(chunk_size=64), batch_compression="snappy"
            ),
        ),
    ]
    rows = []
    for label, config in configs:
        cluster = Cluster(config)
        workload = make_workload("wikipedia", seed=seed, target_bytes=target_bytes)
        result = cluster.run(workload.insert_trace())
        rows.append(
            NetworkStackRow(label=label, network_ratio=result.network_compression_ratio)
        )
    return NetworkStackResult(rows=rows)

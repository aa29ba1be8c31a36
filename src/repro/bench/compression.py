"""Compression-ratio experiments: Fig. 1, Fig. 7, Fig. 10, Fig. 11.

Five storage configurations per dataset, exactly as the paper's bars:
dbDedup at 1 KB and 64 B chunks, trad-dedup at 4 KB and 64 B chunks, and
Snappy block compression alone. Every dbDedup run also applies Snappy on
top of the deduped pages, giving the stacked "additional compression"
segment.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.trad_dedup import TradDedupEngine
from repro.bench.report import render_table
from repro.compression.snappy import snappy_compress
from repro.core.config import DedupConfig
from repro.db.cluster import Cluster
from repro.db.spec import ClusterSpec
from repro.util.stats import weighted_cdf_points
from repro.workloads import make_workload

#: The five bars of Fig. 1 / Fig. 10.
CONFIG_LABELS = (
    "dbDedup-1KB",
    "dbDedup-64B",
    "trad-dedup-4KB",
    "trad-dedup-64B",
    "Snappy",
)


@dataclass(frozen=True)
class CompressionRow:
    """One bar of Fig. 1/10: a (dataset, configuration) pair."""

    workload: str
    config: str
    dedup_ratio: float  # compression from dedup alone
    combined_ratio: float  # dedup + Snappy block compression
    index_memory_bytes: int
    network_ratio: float  # raw bytes / replicated bytes (1.0 for baselines)


@dataclass
class CompressionResult:
    """All rows for one dataset (one subplot of Fig. 10)."""

    workload: str
    rows: list[CompressionRow]

    def row(self, config: str) -> CompressionRow:
        """Look up one result row by its key; raises KeyError if absent."""
        for row in self.rows:
            if row.config == config:
                return row
        raise KeyError(config)

    def render(self) -> str:
        """Render this result as an aligned text table/summary."""
        return render_table(
            f"Fig. 10 ({self.workload}): compression ratio and index memory",
            ["config", "dedup-only", "with Snappy", "index KB", "network"],
            [
                (
                    row.config,
                    row.dedup_ratio,
                    row.combined_ratio,
                    row.index_memory_bytes / 1024.0,
                    row.network_ratio,
                )
                for row in self.rows
            ],
        )


def _run_dbdedup(
    workload_name: str, chunk_size: int, target_bytes: int, seed: int
) -> CompressionRow:
    config = ClusterSpec(
        dedup=DedupConfig(chunk_size=chunk_size),
        block_compression="snappy",
    )
    cluster = Cluster(config)
    workload = make_workload(workload_name, seed=seed, target_bytes=target_bytes)
    result = cluster.run(workload.insert_trace())
    return CompressionRow(
        workload=workload_name,
        config=f"dbDedup-{_size_label(chunk_size)}",
        dedup_ratio=result.storage_compression_ratio,
        combined_ratio=result.physical_compression_ratio,
        index_memory_bytes=result.index_memory_bytes,
        network_ratio=result.network_compression_ratio,
    )


def _run_trad(
    workload_name: str, chunk_size: int, target_bytes: int, seed: int
) -> CompressionRow:
    engine = TradDedupEngine(chunk_size=chunk_size)
    workload = make_workload(workload_name, seed=seed, target_bytes=target_bytes)
    unique_chunks: list[bytes] = []
    for op in workload.insert_trace():
        for chunk in engine.chunker.chunks(op.content):
            engine.stats.chunks_seen += 1
            if engine.index.observe(chunk.data):
                engine.stats.chunks_duplicate += 1
                engine.stats.stored_bytes += 20
            else:
                engine.stats.stored_bytes += len(chunk.data)
                unique_chunks.append(chunk.data)
        engine.stats.records += 1
        engine.stats.bytes_in += len(op.content)
    combined = _page_compressed_ratio(
        engine.stats.bytes_in, unique_chunks, engine.stats.stored_bytes
    )
    return CompressionRow(
        workload=workload_name,
        config=f"trad-dedup-{_size_label(chunk_size)}",
        dedup_ratio=engine.stats.compression_ratio,
        combined_ratio=combined,
        index_memory_bytes=engine.index_memory_bytes,
        network_ratio=engine.stats.compression_ratio,
    )


def _run_snappy_only(workload_name: str, target_bytes: int, seed: int) -> CompressionRow:
    config = ClusterSpec(dedup_enabled=False, block_compression="snappy")
    cluster = Cluster(config)
    workload = make_workload(workload_name, seed=seed, target_bytes=target_bytes)
    result = cluster.run(workload.insert_trace())
    return CompressionRow(
        workload=workload_name,
        config="Snappy",
        dedup_ratio=1.0,
        combined_ratio=result.physical_compression_ratio,
        index_memory_bytes=0,
        network_ratio=1.0,
    )


def _page_compressed_ratio(
    bytes_in: int, unique_chunks: list[bytes], stored_bytes: int
) -> float:
    """Snappy-over-trad-dedup: page-compress the unique-chunk stream."""
    page_size = 32 * 1024
    buffer = bytearray()
    compressed = 0
    duplicate_refs = stored_bytes - sum(len(chunk) for chunk in unique_chunks)
    for chunk in unique_chunks:
        buffer += chunk
        while len(buffer) >= page_size:
            compressed += len(snappy_compress(bytes(buffer[:page_size])))
            del buffer[:page_size]
    if buffer:
        compressed += len(snappy_compress(bytes(buffer)))
    total = compressed + max(0, duplicate_refs)
    return bytes_in / total if total else 1.0


def _size_label(size: int) -> str:
    return f"{size // 1024}KB" if size >= 1024 else f"{size}B"


def fig10(
    workload_name: str, target_bytes: int = 1_500_000, seed: int = 7
) -> CompressionResult:
    """One Fig. 10 subplot: all five configurations on one dataset."""
    rows = [
        _run_dbdedup(workload_name, 1024, target_bytes, seed),
        _run_dbdedup(workload_name, 64, target_bytes, seed),
        _run_trad(workload_name, 4096, target_bytes, seed),
        _run_trad(workload_name, 64, target_bytes, seed),
        _run_snappy_only(workload_name, target_bytes, seed),
    ]
    return CompressionResult(workload=workload_name, rows=rows)


def fig01(target_bytes: int = 1_500_000, seed: int = 7) -> CompressionResult:
    """The headline figure: Fig. 10's Wikipedia subplot."""
    return fig10("wikipedia", target_bytes=target_bytes, seed=seed)


@dataclass
class StorageVsNetworkRow:
    """One dataset of Fig. 11."""

    workload: str
    storage_ratio: float
    network_ratio: float

    @property
    def normalized_storage(self) -> float:
        """Storage ratio normalized to the network ratio (Fig. 11's bars)."""
        return self.storage_ratio / self.network_ratio if self.network_ratio else 1.0


@dataclass
class StorageVsNetworkResult:
    rows: list[StorageVsNetworkRow]

    def render(self) -> str:
        """Render this result as an aligned text table/summary."""
        return render_table(
            "Fig. 11: storage vs network compression (dbDedup, 64 B chunks)",
            ["workload", "storage ratio", "network ratio", "storage/network"],
            [
                (row.workload, row.storage_ratio, row.network_ratio,
                 row.normalized_storage)
                for row in self.rows
            ],
        )


def fig11(
    workloads: tuple[str, ...] = (
        "wikipedia", "enron", "stackexchange", "messageboards",
    ),
    target_bytes: int = 1_500_000,
    seed: int = 7,
) -> StorageVsNetworkResult:
    """Fig. 11: dbDedup's storage vs network savings per dataset."""
    rows = []
    for name in workloads:
        config = ClusterSpec(dedup=DedupConfig(chunk_size=64))
        cluster = Cluster(config)
        workload = make_workload(name, seed=seed, target_bytes=target_bytes)
        result = cluster.run(workload.insert_trace())
        rows.append(
            StorageVsNetworkRow(
                workload=name,
                storage_ratio=result.storage_compression_ratio,
                network_ratio=result.network_compression_ratio,
            )
        )
    return StorageVsNetworkResult(rows=rows)


@dataclass
class SizeCdfResult:
    """Fig. 7 data for one workload: record-size CDF + saving-weighted CDF."""

    workload: str
    count_cdf: list[tuple[float, float]]
    saving_cdf: list[tuple[float, float]]
    #: Fraction of total savings contributed by the largest 60 % of records.
    top60_saving_share: float

    def render(self) -> str:
        """Render this result as an aligned text table/summary."""
        return (
            f"Fig. 7 ({self.workload}): records={len(self.count_cdf)}, "
            f"largest 60% of records contribute "
            f"{self.top60_saving_share * 100:.1f}% of space savings"
        )


def fig07(
    workload_name: str, target_bytes: int = 1_500_000, seed: int = 7
) -> SizeCdfResult:
    """Fig. 7: where the dedup savings live in the record-size distribution."""
    config = ClusterSpec(
        dedup=DedupConfig(chunk_size=64, size_filter_enabled=False)
    )
    cluster = Cluster(config)
    workload = make_workload(workload_name, seed=seed, target_bytes=target_bytes)
    cluster.run(workload.insert_trace())
    samples = cluster.primary.engine.stats.saving_samples
    sizes = [float(size) for size, _ in samples]
    savings = [float(max(0, saving)) for _, saving in samples]

    ordered = sorted(zip(sizes, savings))
    count_cdf = [
        (size, (rank + 1) / len(ordered)) for rank, (size, _) in enumerate(ordered)
    ]
    saving_cdf = weighted_cdf_points(sizes, savings)

    total_saving = sum(savings)
    cut = int(len(ordered) * 0.4)  # smallest 40 % excluded
    top_saving = sum(saving for _, saving in ordered[cut:])
    share = top_saving / total_saving if total_saving else 0.0
    return SizeCdfResult(
        workload=workload_name,
        count_cdf=count_cdf,
        saving_cdf=saving_cdf,
        top60_saving_share=share,
    )

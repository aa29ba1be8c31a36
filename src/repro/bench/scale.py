"""Scale sensitivity: how compression ratios grow with corpus size.

The paper's absolute ratios come from GB-scale corpora with long revision
chains; the bench suite runs at MB scale. This experiment quantifies the
gap's direction: as the corpus grows, chains lengthen, per-chain raw
records amortize, and dbDedup's ratio climbs toward the paper's numbers —
while trad-dedup's index memory grows linearly, which is exactly the
paper's scaling argument against it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.baselines.trad_dedup import TradDedupEngine
from repro.bench.report import render_table
from repro.core.config import DedupConfig
from repro.db.cluster import Cluster
from repro.db.spec import ClusterSpec
from repro.index import IndexSpec, TieredFeatureIndex
from repro.index.cuckoo import ENTRY_BYTES
from repro.index.tiered import HOT_ENTRY_BYTES
from repro.workloads import make_workload


@dataclass(frozen=True)
class ScaleRow:
    target_bytes: int
    dbdedup_ratio: float
    dbdedup_index_bytes: int
    trad_ratio: float
    trad_index_bytes: int


@dataclass
class ScaleResult:
    workload: str
    rows: list[ScaleRow]

    def render(self) -> str:
        """Render this result as an aligned text table/summary."""
        return render_table(
            f"Scale sensitivity ({self.workload}, 64 B chunks)",
            ["corpus MB", "dbDedup ratio", "dbDedup idx KB",
             "trad ratio", "trad idx KB"],
            [
                (
                    row.target_bytes / 1e6,
                    row.dbdedup_ratio,
                    row.dbdedup_index_bytes / 1024.0,
                    row.trad_ratio,
                    row.trad_index_bytes / 1024.0,
                )
                for row in self.rows
            ],
        )


def scale_sweep(
    workload_name: str = "wikipedia",
    targets: tuple[int, ...] = (400_000, 1_000_000, 2_500_000),
    seed: int = 7,
) -> ScaleResult:
    """Run dbDedup and trad-dedup at increasing corpus sizes."""
    rows = []
    for target in targets:
        cluster = Cluster(ClusterSpec(dedup=DedupConfig(chunk_size=64)))
        workload = make_workload(workload_name, seed=seed, target_bytes=target)
        result = cluster.run(workload.insert_trace())

        trad = TradDedupEngine(chunk_size=64)
        workload = make_workload(workload_name, seed=seed, target_bytes=target)
        trad.ingest_all(op.content for op in workload.insert_trace())

        rows.append(
            ScaleRow(
                target_bytes=target,
                dbdedup_ratio=result.storage_compression_ratio,
                dbdedup_index_bytes=result.index_memory_bytes,
                trad_ratio=trad.stats.compression_ratio,
                trad_index_bytes=trad.index_memory_bytes,
            )
        )
    return ScaleResult(workload=workload_name, rows=rows)


# -- dedup ratio vs index memory (tiered budget curve) ----------------------


@dataclass(frozen=True)
class IndexMemoryRow:
    label: str
    hot_bytes_budget: int | None
    dedup_ratio: float
    hot_bytes: int
    cold_bytes: int
    demotions: int
    cold_hits: int


@dataclass
class IndexMemoryResult:
    workload: str
    target_bytes: int
    rows: list[IndexMemoryRow]

    @property
    def baseline(self) -> IndexMemoryRow:
        """The unbounded-cuckoo row the tiered rows are measured against."""
        return self.rows[0]

    def render(self) -> str:
        """Render this result as an aligned text table/summary."""
        return render_table(
            f"Dedup ratio vs index memory ({self.workload}, "
            f"{self.target_bytes / 1e6:.1f} MB corpus, 64 B chunks)",
            ["index", "budget KB", "ratio", "hot KB", "cold KB",
             "demotions", "cold hits"],
            [
                (
                    row.label,
                    (row.hot_bytes_budget or 0) / 1024.0,
                    row.dedup_ratio,
                    row.hot_bytes / 1024.0,
                    row.cold_bytes / 1024.0,
                    row.demotions,
                    row.cold_hits,
                )
                for row in self.rows
            ],
        )


def _index_totals(cluster: Cluster) -> tuple[int, int, int, int]:
    """Sum (hot_bytes, cold_bytes, demotions, cold_hits) over partitions."""
    hot = cold = demotions = cold_hits = 0
    for _, part in cluster.primary.engine.index_partitions():
        hot += getattr(part, "hot_bytes", part.memory_bytes)
        cold += getattr(part, "cold_bytes", 0)
        demotions += getattr(part, "demotions", 0)
        cold_hits += getattr(part, "cold_hits", 0)
    return hot, cold, demotions, cold_hits


def index_memory_sweep(
    workload_name: str = "wikipedia",
    target_bytes: int = 1_500_000,
    budget_fractions: tuple[float, ...] = (0.5, 0.25, 0.125),
    seed: int = 7,
) -> IndexMemoryResult:
    """Dedup-ratio-vs-index-memory curve: unbounded cuckoo vs tiered.

    The unbounded cuckoo run fixes the ratio ceiling and the full hot
    footprint; each tiered run then squeezes ``hot_bytes_budget`` to a
    fraction of that footprint (in tiered per-entry accounting, which
    also charges the stored feature). The paper's scaling argument holds
    when the ratio stays near the ceiling while the resident hot tier
    shrinks with the budget.
    """
    rows: list[IndexMemoryRow] = []

    def drive(index_spec: IndexSpec | None, label: str,
              budget: int | None) -> None:
        cluster = Cluster(ClusterSpec(
            dedup=DedupConfig(chunk_size=64, index=index_spec)
        ))
        workload = make_workload(
            workload_name, seed=seed, target_bytes=target_bytes
        )
        result = cluster.run(workload.insert_trace())
        hot, cold, demotions, cold_hits = _index_totals(cluster)
        rows.append(IndexMemoryRow(
            label=label,
            hot_bytes_budget=budget,
            dedup_ratio=result.storage_compression_ratio,
            hot_bytes=hot,
            cold_bytes=cold,
            demotions=demotions,
            cold_hits=cold_hits,
        ))

    drive(None, "cuckoo", None)
    # The same entry population costs HOT_ENTRY_BYTES each under tiered
    # accounting — budgets are fractions of that honest footprint.
    full = (rows[0].hot_bytes // ENTRY_BYTES) * HOT_ENTRY_BYTES
    for fraction in budget_fractions:
        budget = max(HOT_ENTRY_BYTES, int(full * fraction))
        drive(
            IndexSpec(kind="tiered", hot_bytes_budget=budget),
            f"tiered@{fraction:g}",
            budget,
        )
    return IndexMemoryResult(
        workload=workload_name, target_bytes=target_bytes, rows=rows
    )


# -- synthetic budget probe (direct index drive) ----------------------------


@dataclass(frozen=True)
class BudgetProbeResult:
    features: int
    hot_bytes_budget: int
    peak_hot_bytes: int
    cold_bytes: int
    demotions: int
    elapsed_s: float

    def render(self) -> str:
        """Render this result as an aligned text table/summary."""
        return render_table(
            f"Tiered budget probe ({self.features:,} synthetic features)",
            ["budget KB", "peak hot KB", "cold KB", "demotions",
             "Mfeat/s"],
            [(
                self.hot_bytes_budget / 1024.0,
                self.peak_hot_bytes / 1024.0,
                self.cold_bytes / 1024.0,
                self.demotions,
                self.features / max(self.elapsed_s, 1e-9) / 1e6,
            )],
        )


def budget_probe(
    features: int = 1_000_000,
    hot_bytes_budget: int = 1 << 20,
    batch_size: int = 1 << 16,
    seed: int = 7,
) -> BudgetProbeResult:
    """Drive a tiered index directly with synthetic unique features.

    This is the 10⁷-feature acceptance probe: the hot tier must hold its
    byte budget at every batch boundary (``insert_batch`` enforces the
    budget once per batch) no matter how many features stream through.
    The cold shadow sets are disabled — they exist only to diagnose
    false positives and would dominate memory at this scale.
    """
    import numpy as np

    spec = IndexSpec(
        kind="tiered",
        hot_bytes_budget=hot_bytes_budget,
        num_buckets=1 << 15,
        cold_bands=256,
        cold_band_records=64,
        cold_band_features=1 << 14,
    )
    index = TieredFeatureIndex(spec, track_false_positives=False)
    rng = np.random.default_rng(seed)
    peak = 0
    done = 0
    start = time.perf_counter()
    while done < features:
        count = min(batch_size, features - done)
        batch = rng.integers(0, 1 << 63, size=count, dtype=np.uint64)
        # Rotating integer record refs: band FIFOs cap retention anyway.
        records = [(done + offset) >> 10 for offset in range(count)]
        index.insert_batch(batch, records)
        if index.hot_bytes > peak:
            peak = index.hot_bytes
        done += count
    elapsed = time.perf_counter() - start
    return BudgetProbeResult(
        features=features,
        hot_bytes_budget=hot_bytes_budget,
        peak_hot_bytes=peak,
        cold_bytes=index.cold_bytes,
        demotions=index.demotions,
        elapsed_s=elapsed,
    )

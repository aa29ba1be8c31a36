"""Runtime-impact experiments: Fig. 12 (throughput/latency) and Fig. 13
(caching), driven through the simulated cluster.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.report import render_table
from repro.core.config import DedupConfig
from repro.db.cluster import Cluster
from repro.db.spec import ClusterSpec
from repro.workloads import make_workload
from repro.workloads.wikipedia import WikipediaWorkload

#: The three deployment configurations of Fig. 12.
PERF_CONFIGS = ("original", "dbdedup", "snappy")


def _cluster_for(config_name: str, dedup: DedupConfig | None = None) -> Cluster:
    if config_name == "original":
        return Cluster(ClusterSpec(dedup_enabled=False))
    if config_name == "dbdedup":
        return Cluster(ClusterSpec(dedup=dedup or DedupConfig(chunk_size=64)))
    if config_name == "snappy":
        return Cluster(ClusterSpec(dedup_enabled=False, block_compression="snappy"))
    raise ValueError(f"unknown performance configuration {config_name!r}")


@dataclass(frozen=True)
class PerformanceRow:
    """One (workload, configuration) cell of Fig. 12."""

    workload: str
    config: str
    throughput_ops: float
    mean_latency_s: float
    p50_latency_s: float
    p999_latency_s: float
    latencies_s: tuple[float, ...]


@dataclass
class PerformanceResult:
    rows: list[PerformanceRow]

    def row(self, workload: str, config: str) -> PerformanceRow:
        """Look up one result row by its key; raises KeyError if absent."""
        for row in self.rows:
            if row.workload == workload and row.config == config:
                return row
        raise KeyError((workload, config))

    def render(self) -> str:
        """Render this result as an aligned text table/summary."""
        return render_table(
            "Fig. 12: throughput and client latency by configuration",
            ["workload", "config", "ops/s", "mean ms", "p50 ms", "p99.9 ms"],
            [
                (
                    row.workload,
                    row.config,
                    row.throughput_ops,
                    row.mean_latency_s * 1e3,
                    row.p50_latency_s * 1e3,
                    row.p999_latency_s * 1e3,
                )
                for row in self.rows
            ],
        )


def fig12(
    workloads: tuple[str, ...] = (
        "wikipedia", "enron", "stackexchange", "messageboards",
    ),
    target_bytes: int = 600_000,
    seed: int = 7,
) -> PerformanceResult:
    """Fig. 12a/b: run each workload's mixed trace under all three configs."""
    rows = []
    for name in workloads:
        for config_name in PERF_CONFIGS:
            cluster = _cluster_for(config_name)
            workload = make_workload(name, seed=seed, target_bytes=target_bytes)
            result = cluster.run(workload.mixed_trace())
            latencies = sorted(result.latencies_s)
            rows.append(
                PerformanceRow(
                    workload=name,
                    config=config_name,
                    throughput_ops=result.throughput_ops,
                    mean_latency_s=sum(latencies) / len(latencies),
                    p50_latency_s=result.latency_percentile(50),
                    p999_latency_s=result.latency_percentile(99.9),
                    latencies_s=tuple(latencies),
                )
            )
    return PerformanceResult(rows=rows)


@dataclass(frozen=True)
class RewardSweepRow:
    """One bar pair of Fig. 13a."""

    label: str
    compression_ratio: float
    normalized_ratio: float
    cache_miss_ratio: float


@dataclass
class RewardSweepResult:
    rows: list[RewardSweepRow]

    def render(self) -> str:
        """Render this result as an aligned text table/summary."""
        return render_table(
            "Fig. 13a: source record cache — reward score sweep (Wikipedia)",
            ["reward", "ratio", "normalized", "miss ratio"],
            [
                (row.label, row.compression_ratio, row.normalized_ratio,
                 row.cache_miss_ratio)
                for row in self.rows
            ],
        )


def fig13a(
    rewards: tuple[int, ...] = (0, 2, 4, 8),
    target_bytes: int = 1_200_000,
    seed: int = 7,
) -> RewardSweepResult:
    """Fig. 13a: effect of the cache and its reward score.

    The "no cache" point uses a 1-byte cache so every source retrieval
    misses; the rest sweep the cache-aware selection reward. The cache is
    scaled to the corpus (the paper pairs a 32 MB cache with a 20 GB
    dataset) so that cache residency is a meaningful signal rather than
    "everything fits".
    """
    scaled_cache = max(64 * 1024, target_bytes // 8)
    rows: list[RewardSweepRow] = []
    baseline_ratio: float | None = None
    for label, reward, cache_bytes in [
        ("no-cache", 0, 1),
        *[(str(reward), reward, scaled_cache) for reward in rewards],
    ]:
        dedup = DedupConfig(
            chunk_size=64, cache_reward=reward, source_cache_bytes=cache_bytes
        )
        cluster = Cluster(ClusterSpec(dedup=dedup))
        workload = make_workload("wikipedia", seed=seed, target_bytes=target_bytes)
        result = cluster.run(workload.insert_trace())
        stats = cluster.primary.engine.stats
        ratio = result.storage_compression_ratio
        if baseline_ratio is None:
            baseline_ratio = ratio
        rows.append(
            RewardSweepRow(
                label=label,
                compression_ratio=ratio,
                normalized_ratio=ratio / baseline_ratio,
                cache_miss_ratio=stats.source_cache_miss_ratio,
            )
        )
    return RewardSweepResult(rows=rows)


@dataclass
class WritebackBurstResult:
    """Fig. 13b: insert throughput over time, with/without the WB cache."""

    with_cache: list[tuple[float, float]]
    without_cache: list[tuple[float, float]]

    def mean_burst_throughput(self, timeline: list[tuple[float, float]]) -> float:
        """Mean ops/s over the non-idle timeline buckets."""
        busy = [ops for _, ops in timeline if ops > 0]
        return sum(busy) / len(busy) if busy else 0.0

    def render(self) -> str:
        """Render this result as an aligned text table/summary."""
        return (
            "Fig. 13b: bursty insert throughput (Wikipedia)\n"
            f"  with write-back cache:    {self.mean_burst_throughput(self.with_cache):8.1f} ops/s (busy mean)\n"
            f"  without write-back cache: {self.mean_burst_throughput(self.without_cache):8.1f} ops/s (busy mean)"
        )


def fig13b(
    target_bytes: int = 800_000,
    seed: int = 7,
    bucket_s: float = 0.25,
) -> WritebackBurstResult:
    """Fig. 13b: the lossy write-back cache under insert bursts."""
    timelines = []
    for use_cache in (True, False):
        dedup = DedupConfig(chunk_size=64)
        cluster = Cluster(ClusterSpec(dedup=dedup, use_writeback_cache=use_cache))
        workload = WikipediaWorkload(seed=seed, target_bytes=target_bytes)
        result = cluster.run(
            workload.bursty_insert_trace(idle_seconds=2.0, inserts_per_burst=60),
            timeline_bucket_s=bucket_s,
        )
        timelines.append(result.throughput_timeline)
    return WritebackBurstResult(with_cache=timelines[0], without_cache=timelines[1])

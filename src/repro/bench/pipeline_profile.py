"""Encode-pipeline profile: per-stage instrumentation and the batch path.

Not a paper figure — an operability experiment over the encode body's
per-stage instrumentation (:mod:`repro.core.pipeline`). It answers two
production questions:

* where does the simulated encode CPU go, stage by stage, and which
  drop reasons dominate (the HPDedup-style runtime signals)?
* what does batch admission (``insert_batch_size``) buy over per-record
  inserts on the same trace?
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.bench.report import render_table
from repro.core.config import DedupConfig
from repro.db.cluster import Cluster
from repro.db.spec import ClusterSpec
from repro.workloads import make_workload


@dataclass
class StageRow:
    """Per-stage counters from one run."""

    stage: str
    records_in: int
    records_out: int
    drops: int
    cpu_seconds: float


@dataclass
class PipelineProfileResult:
    """Stage table plus per-record vs batched wall-clock comparison."""

    workload: str
    batch_size: int
    rows: list[StageRow]
    drop_reasons: dict[str, int]
    records_seen: int
    per_record_wall_s: float
    batched_wall_s: float

    @property
    def batch_speedup(self) -> float:
        """Wall-clock ratio of per-record over batched execution."""
        return (
            self.per_record_wall_s / self.batched_wall_s
            if self.batched_wall_s
            else 1.0
        )

    def render(self) -> str:
        """Render this result as an aligned text table/summary."""
        table = render_table(
            f"encode pipeline profile ({self.workload}, "
            f"batch={self.batch_size})",
            ["stage", "in", "out", "drops", "cpu s"],
            [
                (row.stage, row.records_in, row.records_out, row.drops,
                 f"{row.cpu_seconds:.4f}")
                for row in self.rows
            ],
        )
        reasons = ", ".join(
            f"{reason}={count}"
            for reason, count in sorted(self.drop_reasons.items())
        ) or "none"
        return (
            f"{table}\n"
            f"drop reasons: {reasons}\n"
            f"records: {self.records_seen}  "
            f"per-record wall: {self.per_record_wall_s:.2f}s  "
            f"batched wall: {self.batched_wall_s:.2f}s  "
            f"speedup: {self.batch_speedup:.2f}x"
        )


def pipeline_profile(
    workload_name: str = "wikipedia",
    target_bytes: int = 800_000,
    batch_size: int = 64,
    seed: int = 7,
) -> PipelineProfileResult:
    """Profile the encode stages on one workload, batched vs per-record.

    Runs the same insert trace twice — once record-at-a-time, once through
    the batch path — and reports the batched run's per-stage counters
    alongside the wall-clock comparison. Both runs produce identical
    encode outcomes (the equivalence the pipeline guarantees), so the
    stage table describes either.
    """
    dedup = DedupConfig(chunk_size=64)

    sequential = Cluster(ClusterSpec(dedup=dedup))
    workload = make_workload(workload_name, seed=seed, target_bytes=target_bytes)
    began = time.perf_counter()
    sequential.run(workload.insert_trace())
    per_record_wall = time.perf_counter() - began

    batched = Cluster(ClusterSpec(dedup=dedup, insert_batch_size=batch_size))
    workload = make_workload(workload_name, seed=seed, target_bytes=target_bytes)
    began = time.perf_counter()
    batched.run(workload.insert_trace())
    batched_wall = time.perf_counter() - began

    engine = batched.primary.engine
    stats = engine.stats
    rows = [
        StageRow(
            stage=name,
            records_in=stats.stage_records_in.get(name, 0),
            records_out=stats.stage_records_out.get(name, 0),
            drops=stats.drops_at_stage(name),
            cpu_seconds=stats.stage_cpu_seconds.get(name, 0.0),
        )
        for name in engine.pipeline.stages
    ]
    return PipelineProfileResult(
        workload=workload_name,
        batch_size=batch_size,
        rows=rows,
        drop_reasons=dict(stats.drop_reasons),
        records_seen=stats.records_seen,
        per_record_wall_s=per_record_wall,
        batched_wall_s=batched_wall,
    )

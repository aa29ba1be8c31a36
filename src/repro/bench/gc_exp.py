"""Delete-heavy GC benchmark: reclaimed storage vs foreground latency.

The tentpole question for an *online* garbage collector is not whether
it reclaims space — it is whether it reclaims space **without showing up
in the foreground tail**. This experiment replays one delete-heavy trace
(similar-record inserts, then deletes of still-referenced records
interleaved with §3.3.2 idle slices) against two identical clusters that
differ only in ``gc_enabled``, and reports, side by side:

* the live stored footprint and the monotonic ``reclaimed_bytes`` counter;
* what the collector did (batches, re-roots, tombstones, pages freed);
* the foreground operation p99 — which must match within noise, because
  every GC batch runs inside idle slices and is charged as background
  CPU/disk on the simulated cost model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api import ClusterSpec, open_cluster
from repro.bench.report import render_table
from repro.core.config import DedupConfig
from repro.util.stats import percentile
from repro.workloads import make_workload
from repro.workloads.base import Operation


@dataclass(frozen=True)
class GcReclaimRow:
    """One configuration's outcome on the shared delete-heavy trace."""

    label: str
    stored_bytes: int
    reclaimed_bytes: int
    gc_batches: int
    tombstones_removed: int
    pages_freed: int
    foreground_p99_ms: float
    background_cpu_s: float


@dataclass
class GcReclaimResult:
    """GC on/off comparison on one delete-heavy trace."""

    workload: str
    rows: list[GcReclaimRow]

    def row(self, label: str) -> GcReclaimRow:
        """Look up one result row by its label; raises KeyError if absent."""
        for row in self.rows:
            if row.label == label:
                return row
        raise KeyError(label)

    @property
    def reclaim_advantage_bytes(self) -> int:
        """Extra live-footprint bytes the collector gave back."""
        return self.row("gc-off").stored_bytes - self.row("gc-on").stored_bytes

    @property
    def p99_ratio(self) -> float:
        """Foreground p99 with GC over without (≈1.0 when invisible)."""
        off = self.row("gc-off").foreground_p99_ms
        on = self.row("gc-on").foreground_p99_ms
        return on / off if off else 1.0

    def render(self) -> str:
        """Render this result as an aligned text table/summary."""
        table = render_table(
            f"GC reclaim ({self.workload}): delete-heavy trace, "
            "idle-slice collection",
            ["config", "stored KB", "reclaimed KB", "batches", "tombstones",
             "pages freed", "fg p99 ms", "bg cpu s"],
            [
                (row.label, row.stored_bytes / 1024.0,
                 row.reclaimed_bytes / 1024.0, row.gc_batches,
                 row.tombstones_removed, row.pages_freed,
                 row.foreground_p99_ms, row.background_cpu_s)
                for row in self.rows
            ],
        )
        return (
            f"{table}\n"
            f"  reclaim advantage: {self.reclaim_advantage_bytes / 1024.0:.1f}"
            f" KB  |  fg p99 ratio (on/off): {self.p99_ratio:.3f}"
        )


def delete_heavy_trace(
    workload_name: str,
    target_bytes: int,
    seed: int,
    delete_fraction: float,
    idle_every: int = 8,
    idle_seconds: float = 2.0,
) -> list[Operation]:
    """Insert a similar-record corpus, then delete a slice of it with
    idle windows interleaved — the §3.3.2 signal GC batches ride on."""
    workload = make_workload(
        workload_name, seed=seed, target_bytes=target_bytes
    )
    operations = list(workload.insert_trace())
    inserted = [op.record_id for op in operations if op.kind == "insert"]
    step = max(1, round(1.0 / delete_fraction)) if delete_fraction else 0
    victims = inserted[::step] if step else []
    for index, record_id in enumerate(victims):
        operations.append(Operation("delete", "db", record_id))
        if (index + 1) % idle_every == 0:
            operations.append(Operation("idle", idle_seconds=idle_seconds))
    operations.append(Operation("idle", idle_seconds=10.0))
    return operations


def gc_reclaim_experiment(
    workload_name: str = "wikipedia",
    target_bytes: int = 400_000,
    seed: int = 7,
    delete_fraction: float = 0.25,
    chunk_size: int = 64,
) -> GcReclaimResult:
    """Run the shared trace with and without the online collector."""
    trace = delete_heavy_trace(
        workload_name, target_bytes, seed, delete_fraction
    )
    rows = []
    for label, gc_enabled in (("gc-off", False), ("gc-on", True)):
        client = open_cluster(
            ClusterSpec(
                dedup=DedupConfig(
                    chunk_size=chunk_size,
                    gc_enabled=gc_enabled,
                    gc_reclaim_threshold_bytes=4096,
                ),
            )
        )
        result = client.run(trace)
        primary = client.cluster.primary
        gc = primary.gc
        rows.append(
            GcReclaimRow(
                label=label,
                stored_bytes=primary.db.stored_bytes,
                reclaimed_bytes=primary.db.reclaimed_bytes_total,
                gc_batches=sum(gc.batches.values()),
                tombstones_removed=gc.tombstones_removed,
                pages_freed=gc.pages_freed,
                foreground_p99_ms=percentile(result.latencies_s, 99.0) * 1e3,
                background_cpu_s=primary.background_cpu_seconds,
            )
        )
    return GcReclaimResult(workload=workload_name, rows=rows)

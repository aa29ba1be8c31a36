"""Admission experiment: inline CPU saved vs dedup ratio retained.

The admission controller decides, per stream, whether a record dedups
inline, defers to the idle-time out-of-line queue, or bypasses dedup
permanently. This experiment quantifies the trade on a mixed workload —
a high-yield stream (wikipedia) interleaved with a low-yield one (oltp)
— by replaying the identical trace under each ``admission_mode``:

* **inline** — every record through the full pipeline at insert time;
  the dedup-ratio ceiling and the inline-CPU floor.
* **hybrid** — the yield estimator keeps the high-yield stream inline
  and shunts the low-yield stream to the deferred queue, which drains
  during idle slices (§3.3.2's idleness signal) and at finalize.
* **governor** — the paper's §3.4.1 one-way kill switch, as the
  degenerate baseline.

The headline comparison: hybrid should spend less inline CPU than
all-inline while retaining nearly all of its final dedup ratio (the
deferred records still dedup, just off the insert path).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api import ClusterSpec, open_cluster
from repro.bench.report import render_table
from repro.core.config import DedupConfig
from repro.workloads import make_workload
from repro.workloads.base import Operation

#: Modes swept, in reporting order (inline first: it is the baseline
#: the retained-ratio column is normalized against).
MODES = ("inline", "hybrid", "governor")


@dataclass(frozen=True)
class AdmissionRow:
    """One admission mode's outcome on the shared trace."""

    mode: str
    operations: int
    inline_cpu_s: float
    outofline_cpu_s: float
    storage_ratio: float
    ratio_retained_pct: float
    inline_decisions: int
    defer_decisions: int
    bypass_decisions: int
    bypassed_streams: int
    invariants_ok: bool


@dataclass
class AdmissionResult:
    """Full mode sweep over one mixed trace."""

    mix: str
    seed: int
    rows: list[AdmissionRow] = field(default_factory=list)

    def render(self) -> str:
        """Aligned monospace table of the sweep."""
        return render_table(
            f"Admission — inline CPU saved vs dedup ratio retained "
            f"(mix={self.mix}, seed={self.seed})",
            ["mode", "ops", "inline cpu s", "deferred cpu s", "storage",
             "retained %", "inline", "defer", "bypass", "streams off",
             "invariants"],
            [
                (
                    row.mode,
                    row.operations,
                    f"{row.inline_cpu_s:.4f}",
                    f"{row.outofline_cpu_s:.4f}",
                    f"{row.storage_ratio:.2f}x",
                    f"{row.ratio_retained_pct:.1f}",
                    row.inline_decisions,
                    row.defer_decisions,
                    row.bypass_decisions,
                    row.bypassed_streams,
                    "ok" if row.invariants_ok else "FAILED",
                )
                for row in self.rows
            ],
        )


def mixed_trace(
    mix: str,
    seed: int,
    target_bytes: int,
    idle_every: int = 64,
    idle_seconds: float = 0.5,
) -> list[Operation]:
    """Round-robin interleaving of the mix's insert traces + idle slices.

    Each workload keeps its own logical database (the admission stream
    key), so the estimator sees the streams independently exactly as a
    multi-tenant deployment would. An idle operation every
    ``idle_every`` inserts gives the deferred queue its §3.3.2 drain
    windows mid-run rather than leaving all out-of-line work to
    finalize.
    """
    names = [name.strip() for name in mix.split(",") if name.strip()]
    if not names:
        raise ValueError(f"empty workload mix: {mix!r}")
    share = max(10_000, target_bytes // len(names))
    streams = [
        iter(make_workload(name, seed=seed, target_bytes=share).insert_trace())
        for name in names
    ]
    trace: list[Operation] = []
    inserts = 0
    while streams:
        exhausted = []
        for stream in streams:
            op = next(stream, None)
            if op is None:
                exhausted.append(stream)
                continue
            trace.append(op)
            inserts += 1
            if inserts % idle_every == 0:
                trace.append(Operation("idle", idle_seconds=idle_seconds))
        for stream in exhausted:
            streams.remove(stream)
    return trace


def admission_experiment(
    mix: str = "wikipedia,oltp",
    target_bytes: int = 300_000,
    seed: int = 7,
    chunk_size: int = 64,
    window: int = 128,
    modes: tuple[str, ...] = MODES,
) -> AdmissionResult:
    """Replay one mixed trace under each admission mode; measure the trade.

    The evaluation window is deliberately small (``window=128``) so the
    estimator completes several windows per stream on simulation-sized
    corpora; the paper's 100 000-insert window assumes production
    volumes.
    """
    result = AdmissionResult(mix=mix, seed=seed)
    trace = mixed_trace(mix, seed, target_bytes)
    inline_ratio: float | None = None
    for mode in modes:
        spec = ClusterSpec(
            dedup=DedupConfig(
                chunk_size=chunk_size,
                governor_window=window,
                admission_mode=mode,
            ),
        )
        client = open_cluster(spec)
        run = client.run(trace)
        report = client.check_invariants(strict=False)
        shard = client.admission_report()["shards"][0]
        decisions: dict[str, int] = {}
        for stream_counts in shard["decisions"].values():
            for decision, count in stream_counts.items():
                decisions[decision] = decisions.get(decision, 0) + count
        ratio = run.storage_compression_ratio
        if mode == "inline":
            inline_ratio = ratio
        retained = 100.0 * ratio / inline_ratio if inline_ratio else 100.0
        result.rows.append(
            AdmissionRow(
                mode=mode,
                operations=run.operations,
                inline_cpu_s=shard["inline_cpu_seconds"],
                outofline_cpu_s=shard["outofline_cpu_seconds"],
                storage_ratio=ratio,
                ratio_retained_pct=retained,
                inline_decisions=decisions.get("inline", 0),
                defer_decisions=decisions.get("defer", 0),
                bypass_decisions=decisions.get("bypass", 0),
                bypassed_streams=len(shard["bypassed_streams"]),
                invariants_ok=report.ok,
            )
        )
    return result

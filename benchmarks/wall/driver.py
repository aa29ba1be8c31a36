"""One round of one workload: set up, time the client calls, check.

The driver is a closed loop with one client on one thread: the next
call is issued when the previous one returned. It calls
``DedupClient.insert / insert_many / read / update / delete`` and then
``finalize()`` itself and never ``client.run()``, whose ``RunResult``
recompresses every page inside the call.
"""

from __future__ import annotations

import cProfile
import gc
import resource
import traceback
from dataclasses import dataclass, field
from time import perf_counter, process_time

import pkgprofile
import spans
from repro.api import open_cluster
from repro.core.pipeline import DROP_REASONS
from workloads import Plan

STAGES = (
    "admission_gate", "size_filter_gate", "sketch", "index_lookup",
    "source_select", "forward_delta", "writeback_plan", "accounting",
)


@dataclass
class Round:
    setup_s: float
    gen_s: float
    wall_s: float = 0.0      # timed calls + finalize()
    cpu_s: float = 0.0       # process CPU over the same interval
    finalize_s: float = 0.0
    rss_mb: float = 0.0      # the process's high-water mark when the round ended
    latencies: list[float] = field(default_factory=list)  # one per call, seconds
    read_calls: list[int] = field(default_factory=list)   # indices into latencies
    write_calls: list[int] = field(default_factory=list)
    records: int = 0         # client operations: a batch of 64 counts 64
    written_bytes: int = 0   # insert and update payload
    failed: int = 0          # calls that raised or returned the wrong bytes
    errors: list[str] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    recorder: spans.SpanRecorder | None = None  # spans mode
    profile: dict | None = None   # profile mode: self-time share by package


def _scalar(snapshot: dict, family: str, **labels: str) -> float:
    """Sum of a family's values over the label sets matching ``labels``."""
    return sum(
        row["value"]
        for row in snapshot.get(family, {}).get("values", ())
        if all(row["labels"].get(key) == want for key, want in labels.items())
    )


def _counters(client) -> dict[str, float]:
    """Cumulative counters at a boundary; a round reports end - start."""
    snapshot = client.registry.snapshot()
    partitions = [
        part
        for shard in client.index_report()["shards"].values()
        for part in shard.get("partitions", {}).values()
    ]
    pages = client.cluster.primary.db.pages
    pool = getattr(getattr(pages, "heap", pages), "pool", None)
    out = {
        "source_hits": _scalar(snapshot, "source_cache_hits_total"),
        "source_misses": _scalar(snapshot, "source_cache_misses_total"),
        "base_fetches": _scalar(snapshot, "db_decode_base_fetches_total", node="primary"),
        "index_lookups": sum(part["lookups"] for part in partitions),
        "index_hits": sum(part["hot_hits"] + part["cold_hits"] for part in partitions),
        "seen": _scalar(snapshot, "dedup_records_seen_total", scope="_total"),
        "deduped": _scalar(snapshot, "dedup_records_deduped_total", scope="_total"),
        "writebacks_planned": _scalar(
            snapshot, "dedup_writebacks_planned_total", scope="_total"),
        "writebacks_applied": _scalar(
            snapshot, "db_writebacks_applied_total", node="primary"),
        "oplog_bytes": _scalar(snapshot, "replication_uncompressed_bytes_total"),
        "disk_requests": _scalar(snapshot, "disk_reads_total")
        + _scalar(snapshot, "disk_writes_total"),
        # The registry's bufferpool_* collectors look for ``pages.pool``,
        # which the heap-file store keeps one level down, and read 0.
        "pool_hits": getattr(pool, "hits", 0),
        "pool_misses": getattr(pool, "misses", 0),
        "pool_evictions": getattr(pool, "evictions", 0),
    }
    for reason in DROP_REASONS:
        out[f"drops.{reason}"] = _scalar(
            snapshot, "pipeline_drops_total", scope="_total", reason=reason)
    for stage in STAGES:
        out[f"stage_cpu.{stage}"] = _scalar(
            snapshot, "pipeline_stage_cpu_seconds_total", scope="_total", stage=stage)
    return out


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _counts(client, shape: Round, before: dict, after: dict) -> dict[str, float]:
    """The round's exact numbers: the same for every repeat of a seed."""
    moved = {key: after[key] - before[key] for key in after}
    stats = client.stats()
    counts = {
        "storage_ratio": stats["storage_compression_ratio"],
        "network_ratio": stats["network_compression_ratio"],
        "index_bytes_per_record": _ratio(stats["index_memory_bytes"], stats["records"]),
        "cache.source.hit_ratio": _ratio(
            moved["source_hits"], moved["source_hits"] + moved["source_misses"]),
        "db.database.base_fetches_per_read": _ratio(
            moved["base_fetches"], len(shape.read_calls)),
        "index.hit_ratio": _ratio(moved["index_hits"], moved["index_lookups"]),
        "core.dedup_ratio": _ratio(moved["deduped"], moved["seen"]),
        "cache.writeback.applied_ratio": _ratio(
            moved["writebacks_applied"], moved["writebacks_planned"]),
        "db.oplog.bytes_per_user_byte": _ratio(
            moved["oplog_bytes"], shape.written_bytes),
        "sim.disk.requests_per_op": _ratio(moved["disk_requests"], shape.records),
        "storage.bufferpool.hit_ratio": _ratio(
            moved["pool_hits"], moved["pool_hits"] + moved["pool_misses"]),
        "storage.bufferpool.evictions": moved["pool_evictions"],
    }
    for key, value in moved.items():
        if key.startswith("drops."):
            counts[f"core.{key}"] = value
        elif key.startswith("stage_cpu."):
            counts[f"core.stage.{key[len('stage_cpu.'):]}.sim_cpu_s"] = value
    return counts


def _verify(client, plan: Plan, result: Round) -> None:
    """Untimed: replicas agree, invariants hold, every record reads back."""
    if not client.replicas_converged():
        result.errors.append("replicas did not converge")
    report = client.check_invariants(strict=False)
    if not report.ok:
        result.errors.append("invariants violated: " + report.summary())
    wrong = sum(
        1 for record_id, content in plan.model.items()
        if client.read(plan.database, record_id) != content
    )
    if wrong:
        result.errors.append(f"{wrong} of {len(plan.model)} records read back wrong")


def run_round(build, seed: int, scale: int, mode: str = "plain") -> Round:
    """Run one workload once on a fresh cluster.

    ``mode`` is ``"plain"`` (what the end-to-end metrics come from),
    ``"spans"`` (layer wrappers and stage clock installed) or
    ``"profile"`` (the timed region runs under cProfile).
    """
    gc.collect()  # the previous round's cluster, so peak RSS is one round's
    started = perf_counter()
    plan: Plan = build(seed, scale)
    recorder = None
    if mode == "spans":
        probe = open_cluster(plan.spec)
        recorder = spans.install(
            index_cls=type(probe.cluster.primary.engine.index_for(plan.database)),
            storage_cls=type(probe.cluster.primary.db.pages),
        )
    try:
        client = open_cluster(plan.spec)
        for op in plan.preload:
            client.insert(op.database, op.record_id, op.content)
        if plan.preload:
            client.finalize()
        calls = [
            (getattr(client, call.method), call.args, call.expect)
            for call in plan.calls
        ]
        result = Round(setup_s=perf_counter() - started, gen_s=plan.gen_s)
        for index, call in enumerate(plan.calls):
            if call.expect is None:
                result.write_calls.append(index)
                result.written_bytes += call.payload_bytes
            else:
                result.read_calls.append(index)
            result.records += len(call.args[0]) if call.method == "insert_many" else 1
        before = _counters(client)
        if recorder is not None:
            recorder.watch_pipeline(client.cluster.primary.engine.pipeline)
            recorder.reset()
        profiler = cProfile.Profile() if mode == "profile" else None
        latencies = result.latencies
        gc.collect()
        if profiler is not None:
            profiler.enable()
        cpu_started = process_time()
        loop_started = perf_counter()
        for method, args, expect in calls:
            call_started = perf_counter()
            try:
                got = method(*args)
            except Exception:  # the benchmark must finish and report the failure
                got = expect
                result.failed += 1
                if len(result.errors) < 3:
                    result.errors.append(traceback.format_exc())
            latencies.append(perf_counter() - call_started)
            if expect is not None and got != expect:
                result.failed += 1
        finalize_started = perf_counter()
        client.finalize()
        ended = perf_counter()
        result.cpu_s = process_time() - cpu_started
        if profiler is not None:
            profiler.disable()
            result.profile = pkgprofile.package_shares(profiler)
        result.wall_s = ended - loop_started
        result.finalize_s = ended - finalize_started
    finally:
        if recorder is not None:
            recorder.uninstall()
    result.recorder = recorder
    result.counts = _counts(client, result, before, _counters(client))
    _verify(client, plan, result)
    result.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB
    return result

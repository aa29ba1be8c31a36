"""Command-line interface: ``python -m repro <command>``.

Three commands cover the common uses of the library without writing code:

* ``experiment`` — regenerate one of the paper's tables/figures.
* ``run`` — drive one workload through a configured cluster and print the
  measurement summary.
* ``workloads`` — list the available dataset generators.
"""

from __future__ import annotations

import argparse
import sys

from repro.api import ClusterSpec, DedupClient, open_cluster
from repro.bench import experiments
from repro.bench import ablations
from repro.bench.admission_exp import admission_experiment
from repro.bench.failover_exp import failover_experiment
from repro.bench.gc_exp import gc_reclaim_experiment
from repro.bench.pipeline_profile import pipeline_profile
from repro.bench.sharding_exp import shard_scaling
from repro.bench.slo_exp import DEFAULT_CPU_SCALE, slo_experiment
from repro.core.config import DedupConfig
from repro.workloads import ALL_WORKLOADS, make_workload, parse_tenants

#: Experiment ids accepted by ``experiment`` (paper table/figure numbers).
EXPERIMENTS = {
    "fig1": lambda args: experiments.fig01(target_bytes=args.target_bytes),
    "fig7": lambda args: experiments.fig07(args.workload, target_bytes=args.target_bytes),
    "fig10": lambda args: experiments.fig10(args.workload, target_bytes=args.target_bytes),
    "fig11": lambda args: experiments.fig11(target_bytes=args.target_bytes),
    "fig12": lambda args: experiments.fig12(target_bytes=min(args.target_bytes, 500_000)),
    "fig13a": lambda args: experiments.fig13a(target_bytes=args.target_bytes),
    "fig13b": lambda args: experiments.fig13b(target_bytes=min(args.target_bytes, 800_000)),
    "fig14": lambda args: experiments.fig14(),
    "fig15": lambda args: experiments.fig15(),
    "table2": lambda args: experiments.table2(),
    "ablation-sketch": lambda args: ablations.sketch_sweep(
        args.workload, target_bytes=args.target_bytes
    ),
    "ablation-encoding": lambda args: ablations.encoding_sweep(
        target_bytes=args.target_bytes
    ),
    "ablation-writeback": lambda args: ablations.writeback_capacity_sweep(
        target_bytes=args.target_bytes
    ),
    "ablation-network": lambda args: ablations.network_stack_ablation(
        target_bytes=args.target_bytes
    ),
    "ablation-compaction": lambda args: ablations.compaction_ablation(
        target_bytes=args.target_bytes
    ),
    "pipeline-profile": lambda args: pipeline_profile(
        args.workload, target_bytes=args.target_bytes,
        batch_size=max(args.batch_size, 2),
    ),
    "shard-scaling": lambda args: shard_scaling(
        args.workload, target_bytes=args.target_bytes,
        shard_counts=tuple(
            int(part) for part in args.shard_counts.split(",") if part
        ),
        check_invariants=args.check_invariants,
    ),
    "failover": lambda args: failover_experiment(
        args.workload, target_bytes=args.target_bytes,
        seed=args.seed, crash_fraction=args.crash_fraction,
    ),
    "gc-reclaim": lambda args: gc_reclaim_experiment(
        args.workload, target_bytes=args.target_bytes, seed=args.seed,
    ),
    "admission": lambda args: admission_experiment(
        mix=args.mix, target_bytes=args.target_bytes, seed=args.seed,
    ),
    "slo": lambda args: slo_experiment(
        parse_tenants(args.tenants, target_bytes=args.tenant_bytes),
        seed=args.seed,
        shard_counts=tuple(
            int(part) for part in args.slo_shards.split(",") if part
        ),
        admission_modes=tuple(
            mode for mode in args.admission_modes.split(",") if mode
        ),
        slo_p99_s=args.slo_p99_ms / 1e3,
        cpu_scale=args.cpu_scale,
        rate_search=not args.no_rate_search,
    ),
}


def _add_index_arguments(command: argparse.ArgumentParser) -> None:
    """Feature-index flags shared by run/index-report (IndexSpec surface)."""
    command.add_argument(
        "--index-kind", default="cuckoo", choices=["cuckoo", "tiered"],
        help="feature index: the paper's unbounded cuckoo structure, or "
             "the memory-bounded tiered variant (exact hot tier + "
             "Bloom-banded cold tier)",
    )
    command.add_argument(
        "--index-hot-bytes", type=int, default=None, metavar="BYTES",
        help="tiered: hot-tier byte budget (demotes LRU entries to the "
             "cold tier past it); unset = unbounded",
    )
    command.add_argument(
        "--index-cold-fpp", type=float, default=0.01, metavar="P",
        help="tiered: per-band Bloom false-positive budget",
    )
    command.add_argument(
        "--index-promotion-hits", type=int, default=2, metavar="N",
        help="tiered: cold lookups of a feature before it is promoted "
             "back into the hot tier",
    )


def _index_spec_from_args(args: argparse.Namespace):
    """The :class:`~repro.api.IndexSpec` the index flags describe."""
    from repro.api import IndexSpec

    return IndexSpec(
        kind=args.index_kind,
        hot_bytes_budget=args.index_hot_bytes,
        cold_fpp=args.index_cold_fpp,
        promotion_hits=args.index_promotion_hits,
    )


def _add_obs_arguments(command: argparse.ArgumentParser) -> None:
    """Observability export flags shared by run/trace-replay/experiment."""
    command.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the metrics registry snapshot (JSON) to PATH",
    )
    command.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="enable sim-clock tracing and write span trees (JSON) to PATH",
    )
    command.add_argument(
        "--sample-every", default=None, metavar="SPEC",
        help="time-series sampling cadence, e.g. '10s' (simulated "
             "seconds) or '500ops' (client operations)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="dbDedup (SIGMOD 2017) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    exp = sub.add_parser("experiment", help="regenerate a paper table/figure")
    exp.add_argument("id", choices=sorted(EXPERIMENTS), help="experiment id")
    exp.add_argument("--workload", default="wikipedia",
                     help="dataset for per-dataset experiments")
    exp.add_argument("--target-bytes", type=int, default=1_000_000,
                     help="raw corpus size to synthesize")
    exp.add_argument("--batch-size", type=int, default=64,
                     help="insert batch size for pipeline-profile")
    exp.add_argument("--shard-counts", default="1,2,4,8", metavar="N,N,...",
                     help="shard counts swept by shard-scaling")
    exp.add_argument("--check-invariants", action="store_true",
                     help="shard-scaling: run the full invariant sweep at "
                          "every sweep point (a violation aborts)")
    exp.add_argument("--seed", type=int, default=7,
                     help="workload + fault seed for the failover scenarios")
    exp.add_argument("--crash-fraction", type=float, default=0.5,
                     help="failover: kill the node this far into the trace")
    exp.add_argument("--mix", default="wikipedia,oltp", metavar="W,W,...",
                     help="admission: comma-separated workload mix whose "
                          "streams the controller classifies independently")
    exp.add_argument("--tenants", default="stackexchange,oltp",
                     metavar="W[:RATE],...",
                     help="slo: comma-separated tenants as "
                          "workload[:rate_ops_s], e.g. "
                          "'stackexchange:60,oltp:60'")
    exp.add_argument("--tenant-bytes", type=int, default=200_000,
                     help="slo: raw corpus size per tenant")
    exp.add_argument("--slo-shards", default="1,2", metavar="N,N,...",
                     help="slo: shard counts swept by the SLO matrix")
    exp.add_argument("--admission-modes", default="inline,hybrid",
                     metavar="M,M,...",
                     help="slo: admission modes swept by the SLO matrix")
    exp.add_argument("--slo-p99-ms", type=float, default=60.0,
                     help="slo: sojourn-p99 target in milliseconds")
    exp.add_argument("--cpu-scale", type=float, default=DEFAULT_CPU_SCALE,
                     help="slo: chunking-CPU scale of the CPU-constrained "
                          "cost model (1.0 = the stock dedicated core)")
    exp.add_argument("--no-rate-search", action="store_true",
                     help="slo: skip the max-sustainable-rate search and "
                          "report the base-rate probes only")
    exp.add_argument("--slo-out", default=None, metavar="PATH",
                     help="slo: write the versioned repro.slo/v1 bundle "
                          "(JSON) to PATH")
    _add_obs_arguments(exp)

    run = sub.add_parser("run", help="run a workload through a cluster")
    run.add_argument("--workload", default="wikipedia",
                     choices=[cls.name for cls in ALL_WORKLOADS])
    run.add_argument("--target-bytes", type=int, default=1_000_000)
    run.add_argument("--seed", type=int, default=7)
    run.add_argument("--chunk-size", type=int, default=64)
    run.add_argument("--encoding", default="hop",
                     choices=["hop", "backward", "version-jumping", "forward"])
    run.add_argument("--hop-distance", type=int, default=16)
    run.add_argument("--block-compression", default="none",
                     choices=["none", "snappy", "zlib"])
    run.add_argument("--no-dedup", action="store_true",
                     help="disable the dedup engine (baseline)")
    run.add_argument("--trace", default="insert", choices=["insert", "mixed"],
                     help="insert-only load or the mixed read/write trace")
    run.add_argument("--batch-size", type=int, default=1,
                     help="coalesce consecutive inserts into batches of "
                          "this size (1 = per-record inserts)")
    run.add_argument("--shards", type=int, default=1,
                     help="number of hash-routed shards (1 = single "
                          "primary/secondary pair)")
    run.add_argument("--placement", default="hash",
                     choices=["hash", "prefix"],
                     help="shard placement: uniform hash of the record id, "
                          "or locality-preserving entity prefix")
    run.add_argument("--stage-stats", action="store_true",
                     help="also print the per-stage pipeline table")
    run.add_argument("--check-invariants", action="store_true",
                     help="run the full cluster-invariant sweep after the "
                          "workload; non-zero exit on any violation")
    _add_index_arguments(run)
    _add_obs_arguments(run)

    sub.add_parser("workloads", help="list available dataset generators")

    index_report = sub.add_parser(
        "index-report",
        help="run a workload and dump the per-tier feature-index "
             "snapshot (occupancy, bytes/record, false positives)",
    )
    index_report.add_argument("--workload", default="wikipedia",
                              choices=[cls.name for cls in ALL_WORKLOADS])
    index_report.add_argument("--target-bytes", type=int, default=1_000_000)
    index_report.add_argument("--seed", type=int, default=7)
    index_report.add_argument("--chunk-size", type=int, default=64)
    index_report.add_argument("--shards", type=int, default=1)
    index_report.add_argument("--json", action="store_true",
                              help="emit the raw report as JSON instead of "
                                   "the rendered table")
    _add_index_arguments(index_report)

    record = sub.add_parser(
        "trace-record", help="synthesize a workload trace into a file"
    )
    record.add_argument("path", help="output trace file")
    record.add_argument("--workload", default="wikipedia")
    record.add_argument("--target-bytes", type=int, default=1_000_000)
    record.add_argument("--seed", type=int, default=7)
    record.add_argument("--trace", default="insert", choices=["insert", "mixed"])

    replay = sub.add_parser(
        "trace-replay", help="run a recorded trace through a cluster"
    )
    replay.add_argument("path", help="trace file to replay")
    replay.add_argument("--chunk-size", type=int, default=64)
    replay.add_argument("--encoding", default="hop",
                        choices=["hop", "backward", "version-jumping", "forward"])
    replay.add_argument("--block-compression", default="none",
                        choices=["none", "snappy", "zlib"])
    replay.add_argument("--no-dedup", action="store_true")
    replay.add_argument("--check-invariants", action="store_true",
                        help="run the full cluster-invariant sweep after the "
                             "replay; non-zero exit on any violation")
    _add_obs_arguments(replay)

    cleanup = sub.add_parser(
        "cleanup",
        help="run a workload, delete a slice of it, then run the "
             "rollback-safe GC batch (plan -> dry-run -> apply -> "
             "post-validate) and report what it reclaimed",
    )
    cleanup.add_argument("--workload", default="wikipedia",
                         choices=[cls.name for cls in ALL_WORKLOADS])
    cleanup.add_argument("--target-bytes", type=int, default=1_000_000)
    cleanup.add_argument("--seed", type=int, default=7)
    cleanup.add_argument("--chunk-size", type=int, default=64)
    cleanup.add_argument("--shards", type=int, default=1)
    cleanup.add_argument("--delete-fraction", type=float, default=0.25,
                         metavar="F",
                         help="delete this fraction of inserted records "
                              "before collecting (creates the tombstones "
                              "GC reclaims)")
    cleanup.add_argument("--max-batch-records", type=int, default=None,
                         metavar="N",
                         help="cap on dependents re-encoded in the batch "
                              "(default: the config's gc_max_batch_records)")
    cleanup.add_argument("--dry-run", action="store_true",
                         help="print the GC plan (reclaimable bytes, chains "
                              "to re-root, pages to compact) without "
                              "touching the store; non-zero exit when "
                              "post-validation would fail")
    cleanup.add_argument("--check-invariants", action="store_true",
                         help="run the full cluster-invariant sweep after "
                              "the batch; non-zero exit on any violation")

    audit = sub.add_parser(
        "audit",
        help="run a workload and query the per-record dedup audit trail "
             "(decision reason, source, similarity, bytes saved)",
    )
    audit.add_argument("--workload", default="wikipedia",
                       choices=[cls.name for cls in ALL_WORKLOADS])
    audit.add_argument("--target-bytes", type=int, default=1_000_000)
    audit.add_argument("--seed", type=int, default=7)
    audit.add_argument("--chunk-size", type=int, default=64)
    audit.add_argument("--shards", type=int, default=1)
    audit.add_argument("--database", default=None,
                       help="only entries for this logical database")
    audit.add_argument("--reason", default=None,
                       help="only entries with this decision reason "
                            "(e.g. 'deduped', 'no_candidate')")
    audit.add_argument("--limit", type=int, default=10,
                       help="most recent entries to print per shard "
                            "(0 = summary only)")
    audit.add_argument("--json", action="store_true",
                       help="emit the raw report as JSON instead of the "
                            "rendered summary")

    check = sub.add_parser(
        "check-metrics",
        help="validate an exported metrics JSON file (schema + "
             "reconciliation identities); non-zero exit on any problem",
    )
    check.add_argument("path", help="metrics JSON file to check")

    report = sub.add_parser(
        "report", help="run every experiment and write a markdown report"
    )
    report.add_argument("--out", default="results.md", help="output file")
    report.add_argument("--target-bytes", type=int, default=800_000,
                        help="corpus scale per dataset")
    return parser


def _run_invariant_sweep(cluster) -> int:
    """Run the matching invariant sweep, print it, return an exit code."""
    from repro.db.invariants import check_cluster, check_sharded_cluster
    from repro.db.sharding import ShardedCluster

    if isinstance(cluster, ShardedCluster):
        report = check_sharded_cluster(cluster, strict=False)
    else:
        report = check_cluster(cluster, strict=False)
    print(report.summary())
    return 0 if report.ok else 1


def _sample_cadence(args: argparse.Namespace) -> tuple[float | None, int | None]:
    """Parse ``--sample-every`` into (seconds, ops), both None when unset."""
    if not args.sample_every:
        return None, None
    from repro.obs import parse_sample_every

    return parse_sample_every(args.sample_every)


def _open_observed_client(
    spec: ClusterSpec, args: argparse.Namespace
) -> DedupClient:
    """Open the spec with tracing/sampling switched on per the obs flags."""
    sample_s, sample_ops = _sample_cadence(args)
    return open_cluster(
        spec,
        trace=args.trace_out is not None,
        sample_every_s=sample_s,
        sample_every_ops=sample_ops,
    )


def _export_observability(
    cluster, args: argparse.Namespace, meta: dict
) -> None:
    """Write the metrics/trace documents the obs flags asked for."""
    if args.metrics_out:
        from repro.obs import write_metrics_json

        write_metrics_json(
            args.metrics_out, cluster.registry,
            sampler=cluster.sampler, meta=meta,
        )
        print(f"wrote metrics to {args.metrics_out}")
    if args.trace_out:
        from repro.obs import write_trace_json

        write_trace_json(args.trace_out, cluster.tracer)
        print(f"wrote trace to {args.trace_out}")


def _export_slo_bundle(result, args: argparse.Namespace) -> None:
    """Write the ``repro.slo/v1`` bundle when ``--slo-out`` asked for it."""
    if not getattr(args, "slo_out", None):
        return
    if not hasattr(result, "document"):
        print(f"--slo-out ignored: experiment {args.id!r} exports no bundle")
        return
    from repro.obs import write_json

    write_json(args.slo_out, result.document())
    print(f"wrote SLO bundle to {args.slo_out}")


def command_experiment(args: argparse.Namespace) -> int:
    """Run one experiment id and print its rendered result.

    With any observability flag set, an ambient capture collects every
    cluster the experiment builds; the export then bundles one metrics
    document per cluster (``repro.metrics-set/v1``).
    """
    if not (args.metrics_out or args.trace_out or args.sample_every):
        result = EXPERIMENTS[args.id](args)
        print(result.render())
        _export_slo_bundle(result, args)
        return 0

    from repro.obs import runtime as obs_runtime

    sample_s, sample_ops = _sample_cadence(args)
    with obs_runtime.capture(
        trace=args.trace_out is not None,
        sample_seconds=sample_s,
        sample_ops=sample_ops,
    ) as cap:
        result = EXPERIMENTS[args.id](args)
    print(result.render())
    _export_slo_bundle(result, args)
    if args.metrics_out:
        from repro.obs import metrics_set_document, write_json

        document = metrics_set_document(
            [
                (label, cluster.registry, cluster.sampler)
                for label, cluster in cap.clusters
            ],
            meta={"experiment": args.id, "workload": args.workload},
        )
        write_json(args.metrics_out, document)
        print(
            f"wrote metrics for {len(cap.clusters)} runs to "
            f"{args.metrics_out}"
        )
    if args.trace_out:
        from repro.obs import trace_set_document, write_json

        write_json(
            args.trace_out,
            trace_set_document(
                [(label, cluster.tracer) for label, cluster in cap.clusters]
            ),
        )
        print(f"wrote traces to {args.trace_out}")
    return 0


def _drop_breakdown(registry) -> dict[str, dict[str, int]]:
    """Engine-wide pipeline drops grouped stream -> reason -> count.

    Reads the ``pipeline_drops_total`` family's ``scope="_total"`` rows
    (per-database scopes would double-count); the ``shard`` label the
    merged registry adds on sharded topologies is folded away.
    """
    snapshot = registry.snapshot()
    family = snapshot.get("pipeline_drops_total")
    streams: dict[str, dict[str, int]] = {}
    if not isinstance(family, dict):
        return streams
    for row in family.get("values", []):
        labels = row.get("labels", {})
        if labels.get("scope") != "_total":
            continue
        stream = labels.get("stream", "_all")
        reason = labels.get("reason", "")
        per_stream = streams.setdefault(stream, {})
        per_stream[reason] = per_stream.get(reason, 0) + int(row["value"])
    return streams


def command_run(args: argparse.Namespace) -> int:
    """Run one workload through a configured deployment; print the summary."""
    spec = ClusterSpec(
        dedup=DedupConfig(
            chunk_size=args.chunk_size,
            encoding=args.encoding,
            hop_distance=args.hop_distance,
            index=_index_spec_from_args(args),
        ),
        dedup_enabled=not args.no_dedup,
        block_compression=args.block_compression,
        insert_batch_size=args.batch_size,
        shards=args.shards,
        placement=args.placement,
    )
    client = _open_observed_client(spec, args)
    cluster = client.cluster
    workload = make_workload(args.workload, seed=args.seed,
                             target_bytes=args.target_bytes)
    trace = workload.insert_trace() if args.trace == "insert" else workload.mixed_trace()
    result = client.run(trace)

    print(f"workload:           {args.workload} (seed {args.seed})")
    if client.shards > 1:
        print(f"shards:             {client.shards} "
              f"(placement: {args.placement})")
    print(f"operations:         {result.operations} "
          f"({result.inserts} inserts, {result.reads} reads)")
    print(f"raw corpus:         {result.logical_bytes / 1e6:.2f} MB")
    print(f"stored (dedup):     {result.stored_bytes / 1e6:.2f} MB "
          f"({result.storage_compression_ratio:.2f}x)")
    print(f"stored (physical):  {result.physical_bytes / 1e6:.2f} MB "
          f"({result.physical_compression_ratio:.2f}x)")
    print(f"replicated:         {result.network_bytes / 1e6:.2f} MB "
          f"({result.network_compression_ratio:.2f}x)")
    print(f"index memory:       {result.index_memory_bytes / 1024:.1f} KB")
    print(f"throughput:         {result.throughput_ops:.0f} ops/s (simulated)")
    print(f"latency p50/p99.9:  {result.latency_percentile(50) * 1e3:.2f} / "
          f"{result.latency_percentile(99.9) * 1e3:.2f} ms")
    print(f"replicas converged: {client.replicas_converged()}")
    drops = _drop_breakdown(client.registry)
    if drops:
        total = int(sum(sum(per.values()) for per in drops.values()))
        print(f"pipeline drops:     {total}")
        for stream in sorted(drops):
            reasons = ", ".join(
                f"{reason}={count}"
                for reason, count in sorted(drops[stream].items())
            )
            print(f"  {stream}: {reasons}")
    if client.shards > 1:
        stats = client.stats()
        print(f"cross-shard misses: {stats['cross_shard_misses']} "
              f"(forfeited dedup opportunities)")
        for index, shard_stats in enumerate(stats["per_shard"]):
            print(f"  shard {index}:          "
                  f"{shard_stats['records']} records, "
                  f"{shard_stats['storage_compression_ratio']:.2f}x storage, "
                  f"{shard_stats['network_compression_ratio']:.2f}x network")
    else:
        if cluster.primary.engine is not None:
            source_cache = cluster.primary.engine.source_cache
            print(f"source cache:       {source_cache.hits} hits / "
                  f"{source_cache.misses} misses / "
                  f"{source_cache.evictions} evictions")
        writeback = cluster.primary.db.writeback_cache
        print(f"write-back cache:   {writeback.flushed} flushed / "
              f"{writeback.discarded} discarded / "
              f"{writeback.invalidated} invalidated "
              f"(savings lost {writeback.discarded_savings / 1e3:.1f} KB)")
        if args.stage_stats and cluster.primary.engine is not None:
            print()
            print(cluster.primary.engine.describe_pipeline())
    _export_observability(
        cluster, args,
        meta={"command": "run", "workload": args.workload,
              "seed": args.seed, "target_bytes": args.target_bytes},
    )
    if args.check_invariants:
        return _run_invariant_sweep(cluster)
    return 0


def command_index_report(args: argparse.Namespace) -> int:
    """Run a workload and dump the per-tier feature-index snapshot."""
    import json

    spec = ClusterSpec(
        dedup=DedupConfig(
            chunk_size=args.chunk_size, index=_index_spec_from_args(args)
        ),
        shards=args.shards,
    )
    client = open_cluster(spec)
    workload = make_workload(args.workload, seed=args.seed,
                             target_bytes=args.target_bytes)
    client.run(workload.insert_trace())
    report = client.index_report()
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    for shard, body in sorted(report["shards"].items()):
        kind = body.get("kind")
        if kind is None:
            print(f"shard {shard}: dedup disabled (no index)")
            continue
        print(f"shard {shard}: kind={kind}  maintenance cpu "
              f"{body['maintenance_cpu_seconds'] * 1e3:.2f} ms")
        for database, part in sorted(body["partitions"].items()):
            budget = part["hot_bytes_budget"]
            budget_text = f"{budget}" if budget is not None else "unbounded"
            print(f"  {database}:")
            print(f"    hot:  {part['hot_entries']} entries, "
                  f"{part['hot_bytes']} B (budget {budget_text})")
            print(f"    cold: {part['cold_records']} record refs, "
                  f"{part['cold_bytes']} B across "
                  f"{part['cold_bands_materialized']} band(s)")
            print(f"    bytes/record: {part['bytes_per_record']:.2f}")
            print(f"    lookups: {part['lookups']} = "
                  f"{part['hot_hits']} hot + {part['cold_hits']} cold + "
                  f"{part['misses']} miss; "
                  f"{part['cold_false_positives']} cold false positives")
            print(f"    demotions: {part['demotions']}  "
                  f"promotions: {part['promotions']}")
    return 0


def command_workloads() -> int:
    """List the available dataset generators."""
    from repro.workloads import EXTRA_WORKLOADS

    for cls in ALL_WORKLOADS + EXTRA_WORKLOADS:
        print(f"{cls.name:15s} {cls.__doc__.strip().splitlines()[0]}")
    return 0


def command_trace_record(args: argparse.Namespace) -> int:
    """Synthesize a workload trace and write it to a file."""
    from repro.workloads.trace_io import save_trace

    workload = make_workload(args.workload, seed=args.seed,
                             target_bytes=args.target_bytes)
    trace = (
        workload.insert_trace() if args.trace == "insert"
        else workload.mixed_trace()
    )
    size = save_trace(trace, args.path)
    print(f"wrote {size / 1e6:.2f} MB trace to {args.path}")
    return 0


def command_trace_replay(args: argparse.Namespace) -> int:
    """Replay a recorded trace through a cluster; print the outcome."""
    from repro.workloads.trace_io import load_trace_file

    spec = ClusterSpec(
        dedup=DedupConfig(
            chunk_size=args.chunk_size,
            encoding=args.encoding,
        ),
        dedup_enabled=not args.no_dedup,
        block_compression=args.block_compression,
    )
    client = _open_observed_client(spec, args)
    cluster = client.cluster
    result = client.run(load_trace_file(args.path))
    print(f"replayed {result.operations} operations from {args.path}")
    print(f"storage: {result.storage_compression_ratio:.2f}x  "
          f"network: {result.network_compression_ratio:.2f}x  "
          f"converged: {client.replicas_converged()}")
    _export_observability(
        cluster, args, meta={"command": "trace-replay", "path": args.path},
    )
    if args.check_invariants:
        return _run_invariant_sweep(cluster)
    return 0


def _deleted_workload_client(args: argparse.Namespace) -> DedupClient:
    """Shared cleanup/audit setup: load a corpus, delete a slice of it."""
    spec = ClusterSpec(
        dedup=DedupConfig(chunk_size=args.chunk_size),
        shards=args.shards,
    )
    client = open_cluster(spec)
    workload = make_workload(args.workload, seed=args.seed,
                             target_bytes=args.target_bytes)
    trace = list(workload.insert_trace())
    client.run(trace)
    fraction = getattr(args, "delete_fraction", 0.0)
    if fraction > 0:
        inserted = [op for op in trace if op.kind == "insert"]
        step = max(1, round(1 / max(fraction, 1e-9)))
        for op in inserted[::step]:
            client.delete(op.database, op.record_id)
        client.finalize()
    return client


def command_cleanup(args: argparse.Namespace) -> int:
    """Run the operator-initiated GC batch; non-zero exit on rollback."""
    from repro.db.invariants import check_database

    client = _deleted_workload_client(args)
    report = client.cleanup(
        dry_run=args.dry_run, max_records=args.max_batch_records
    )
    exit_code = 0
    for shard, body in sorted(report["shards"].items()):
        print(f"shard {shard}:")
        if args.dry_run:
            plan = body["plan"]
            for line in plan.describe().splitlines():
                print(f"  {line}")
            continue
        batch = body["report"]
        print(f"  outcome           : {batch.outcome}")
        print(f"  chains re-rooted  : {batch.reroots_applied} "
              f"({batch.promotions} promoted to raw)")
        print(f"  tombstones removed: {batch.tombstones_removed}")
        print(f"  reclaimed bytes   : {batch.reclaimed_bytes}")
        print(f"  pages freed       : {batch.pages_freed} "
              f"({batch.compaction_bytes_moved} bytes migrated)")
        print(f"  background cpu    : {batch.cpu_seconds * 1e3:.2f} ms")
        if batch.violations:
            for violation in batch.violations:
                print(f"  POST-VALIDATION: {violation}")
            exit_code = 1
    if args.dry_run:
        # A batch only fails post-validation (and rolls back) when the
        # store already violates its invariants — the prepared payloads
        # are decode-checked during planning. Surface that prediction.
        for index, primary in enumerate(_cluster_primaries(client.cluster)):
            sweep = check_database(primary.db, node=f"shard{index}")
            if not sweep.ok:
                for violation in sweep.violations:
                    print(f"WOULD FAIL POST-VALIDATION: {violation}")
                exit_code = 1
    if args.check_invariants:
        invariant_code = _run_invariant_sweep(client.cluster)
        exit_code = exit_code or invariant_code
    return exit_code


def _cluster_primaries(cluster) -> list:
    """Shard primaries of either topology (plain cluster = one shard)."""
    from repro.db.sharding import ShardedCluster

    if isinstance(cluster, ShardedCluster):
        return [shard.primary for shard in cluster.shards]
    return [cluster.primary]


def command_audit(args: argparse.Namespace) -> int:
    """Run a workload and print the dedup audit trail."""
    import json
    from dataclasses import asdict

    client = _deleted_workload_client(args)
    report = client.audit_report(
        database=args.database, reason=args.reason,
        limit=args.limit if args.limit > 0 else None,
    )
    if args.json:
        payload = {
            "shards": {
                str(shard): {
                    "summary": body["summary"],
                    "entries": [asdict(entry) for entry in body["entries"]],
                }
                for shard, body in report["shards"].items()
            }
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    for shard, body in sorted(report["shards"].items()):
        summary = body["summary"]
        if summary is None:
            print(f"shard {shard}: dedup disabled (no audit trail)")
            continue
        print(f"shard {shard}: {summary['records']} records audited "
              f"({summary['rebuilt']} rebuilt from the oplog)")
        print(f"  raw bytes   : {summary['raw_bytes']}")
        print(f"  saved bytes : {summary['saved_bytes']}")
        print(f"  mean similarity (deduped): {summary['mean_similarity']:.2f}")
        reasons = ", ".join(
            f"{reason}={count}"
            for reason, count in sorted(summary["reasons"].items())
        )
        print(f"  reasons     : {reasons}")
        if args.limit > 0 and body["entries"]:
            print("  most recent entries:")
            for entry in body["entries"]:
                source = (
                    f" source={entry.source_id} "
                    f"similarity={entry.similarity}"
                    if entry.source_id is not None else ""
                )
                print(f"    {entry.database}/{entry.record_id}: "
                      f"{entry.reason} raw={entry.raw_size} "
                      f"saved={entry.saved_bytes}{source}")
    return 0


def command_check_metrics(args: argparse.Namespace) -> int:
    """Validate an exported metrics file; print problems, exit non-zero."""
    import json

    from repro.obs import check_metrics_payload

    try:
        with open(args.path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as error:
        print(f"cannot read {args.path}: {error}")
        return 1
    problems = check_metrics_payload(payload)
    for problem in problems:
        print(f"PROBLEM: {problem}")
    if problems:
        print(f"{args.path}: {len(problems)} problem(s)")
        return 1
    print(f"{args.path}: ok")
    return 0


def command_report(args: argparse.Namespace) -> int:
    """Regenerate every experiment into one markdown report file."""
    from repro.bench.full_report import write_report

    size = write_report(args.out, target_bytes=args.target_bytes)
    print(f"wrote {size / 1024:.0f} KB report to {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "experiment":
        return command_experiment(args)
    if args.command == "run":
        return command_run(args)
    if args.command == "workloads":
        return command_workloads()
    if args.command == "index-report":
        return command_index_report(args)
    if args.command == "trace-record":
        return command_trace_record(args)
    if args.command == "trace-replay":
        return command_trace_replay(args)
    if args.command == "cleanup":
        return command_cleanup(args)
    if args.command == "audit":
        return command_audit(args)
    if args.command == "check-metrics":
        return command_check_metrics(args)
    if args.command == "report":
        return command_report(args)
    return 1  # pragma: no cover — argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

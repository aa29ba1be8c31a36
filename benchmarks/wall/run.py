"""Wall-clock benchmark for dbDedup; see README.md beside this file.

    python3 benchmarks/wall/run.py --workload W --seed N --seconds S --trace 0|1
        one run in this process; the last line of output is the result
        object BENCHMARK.json's contract describes.
    python3 benchmarks/wall/run.py [--seed N] [--workload W] [--quick] [--out FILE]
        every workload, untraced then traced, one subprocess each (so peak
        RSS is per workload), gathered into one document.
    python3 benchmarks/wall/run.py compare A.json B.json
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
# The benchmark command cannot set PYTHONPATH, and what it measures is
# this checkout's source, never an installed copy.
if not (SRC / "repro").is_dir():
    raise SystemExit(f"{SRC}/repro not found: run.py needs the repository around it")
sys.path.insert(0, str(SRC))

import compare  # noqa: E402
from driver import STAGES, Round, run_round  # noqa: E402
from pkgprofile import PACKAGES  # noqa: E402
from spans import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from repro.core.pipeline import DROP_REASONS  # noqa: E402

SCHEMA = "repro.wallbench/v1"
DEFAULT_SECONDS = 15
QUICK_SCALE = 8

#: End-to-end metrics (name -> unit): what ``--trace 0`` reports. Every
#: workload reports every one, and none can be 0.
END_TO_END = {
    "setup_s": "s",
    "workload_s": "s",
    "call_p50_ms": "ms",
    "storage_ratio": "x",
    "network_ratio": "x",
    "index_bytes_per_record": "B",
    "peak_rss_mb": "MB",
}

#: Exact counters every repeat of a seed must reproduce bit for bit.
EXACT = ("storage_ratio", "network_ratio", "index_bytes_per_record")

COUNT_UNITS = {
    "cache.source.hit_ratio": "ratio",
    "db.database.base_fetches_per_read": "count",
    "index.hit_ratio": "ratio",
    "core.dedup_ratio": "ratio",
    **{f"core.drops.{reason}": "count" for reason in DROP_REASONS},
    "cache.writeback.applied_ratio": "ratio",
    "db.oplog.bytes_per_user_byte": "ratio",
    "sim.disk.requests_per_op": "count",
    "storage.bufferpool.hit_ratio": "ratio",
    "storage.bufferpool.evictions": "count",
}

#: Inclusive wall time of each pipeline stage, beside the simulated CPU
#: the engine's cost model charged it.
STAGE_UNITS = {
    f"core.stage.{stage}.{clock}": "s"
    for stage in STAGES for clock in ("wall_s", "sim_cpu_s")
}

TRACE_UNITS = {
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_share": "ratio",
    "trace.spans": "count",
}

#: Per-layer metrics (name -> unit): what ``--trace 1`` reports.
PER_LAYER = {
    **{
        f"{layer}.{suffix}": unit
        for layer in LAYERS
        for suffix, unit in (("self_s", "s"), ("calls", "count"), ("share", "ratio"))
    },
    "workloads.gen_s": "s",
    **STAGE_UNITS,
    **COUNT_UNITS,
    "finalize_s": "s",
    **TRACE_UNITS,
    **{f"profile.{package}.self_share": "ratio" for package in (*PACKAGES, "other")},
}


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * pct / 100)) - 1]


def tail_percentile(samples: int) -> float | None:
    """The highest percentile with at least ten samples beyond it."""
    for pct in (99.9, 99.0, 90.0):
        if samples * (100 - pct) / 100 >= 10:
            return pct
    return None


def _summary(values: list[float], unit: str) -> dict:
    return {
        "value": statistics.median(values), "unit": unit,
        "min": min(values), "max": max(values), "samples": len(values),
    }


def _end_to_end(rounds: list[Round]) -> dict[str, dict]:
    per_round = {
        "setup_s": [r.setup_s for r in rounds],
        "workload_s": [r.wall_s for r in rounds],
        "call_p50_ms": [1e3 * statistics.median(r.latencies) for r in rounds],
        **{name: [r.counts[name] for r in rounds] for name in EXACT},
        # A high-water mark only rises, so later rounds would add what the
        # allocator failed to reuse: the first round's is one round's peak.
        "peak_rss_mb": [rounds[0].rss_mb],
    }
    return {name: _summary(per_round[name], unit) for name, unit in END_TO_END.items()}


def _informational(rounds: list[Round]) -> dict[str, dict]:
    """The seed-sensitive figures: reported, never held to a bound."""
    shape = rounds[0]  # every round of a seed replays the same calls
    records, ingest = shape.records, shape.written_bytes
    out = {
        "ops_s": _summary([records / r.wall_s for r in rounds], "1/s"),
        "cpu_ms_per_op": _summary([1e3 * r.cpu_s / records for r in rounds], "ms"),
        "finalize_s": _summary([r.finalize_s for r in rounds], "s"),
        "op_fail_ratio": _summary([r.failed / len(r.latencies) for r in rounds], "ratio"),
    }
    if ingest:
        out["ingest_mb_s"] = _summary([ingest / 1e6 / r.wall_s for r in rounds], "MB/s")
    for kind, picks in (("write", shape.write_calls), ("read", shape.read_calls)):
        if not picks:
            continue
        out[f"{kind}_p50_ms"] = _summary(
            [1e3 * statistics.median([r.latencies[i] for i in picks]) for r in rounds],
            "ms",
        )
        # The tail is taken over the calls of every round together: one
        # round of 42 insert_many calls supports no percentile above p75.
        pooled = [1e3 * r.latencies[i] for r in rounds for i in picks]
        pct = tail_percentile(len(pooled))
        if pct is not None:
            out[f"{kind}_p{pct:g}_ms"] = {
                "value": percentile(pooled, pct), "unit": "ms", "samples": len(pooled),
            }
    return out


def _per_layer(untraced_s: float, traced: Round, profiled: Round, layers: dict) -> dict:
    values: dict[str, float | None] = {}
    attributed = 0.0
    for layer, totals in layers.items():
        for suffix in ("self_s", "calls", "share"):
            values[f"{layer}.{suffix}"] = None
        if totals is not None:
            values[f"{layer}.self_s"] = totals["self_s"]
            values[f"{layer}.calls"] = totals["calls"]
            values[f"{layer}.share"] = totals["self_s"] / traced.wall_s
            attributed += totals["self_s"]
    values["workloads.gen_s"] = traced.gen_s
    for stage in STAGES:
        values[f"core.stage.{stage}.wall_s"] = traced.recorder.stages.wall_s.get(stage, 0.0)
    values.update(traced.counts)
    values["finalize_s"] = traced.finalize_s
    values["trace.overhead_ratio"] = traced.wall_s / untraced_s
    values["trace.unattributed_share"] = 1.0 - attributed / traced.wall_s
    values["trace.spans"] = len(traced.recorder)
    for package, share in profiled.profile.items():
        values[f"profile.{package}.self_share"] = share
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def measure(args) -> dict:
    """One run of one workload in this process; returns its document."""
    workload = WORKLOADS[args.workload]
    scale = QUICK_SCALE if args.quick else 1

    def one(mode: str) -> Round:
        return run_round(workload.build, args.seed, scale, mode)

    plain = [one("plain")]
    if args.trace:
        # The span round sits between two untraced rounds, so a machine
        # that drifts during the run skews the overhead ratio less.
        traced = one("spans")
        plain.append(one("plain"))
        profiled = one("profile")
        everything = [*plain, traced, profiled]
    else:
        while not args.quick and sum(r.wall_s for r in plain) < args.seconds:
            plain.append(one("plain"))
        everything = plain
    errors = [error for r in everything for error in r.errors]
    for name in plain[0].counts:
        seen = {r.counts[name] for r in everything}
        if len(seen) > 1:
            errors.append(f"{name} differs between repeats of one seed: {sorted(seen)}")
    doc = {
        "schema": SCHEMA,
        "workload": args.workload,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": f"1/{scale}",
        "trace": args.trace,
        "rounds": len(plain),
        "attempted": sum(len(r.latencies) for r in everything),
        "failed": sum(r.failed for r in everything),
        "errors": errors,
        "counts": dict(plain[0].counts),
    }
    doc["correct"] = not doc["failed"] and not errors
    if args.trace:
        layers = traced.recorder.layer_totals()
        doc["per_layer"] = _per_layer(
            statistics.mean(r.wall_s for r in plain), traced, profiled, layers
        )
        doc["layer_methods"] = {
            layer: totals["methods"] for layer, totals in layers.items() if totals
        }
        doc["unwrapped"] = traced.recorder.missing
        if args.trace_out:
            doc["trace_out"] = {
                "path": args.trace_out, "spans": traced.recorder.write(args.trace_out)
            }
    else:
        doc["end_to_end"] = _end_to_end(plain)
        doc["informational"] = _informational(plain)
    return doc


# -- output -------------------------------------------------------------------


def _fmt(value) -> str:
    return "null" if value is None else f"{value:.6g}"


def report(doc: dict) -> list[str]:
    """Every metric by name with its unit, as text."""
    lines = [
        f"== {doc['workload']}  seed {doc['seed']}  scale {doc['scale']}  "
        f"{'traced' if doc['trace'] else 'untraced'}  rounds {doc['rounds']}  "
        f"attempted {doc['attempted']}  failed {doc['failed']}  "
        f"correct {doc['correct']}"
    ]
    for section in ("end_to_end", "informational"):
        for name, m in doc.get(section, {}).items():
            spread = (
                f"  [{_fmt(m['min'])} .. {_fmt(m['max'])}]" if "min" in m else ""
            )
            lines.append(
                f"  {name:26s} {_fmt(m['value']):>12s} {m['unit']:6s}{spread}"
                f"  n={m['samples']}"
            )
    layers = doc.get("per_layer")
    if layers:
        lines.append(f"  {'layer':18s} {'self_s':>10s} {'calls':>10s} {'share':>8s}")
        for layer in LAYERS:
            self_s, calls, share = (
                layers[f"{layer}.{suffix}"]["value"] for suffix in ("self_s", "calls", "share")
            )
            lines.append(
                f"  {layer:18s} {_fmt(self_s):>10s} {_fmt(calls):>10s} {_fmt(share):>8s}"
            )
        lines.append("  profile self share by package (cProfile cross-check):")
        lines.append("    " + "  ".join(
            f"{package} {layers[f'profile.{package}.self_share']['value']:.3f}"
            for package in (*PACKAGES, "other")
        ))
        sim = {s: layers[f"core.stage.{s}.sim_cpu_s"]["value"] for s in STAGES}
        wall = {s: layers[f"core.stage.{s}.wall_s"]["value"] for s in STAGES}
        sim_total, wall_total = sum(sim.values()) or 1.0, sum(wall.values()) or 1.0
        lines.append(
            f"  {'stage':18s} {'sim_cpu_s':>10s} {'sim share':>10s} "
            f"{'wall_s':>10s} {'wall share':>10s}"
        )
        for stage in STAGES:
            lines.append(
                f"  {stage:18s} {sim[stage]:10.4f} {sim[stage] / sim_total:10.1%} "
                f"{wall[stage]:10.4f} {wall[stage] / wall_total:10.1%}"
            )
        for name in ("workloads.gen_s", "finalize_s", *COUNT_UNITS, *TRACE_UNITS):
            m = layers[name]
            lines.append(f"  {name:36s} {_fmt(m['value']):>12s} {m['unit']}")
        if doc["unwrapped"]:
            lines.append("  no longer present, not wrapped: " + ", ".join(doc["unwrapped"]))
    lines.extend(f"  ERROR {error}" for error in doc["errors"])
    return lines


def contract_line(doc: dict) -> str:
    """The one JSON object the benchmark driver reads."""
    metrics = doc["per_layer"] if doc["trace"] else doc["end_to_end"]
    return json.dumps({
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        # A layer that lost all its methods is null in the document and
        # 0 here, where every value has to be a number.
        "metrics": {
            name: {"value": m["value"] or 0, "unit": m["unit"]}
            for name, m in metrics.items()
        },
    })


def fan_out(args) -> dict:
    """Each workload untraced then traced, one subprocess per run."""
    names = [args.workload] if args.workload else list(WORKLOADS)
    traces = [args.trace] if args.trace is not None else [0, 1]
    gathered = {"schema": SCHEMA, "seed": args.seed, "workloads": {}}
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    with tempfile.TemporaryDirectory(prefix=".run-", dir=HERE) as scratch:
        for name in names:
            for trace in traces:
                out = Path(scratch) / f"{name}.{trace}.json"
                command = [
                    sys.executable, str(HERE / "run.py"), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace), "--out", str(out),
                ]
                if args.quick:
                    command.append("--quick")
                if args.trace_out and trace:
                    target = Path(args.trace_out)
                    command += ["--trace-out", str(
                        target.with_name(f"{target.stem}.{name}{target.suffix}")
                    )]
                status = subprocess.run(command, env=env).returncode
                if not out.exists():
                    raise SystemExit(f"{name} (trace {trace}) exited {status} with no result")
                gathered["workloads"].setdefault(name, {})[
                    "traced" if trace else "untraced"
                ] = json.loads(out.read_text())
    return gathered


def parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="start rounds until this much timed work is done")
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="1/8 sizes, one round: a smoke test, not a measurement")
    parser.add_argument("--out", help="write the result document here")
    parser.add_argument("--trace-out", help="write the traced round's spans here (JSONL)")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            raise SystemExit("usage: run.py compare A.json B.json")
        return compare.main(argv[1], argv[2])
    args = parse(argv)
    one_run = args.workload is not None and args.trace is not None
    if one_run:
        doc = measure(args)
        print("\n".join(report(doc)))
        correct = doc["correct"]
    else:
        doc = fan_out(args)
        correct = all(
            run["correct"] for runs in doc["workloads"].values() for run in runs.values()
        )
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    if one_run:
        print(contract_line(doc))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Paired A/B of the wall-clock benchmark between two revisions.

    python tools/ab_wall.py <parent-rev> <change-rev> --pairs 10 \\
        [--workload W ...] [--seed S ...] [--trace N] [--spread N] \\
        [--out benchmarks/trajectory/pr-N.json]

Exports both revisions into a scratch directory (``git archive``: nothing
is left behind in ``.git``, and each side runs its *own* copy of
``benchmarks/wall/``, as the benchmark driver does), then for every
workload and seed runs ``--pairs`` pairs of

    python3 benchmarks/wall/run.py --workload W --seed S --seconds N --trace 0

one subprocess per run, alternating which side goes first, so drift of
the machine during the session falls on both sides alike. Absolute
numbers from different sessions are not comparable (ROADMAP item 5);
every entry therefore carries its own parent column.

The document lists every run, and per workload x seed x end-to-end
metric each side's median and quartiles, how many pairs the change won
(ties count for neither) and the relative difference of the medians. A
gain may be claimed when the change wins at least nine tenths of the
pairs and the medians differ by more than the parent's inter-quartile
distance — ``claimable`` says whether both hold. ``verdict`` holds the
metric to its ``BENCHMARK.json`` bound: ``improved`` when claimable,
``unresolved`` when either side's inter-quartile distance is wider than
the bound (unless every run of the change beats every run of the
parent), else ``regressed`` or ``within_bound``. The three exact
counters must be identical in every run of a workload x seed; if they
are not, or any run fails an operation, the tool exits 1.

``--trace N`` adds, after the pairs of each workload x seed, N more
pairs of ``--trace 1`` runs (same alternation) and records every
layer's ``self_s`` / ``calls`` / ``share`` per run and as medians per
side: where the trace puts a saving, measured in the same session as
the verdicts. Traced wall times carry the tracing overhead and feed no
verdict.

``--spread N`` adds, per workload, one single-round run of the change at
each of the seeds 1..N. The pairs hold the seed fixed, so they cannot
see a metric that is steady at one seed and jumps between seeds; the
benchmark driver runs ten different seeds and refuses a metric whose
quartiles over them are further apart than its bound. Each metric's
median, quartiles and ``steady`` (inter-quartile distance within
``bound`` x median) go under the document's ``spread`` key, and an
unsteady one is printed as such. The exact counters depend on the seed
and are judged like the rest.

Every run also carries ``steal_share``: the share of all CPU time the
hypervisor stole during it (the ``steal`` column of ``/proc/stat``, read
before and after the subprocess; ``None`` where the file does not
exist). A steal burst slows both sides at random and can turn a clean
change ``unresolved``, so a workload x seed any of whose runs lost more
than :data:`STEAL_FLAG_SHARE` to steal is listed under the document's
``steal_flags`` and printed as ``STEAL``: re-run it rather than read its
verdict. Flags are about the machine and do not change the exit code.

To measure uncommitted work, pass ``$(git stash create)`` as the change
revision after ``git add -A``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SCHEMA = "repro.abwall/v1"
SIDES = ("parent", "change")

#: Counters every run of one workload x seed must reproduce bit for bit,
#: on both sides (``benchmarks/wall/run.py::EXACT``).
EXACT = ("storage_ratio", "network_ratio", "index_bytes_per_record")

#: ``--seconds`` of a spread run: short enough that run.py stops after
#: its first round.
SPREAD_SECONDS = 1

#: What a traced run keeps: each layer's self time, call count and share.
LAYER_SUFFIXES = (".self_s", ".calls", ".share")

#: Where Linux keeps the per-CPU-state jiffy counters.
PROC_STAT = Path("/proc/stat")

#: A run that lost more than this share of CPU time to steal flags its
#: workload x seed: one such burst has moved ``workload_s`` by 20x.
STEAL_FLAG_SHARE = 0.02


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=REPO_ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def export(rev: str, into: Path) -> str:
    """Unpack ``rev`` into ``into``; returns the commit it resolved to."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}")
    into.mkdir(parents=True)
    archive = subprocess.Popen(
        ["git", "archive", "--format=tar", commit], cwd=REPO_ROOT, stdout=subprocess.PIPE
    )
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    if archive.wait():
        raise SystemExit(f"git archive {rev} failed")
    return commit


def cpu_times(path: Path = PROC_STAT) -> tuple[int, int] | None:
    """``(steal, total)`` jiffies of the aggregate ``cpu`` line, or None.

    Total is user + nice + system + idle + iowait + irq + softirq + steal
    (guest time is already inside user).
    """
    try:
        with open(path, encoding="ascii") as stat:
            fields = stat.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu":
        return None
    values = [int(value) for value in fields[1:9]]
    steal = values[7] if len(values) > 7 else 0
    return steal, sum(values)


def steal_share(before: tuple[int, int] | None, after: tuple[int, int] | None):
    """Share of CPU time stolen between two :func:`cpu_times` readings."""
    if before is None or after is None or after[1] <= before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def steal_flags(label: str, runs: list[dict], limit: float = STEAL_FLAG_SHARE) -> list[str]:
    """One line naming ``label``'s runs that lost more than ``limit`` to steal."""
    stolen = [
        f"{run.get('side', 'change')} {run.get('pair', run.get('seed'))}: "
        f"{run['steal_share']:.1%}"
        for run in runs
        if run.get("steal_share") is not None and run["steal_share"] > limit
    ]
    if not stolen:
        return []
    return [f"{label}: {len(stolen)} of {len(runs)} runs lost more than "
            f"{limit:.0%} to steal ({', '.join(stolen)})"]


def run_once(
    checkout: Path, workload: str, seed: int, seconds: float, trace: bool = False
) -> dict:
    """One benchmark run; the result object of its last line."""
    command = [
        sys.executable, "benchmarks/wall/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    # PYTHONHASHSEED as run.py's own fan-out sets it; PYTHONPATH dropped
    # so each side can only import its own src/.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONHASHSEED"] = "0"
    before = cpu_times()
    done = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True)
    stolen = steal_share(before, cpu_times())
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise SystemExit(
            f"{workload} seed {seed} in {checkout}: no result "
            f"(exit {done.returncode})\n{done.stdout[-2000:]}\n{done.stderr[-2000:]}"
        )
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "steal_share": stolen,
        "metrics": {
            name: m["value"] for name, m in result["metrics"].items()
            if not trace or name.endswith(LAYER_SUFFIXES)
        },
    }


def _side_summary(values: list[float], method: str = "inclusive") -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method=method)
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def _verdict(parent: dict, change: dict, sign: float, bound: float, claimable: bool) -> str:
    """``improved`` / ``unresolved`` / ``regressed`` / ``within_bound``."""
    if claimable:
        return "improved"
    wide = any(
        side["q3"] - side["q1"] > bound * abs(side["median"]) for side in (parent, change)
    )
    # Every run of the change better than every run of the parent.
    if sign > 0:
        separated = change["max"] < parent["min"]
    else:
        separated = change["min"] > parent["max"]
    if wide and not separated:
        return "unresolved"
    worse = sign * (change["median"] - parent["median"]) / abs(parent["median"])
    return "regressed" if worse > bound else "within_bound"


def summarize(runs: list[dict], specs: list[dict]) -> dict:
    """Per metric: both sides' quartiles, the win count and the verdict."""
    by_pair: dict[int, dict[str, dict]] = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run["metrics"]
    summary = {}
    for spec in specs:
        metric, direction = spec["name"], spec["better"]
        sign = 1.0 if direction == "lower" else -1.0
        sides = {
            side: _side_summary([pair[side][metric] for pair in by_pair.values()])
            for side in SIDES
        }
        gaps = [sign * (pair["parent"][metric] - pair["change"][metric])
                for pair in by_pair.values()]
        wins = sum(gap > 0 for gap in gaps)
        parent, change = sides["parent"], sides["change"]
        gain = sign * (parent["median"] - change["median"])
        claimable = wins >= 0.9 * len(gaps) and gain > parent["q3"] - parent["q1"]
        summary[metric] = {
            "better": direction,
            **sides,
            "pairs": len(gaps),
            "change_wins": wins,
            "parent_wins": sum(gap < 0 for gap in gaps),
            "median_change_rel": (change["median"] - parent["median"]) / parent["median"],
            "claimable": claimable,
            "bound": spec["bound"],
            "verdict": _verdict(parent, change, sign, spec["bound"], claimable),
        }
    return summary


def summarize_spread(runs: list[dict], specs: list[dict]) -> dict:
    """Per metric over runs at different seeds: quartiles against the bound."""
    summary = {}
    for spec in specs:
        # The exclusive method puts the quartiles further apart than the
        # inclusive one the pairs use; of the two it is the one that
        # reproduces the refusal of PR 21 (three seeds of ten at 124 MB,
        # seven at 141: 16.9 MB apart against 12.6), so the check errs
        # on the driver's side.
        row = _side_summary(
            [run["metrics"][spec["name"]] for run in runs], method="exclusive"
        )
        row["iqr"] = row["q3"] - row["q1"]
        row["bound"] = spec["bound"]
        row["steady"] = row["iqr"] <= spec["bound"] * abs(row["median"])
        summary[spec["name"]] = row
    return summary


def run_spread(checkout: Path, workload: str, seeds: range) -> list[dict]:
    """One round of ``workload`` per seed, on one side."""
    runs = []
    for seed in seeds:
        run = run_once(checkout, workload, seed, SPREAD_SECONDS)
        runs.append({"seed": seed, **run})
        print(
            f"{workload} spread seed {seed} workload_s "
            f"{run['metrics']['workload_s']:.3f} failed {run['failed']}",
            file=sys.stderr, flush=True,
        )
    return runs


def run_pairs(checkouts, workload, seed, seconds, pairs, trace=False) -> list[dict]:
    """``pairs`` parent/change pairs, alternating which side goes first."""
    runs = []
    for pair in range(pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for position, side in enumerate(order):
            run = run_once(checkouts[side], workload, seed, seconds, trace)
            runs.append({"pair": pair, "side": side, "ran": position, **run})
            shown = "traced" if trace else f"workload_s {run['metrics']['workload_s']:.3f}"
            print(
                f"{workload} seed {seed} pair {pair} {side:6s} {shown} "
                f"failed {run['failed']}",
                file=sys.stderr, flush=True,
            )
    return runs


def failures(workload: str, seed: int, runs: list[dict]) -> list[str]:
    """One line per run that failed an operation or its own checks."""
    return [
        f"{workload} seed {seed} pair {run['pair']} {run['side']}: "
        f"failed {run['failed']}, correct {run['correct']}"
        for run in runs if run["failed"] or not run["correct"]
    ]


def summarize_trace(runs: list[dict]) -> dict:
    """Per layer metric: each side's median over its traced runs."""
    return {
        metric: {
            side: statistics.median(
                run["metrics"][metric] for run in runs if run["side"] == side
            )
            for side in SIDES
        }
        for metric in runs[0]["metrics"]
    }


def parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="revision measured as the baseline")
    parser.add_argument("change", help="revision measured against it")
    parser.add_argument("--pairs", type=int, required=True,
                        help="parent/change pairs per workload and seed")
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload of BENCHMARK.json")
    parser.add_argument("--seed", type=int, action="append",
                        help="repeatable; default: 7")
    parser.add_argument("--trace", type=int, default=0, metavar="N",
                        help="also N traced pairs per workload and seed (default: 0)")
    parser.add_argument("--spread", type=int, default=0, metavar="N",
                        help="also one round of the change at each seed 1..N, "
                             "per workload (default: 0)")
    parser.add_argument("--seconds", type=float,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--out", help="write the document here (default: stdout only)")
    parser.add_argument("--workdir",
                        help="where the two checkouts go (default: a temporary directory)")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 (quartiles need two runs a side)")
    if args.spread == 1:
        parser.error("--spread must be 0 or at least 2 (quartiles need two runs)")
    return args


def main(argv: list[str]) -> int:
    args = parse(argv)
    contract = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [w["name"] for w in contract["workloads"]]
    seeds = args.seed or [7]
    seconds = args.seconds or contract["run_seconds"]

    with tempfile.TemporaryDirectory(prefix="ab-wall-", dir=args.workdir) as scratch:
        checkouts = {side: Path(scratch) / side for side in SIDES}
        doc = {
            "schema": SCHEMA,
            "seconds": seconds,
            "pairs": args.pairs,
            **{
                side: {"rev": rev, "commit": export(rev, checkouts[side])}
                for side, rev in (("parent", args.parent), ("change", args.change))
            },
            "workloads": {},
        }
        problems: list[str] = []
        flags: list[str] = []
        for workload in workloads:
            for seed in seeds:
                runs = run_pairs(checkouts, workload, seed, seconds, args.pairs)
                problems.extend(failures(workload, seed, runs))
                exact = {}
                for name in EXACT:
                    seen = {run["metrics"][name] for run in runs}
                    if len(seen) > 1:
                        problems.append(
                            f"{workload} seed {seed}: {name} differs between runs: {sorted(seen)}"
                        )
                    exact[name] = sorted(seen)[0]
                entry = {
                    "exact": exact,
                    "summary": summarize(runs, contract["end_to_end"]),
                    "runs": runs,
                }
                flags.extend(steal_flags(f"{workload} seed {seed}", runs))
                if args.trace:
                    traced = run_pairs(
                        checkouts, workload, seed, seconds, args.trace, trace=True
                    )
                    problems.extend(failures(workload, seed, traced))
                    entry["trace"] = {"summary": summarize_trace(traced), "runs": traced}
                    flags.extend(steal_flags(f"{workload} seed {seed} traced", traced))
                doc["workloads"].setdefault(workload, {})[f"seed-{seed}"] = entry
            if args.spread:
                spread = run_spread(
                    checkouts["change"], workload, range(1, args.spread + 1)
                )
                problems.extend(
                    f"{workload} spread seed {run['seed']}: "
                    f"failed {run['failed']}, correct {run['correct']}"
                    for run in spread if run["failed"] or not run["correct"]
                )
                flags.extend(steal_flags(f"{workload} spread", spread))
                doc.setdefault("spread", {})[workload] = {
                    "summary": summarize_spread(spread, contract["end_to_end"]),
                    "runs": spread,
                }
        doc["steal_flags"] = flags
        doc["problems"] = problems

    for workload, seeds_doc in doc["workloads"].items():
        for seed_name, entry in seeds_doc.items():
            for metric, row in entry["summary"].items():
                print(
                    f"{workload:18s} {seed_name:8s} {metric:24s} "
                    f"parent {row['parent']['median']:10.4f} "
                    f"[{row['parent']['q1']:.4f} .. {row['parent']['q3']:.4f}]  "
                    f"change {row['change']['median']:10.4f} "
                    f"[{row['change']['q1']:.4f} .. {row['change']['q3']:.4f}]  "
                    f"{row['median_change_rel']:+7.1%}  "
                    f"wins {row['change_wins']}/{row['pairs']}  {row['verdict']}"
                )
            traced = entry.get("trace", {}).get("summary", {})
            for layer in (m[: -len(".self_s")] for m in traced if m.endswith(".self_s")):
                print(f"{workload:18s} {seed_name:8s} traced {layer:16s}" + "".join(
                    f"  {suffix[1:]} {traced[layer + suffix]['parent']:.4g}"
                    f" -> {traced[layer + suffix]['change']:.4g}"
                    for suffix in LAYER_SUFFIXES
                ))
    for workload, spread in doc.get("spread", {}).items():
        for metric, row in spread["summary"].items():
            print(
                f"{workload:18s} spread   {metric:24s} "
                f"change {row['median']:10.4f} [{row['q1']:.4f} .. {row['q3']:.4f}]  "
                f"iqr {row['iqr'] / abs(row['median']):6.1%} of median, bound "
                f"{row['bound']:.0%}  {'steady' if row['steady'] else 'UNSTEADY'}"
            )
    for flag in flags:
        print(f"STEAL {flag}")
    for problem in problems:
        print(f"ERROR {problem}")
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

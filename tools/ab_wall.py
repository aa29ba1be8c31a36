#!/usr/bin/env python3
"""Paired A/B of the wall-clock benchmark between two revisions.

    python tools/ab_wall.py <parent-rev> <change-rev> --pairs 10 \\
        [--workload W ...] [--seed S ...] [--out benchmarks/trajectory/pr-N.json]

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
distance — ``claimable`` says whether both hold. The three exact
counters must be identical in every run of a workload x seed; if they
are not, or any run fails an operation, the tool exits 1.

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


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run; the result object of its last line."""
    command = [
        sys.executable, "benchmarks/wall/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    # PYTHONHASHSEED as run.py's own fan-out sets it; PYTHONPATH dropped
    # so each side can only import its own src/.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONHASHSEED"] = "0"
    done = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True)
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
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def _side_summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: both sides' quartiles, the win count and the verdict."""
    by_pair: dict[int, dict[str, dict]] = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run["metrics"]
    summary = {}
    for metric, direction in better.items():
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
        summary[metric] = {
            "better": direction,
            **sides,
            "pairs": len(gaps),
            "change_wins": wins,
            "parent_wins": sum(gap < 0 for gap in gaps),
            "median_change_rel": (change["median"] - parent["median"]) / parent["median"],
            "claimable": (
                wins >= 0.9 * len(gaps) and gain > parent["q3"] - parent["q1"]
            ),
        }
    return summary


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
    parser.add_argument("--seconds", type=float,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--out", help="write the document here (default: stdout only)")
    parser.add_argument("--workdir",
                        help="where the two checkouts go (default: a temporary directory)")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 (quartiles need two runs a side)")
    return args


def main(argv: list[str]) -> int:
    args = parse(argv)
    contract = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [w["name"] for w in contract["workloads"]]
    seeds = args.seed or [7]
    seconds = args.seconds or contract["run_seconds"]
    better = {m["name"]: m["better"] for m in contract["end_to_end"]}

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
        for workload in workloads:
            for seed in seeds:
                runs = []
                for pair in range(args.pairs):
                    order = SIDES if pair % 2 == 0 else SIDES[::-1]
                    for position, side in enumerate(order):
                        run = run_once(checkouts[side], workload, seed, seconds)
                        runs.append({"pair": pair, "side": side, "ran": position, **run})
                        print(
                            f"{workload} seed {seed} pair {pair} {side:6s} "
                            f"workload_s {run['metrics']['workload_s']:.3f} "
                            f"failed {run['failed']}",
                            file=sys.stderr, flush=True,
                        )
                        if run["failed"] or not run["correct"]:
                            problems.append(f"{workload} seed {seed} pair {pair} {side}: "
                                            f"failed {run['failed']}, correct {run['correct']}")
                exact = {}
                for name in EXACT:
                    seen = {run["metrics"][name] for run in runs}
                    if len(seen) > 1:
                        problems.append(
                            f"{workload} seed {seed}: {name} differs between runs: {sorted(seen)}"
                        )
                    exact[name] = sorted(seen)[0]
                doc["workloads"].setdefault(workload, {})[f"seed-{seed}"] = {
                    "exact": exact,
                    "summary": summarize(runs, better),
                    "runs": runs,
                }
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
                    f"wins {row['change_wins']}/{row['pairs']}"
                    f"{'  claimable' if row['claimable'] else ''}"
                )
    for problem in problems:
        print(f"ERROR {problem}")
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

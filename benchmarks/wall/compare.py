"""``run.py compare A.json B.json``: is B worse than A beyond the bounds?

One row per workload x end-to-end metric with both medians, both
min-max spreads and a verdict against the bound ``BENCHMARK.json``
fixes for the metric:

* ``unresolved`` - a side's spread is wider than the bound and the two
  sides' ranges overlap, so the runs cannot tell a change of the
  bound's size from noise;
* ``regressed`` - B's median is worse than A's by more than the bound,
  or B failed operations A did not;
* ``ok`` - otherwise.
"""

from __future__ import annotations

import json
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def _spread(metric: dict) -> float:
    return (metric["max"] - metric["min"]) / metric["value"] if metric["value"] else 0.0


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[str, float]:
    """``(verdict, worsening)``; worsening is B's relative loss against A."""
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (b["value"] - a["value"]) / a["value"] if a["value"] else 0.0
    wide = _spread(a) > bound or _spread(b) > bound
    overlap = a["min"] <= b["max"] and b["min"] <= a["max"]
    if wide and overlap:
        return "unresolved", worse
    return ("regressed" if worse > bound else "ok"), worse


def compare(doc_a: dict, doc_b: dict, contract: dict) -> tuple[list[str], int, int]:
    """Report lines plus the number of regressed and unresolved rows."""
    lines = [
        f"{'workload':18s} {'metric':24s} {'A median':>12s} {'A spread':>9s} "
        f"{'B median':>12s} {'B spread':>9s} {'worse by':>9s} {'bound':>6s}  verdict"
    ]
    regressed = unresolved = 0
    for name, runs_a in doc_a["workloads"].items():
        run_a = runs_a["untraced"]
        run_b = doc_b["workloads"].get(name, {}).get("untraced")
        if run_b is None:
            lines.append(f"{name:18s} missing from B")
            regressed += 1
            continue
        for spec in contract["end_to_end"]:
            a, b = run_a["end_to_end"][spec["name"]], run_b["end_to_end"][spec["name"]]
            word, worse = verdict(a, b, spec["better"], spec["bound"])
            regressed += word == "regressed"
            unresolved += word == "unresolved"
            lines.append(
                f"{name:18s} {spec['name']:24s} {a['value']:12.4f} {_spread(a):9.1%} "
                f"{b['value']:12.4f} {_spread(b):9.1%} {worse:+9.1%} "
                f"{spec['bound']:6.0%}  {word}"
            )
        if run_b["failed"] > run_a["failed"]:
            regressed += 1
            lines.append(
                f"{name:18s} op_fail_ratio rose: {run_a['failed']}/{run_a['attempted']}"
                f" -> {run_b['failed']}/{run_b['attempted']}  regressed"
            )
        moved = sorted(
            key for key, value in run_a["counts"].items()
            if run_b["counts"].get(key) != value
        )
        lines.append(
            f"{name:18s} exact counts: "
            + (f"{len(moved)} differ ({', '.join(moved)})" if moved else "identical")
        )
    return lines, regressed, unresolved


def main(path_a: str, path_b: str) -> int:
    contract = json.loads(BENCHMARK_JSON.read_text())
    doc_a = json.loads(Path(path_a).read_text())
    doc_b = json.loads(Path(path_b).read_text())
    lines, regressed, unresolved = compare(doc_a, doc_b, contract)
    print("\n".join(lines))
    print(f"{regressed} regressed, {unresolved} unresolved")
    return 1 if regressed else 0

"""``tools/ab_wall.py``: the verdict each summary row carries."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import ab_wall  # noqa: E402

SPEC = [{"name": "workload_s", "better": "lower", "bound": 0.25}]


def _runs(parent: list[float], change: list[float], name: str = "workload_s") -> list[dict]:
    return [
        {"pair": pair, "side": side, "metrics": {name: values[pair]}}
        for pair in range(len(parent))
        for side, values in (("parent", parent), ("change", change))
    ]


STEADY = [4.0, 4.1, 3.9, 4.0, 4.05, 3.95, 4.0, 4.1, 3.9, 4.0]


@pytest.mark.parametrize(
    "parent, change, verdict",
    [
        (STEADY, [v * 0.7 for v in STEADY], "improved"),
        (STEADY, [v * 1.02 for v in STEADY], "within_bound"),
        (STEADY, [v * 1.4 for v in STEADY], "regressed"),
        # Quartiles 2.4 apart on a median of 4: no 25 % bound is testable ...
        ([2, 6, 3, 5, 4, 4, 2, 6, 3, 5], [3, 5, 2, 6, 4, 4, 3, 5, 2, 6], "unresolved"),
        # ... unless every run of the change beats every run of the parent
        # (medians 2 apart, parent quartiles 4 apart: not claimable either).
        ([5, 9, 5, 9, 5, 9, 5, 9, 5, 5], [2, 4, 2, 4, 2, 4, 2, 4, 4.9, 4.9], "within_bound"),
    ],
)
def test_verdict_against_the_bound(parent, change, verdict):
    row = ab_wall.summarize(_runs(parent, change), SPEC)["workload_s"]
    assert row["verdict"] == verdict
    assert row["claimable"] == (verdict == "improved")
    assert row["bound"] == 0.25


def test_wide_but_separated_runs_are_not_unresolved():
    parent = [5, 9, 5, 9, 5, 9, 5, 9, 5, 9]
    change = [12, 20, 12, 20, 12, 20, 12, 20, 12, 20]
    higher = [{"name": "storage_ratio", "better": "higher", "bound": 0.25}]
    row = ab_wall.summarize(_runs(parent, change, "storage_ratio"), higher)
    assert row["storage_ratio"]["verdict"] == "improved"
    row = ab_wall.summarize(_runs(change, parent, "storage_ratio"), higher)
    assert row["storage_ratio"]["verdict"] == "unresolved"
    lower = [{"name": "storage_ratio", "better": "lower", "bound": 0.25}]
    row = ab_wall.summarize(_runs(parent, change, "storage_ratio"), lower)
    assert row["storage_ratio"]["verdict"] == "unresolved"


def test_trace_summary_is_the_median_per_side():
    runs = [
        {"side": side, "metrics": {"storage.self_s": value, "storage.calls": 32018}}
        for side, value in (
            ("parent", 2.2), ("change", 0.8), ("change", 0.9),
            ("parent", 2.0), ("parent", 2.4), ("change", 0.7),
        )
    ]
    assert ab_wall.summarize_trace(runs) == {
        "storage.self_s": {"parent": 2.2, "change": 0.8},
        "storage.calls": {"parent": 32018, "change": 32018},
    }


def test_spread_over_seeds_is_judged_against_the_bound():
    specs = [
        {"name": "workload_s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
    ]
    # PR 21 as the driver saw it: 141 MB at most seeds, 124 MB at seeds
    # 3, 6 and 9 — steady to 0.1 MB in ten pairs at any one seed.
    rss = [141.2, 141.1, 124.3, 141.2, 141.3, 124.2, 141.2, 141.1, 124.4, 141.2]
    runs = [
        {"seed": seed, "metrics": {"workload_s": 2.0 + seed / 100, "peak_rss_mb": mb}}
        for seed, mb in enumerate(rss, start=1)
    ]
    summary = ab_wall.summarize_spread(runs, specs)
    assert summary["workload_s"]["steady"]
    row = summary["peak_rss_mb"]
    assert not row["steady"]
    assert row["iqr"] == pytest.approx(row["q3"] - row["q1"])
    assert row["iqr"] > row["bound"] * row["median"]
    # The same metric once the high-water mark no longer depends on the seed.
    for run in runs:
        run["metrics"]["peak_rss_mb"] = 124.0 + run["seed"] / 10
    assert ab_wall.summarize_spread(runs, specs)["peak_rss_mb"]["steady"]

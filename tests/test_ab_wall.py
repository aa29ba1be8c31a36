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

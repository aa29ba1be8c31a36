"""Smoke test: ``run.py --quick`` produces what ``BENCHMARK.json`` names.

Run with ``python -m pytest benchmarks/wall/test_harness.py`` (about half
a minute: every workload at 1/8 size, untraced and traced).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
CONTRACT = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def quick(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("wall") / "quick.json"
    done = _run("--quick", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    return {"path": out, "doc": json.loads(out.read_text())}


def test_command_is_the_contracts() -> None:
    assert CONTRACT["command"] == ["python3", "benchmarks/wall/run.py"]
    assert CONTRACT["paths"] == ["benchmarks/wall"]


def test_workloads_match_the_contract(quick) -> None:
    assert list(quick["doc"]["workloads"]) == [w["name"] for w in CONTRACT["workloads"]]


def test_every_metric_is_reported_under_its_name_and_unit(quick) -> None:
    for name, runs in quick["doc"]["workloads"].items():
        for section, run in (("end_to_end", runs["untraced"]), ("per_layer", runs["traced"])):
            assert run["correct"], (name, run["errors"])
            want = {m["name"]: m["unit"] for m in CONTRACT[section]}
            got = {metric: m["unit"] for metric, m in run[section].items()}
            assert got == want, (name, section)
        for metric, m in runs["untraced"]["end_to_end"].items():
            assert m["value"] > 0, (name, metric)
        assert runs["traced"]["unwrapped"] == [], name


def test_layers_account_for_the_traced_time(quick) -> None:
    for name, runs in quick["doc"]["workloads"].items():
        layers = runs["traced"]["per_layer"]
        assert abs(layers["trace.unattributed_share"]["value"]) < 0.02, name
    reads = quick["doc"]["workloads"]["wiki-version-read"]["traced"]["per_layer"]
    assert reads["sketch.calls"]["value"] == 0
    shares = {k: m["value"] for k, m in reads.items() if k.endswith(".share")}
    assert max(shares, key=shares.get) == "db.database.share"


def test_result_object_is_the_last_line() -> None:
    done = _run("--workload", "oltp-mixed", "--seed", "5", "--seconds", "1",
                "--trace", "0", "--quick")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in CONTRACT["end_to_end"]}


def test_compare_agrees_with_itself_and_flags_a_regression(quick, tmp_path) -> None:
    same = _run("compare", str(quick["path"]), str(quick["path"]))
    assert same.returncode == 0 and "0 regressed, 0 unresolved" in same.stdout
    worse = json.loads(quick["path"].read_text())
    metric = worse["workloads"]["wiki-insert"]["untraced"]["end_to_end"]["workload_s"]
    for key in ("value", "min", "max"):
        metric[key] *= 1.5
    slower = tmp_path / "slower.json"
    slower.write_text(json.dumps(worse))
    flagged = _run("compare", str(quick["path"]), str(slower))
    assert flagged.returncode == 1 and "regressed" in flagged.stdout

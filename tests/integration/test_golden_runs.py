"""Golden runs: seeded end-to-end results pinned byte for byte.

Every case drives one seeded trace through ``DedupClient.run()`` and
compares the whole observable outcome — each ``RunResult`` field, the
final simulated clock and the ``repro.metrics/v1`` export (plus the
``repro.trace/v1`` export where tracing is on) — with the expectations
in ``golden_runs.json``. The expectations are generated once, at the
commit *before* a refactor, and must not change while the code under
them is folded or moved: a refactor that keeps behaviour keeps this
file green without touching the JSON.

Floats are pinned through ``float.hex`` and long documents through their
SHA-256, so the expectations stay small. When a case fails, the actual
documents are written in full to the chaos-artifact directory; running
the same test at the reference commit produces the other side of a
readable diff.

The batched cases use insert-only traces whose length is a multiple of
the batch size, so no client batch has exactly one record: a size-one
batch does not pre-sketch its record, and for a record the size or
admission gate then drops that moves the chunker/sketch work counters.

Regenerate (only when behaviour is *meant* to change)::

    PYTHONPATH=src python tests/integration/test_golden_runs.py
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import fields
from itertools import islice
from pathlib import Path

import pytest

from repro.api import ClusterSpec, open_cluster
from repro.bench.admission_exp import mixed_trace
from repro.core.config import DedupConfig
from repro.db.cluster import RunResult
from repro.obs.export import metrics_document, trace_document
from repro.workloads import make_workload

EXPECTED_PATH = Path(__file__).with_name("golden_runs.json")
ARTIFACT_DIR = Path(os.environ.get("CHAOS_ARTIFACT_DIR", "chaos-artifacts"))

SEED = 7
BATCH = 64


def _dedup(**overrides) -> DedupConfig:
    # Small windows so the size filter and the governor both act within
    # a run of a few hundred records.
    return DedupConfig(
        chunk_size=64, size_filter_interval=50, governor_window=128, **overrides
    )


def _mixed(name: str, target_bytes: int = 150_000):
    return list(make_workload(name, SEED, target_bytes).mixed_trace())


def _full_batches(name: str, target_bytes: int, batches: int):
    """The first ``batches`` whole client batches of an insert trace."""
    ops = list(
        islice(
            make_workload(name, SEED, target_bytes).insert_trace(),
            batches * BATCH,
        )
    )
    assert len(ops) == batches * BATCH, (name, len(ops))
    return ops


#: case name -> (ops builder, ClusterSpec keywords, run keywords)
CASES = {
    "wikipedia": (
        lambda: _mixed("wikipedia"),
        dict(dedup=_dedup()),
        dict(timeline_bucket_s=0.05),
    ),
    "enron": (lambda: _mixed("enron"), dict(dedup=_dedup()), {}),
    "stackexchange": (
        lambda: _mixed("stackexchange"), dict(dedup=_dedup()), {},
    ),
    "oltp": (lambda: _mixed("oltp"), dict(dedup=_dedup()), {}),
    # ~11 KB articles / ~6 KB mails: whole batches of 64 need more than
    # the 150 KB the per-record cases run.
    "wikipedia-batch64": (
        lambda: _full_batches("wikipedia", 1_000_000, 1),
        dict(dedup=_dedup(), insert_batch_size=BATCH),
        {},
    ),
    "enron-batch64": (
        lambda: _full_batches("enron", 1_000_000, 2),
        dict(dedup=_dedup(), insert_batch_size=BATCH, sample_every_ops=32),
        dict(timeline_bucket_s=1.0),
    ),
    "wikipedia-2shards-prefix": (
        lambda: _mixed("wikipedia"),
        dict(dedup=_dedup(), shards=2, placement="prefix"),
        {},
    ),
    # Defer, same-stream drain and (queue bound 8) backpressure.
    "hybrid-oltp-wikipedia": (
        lambda: mixed_trace("oltp,wikipedia", SEED, 150_000, idle_every=48),
        dict(
            dedup=_dedup(admission_mode="hybrid", admission_queue_records=8),
        ),
        {},
    ),
    "oltp-physical": (
        lambda: _mixed("oltp", 60_000),
        dict(dedup=_dedup(), physical_storage=True),
        {},
    ),
    "enron-traced": (
        lambda: _mixed("enron", 60_000),
        dict(dedup=_dedup(), trace=True, sample_every_ops=10),
        {},
    ),
}


def _sha256(document) -> str:
    text = json.dumps(document, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _pin_run(result: RunResult) -> dict:
    """Every RunResult field, exact: floats as hex, the latency list hashed."""
    pinned = {}
    for field in fields(RunResult):
        value = getattr(result, field.name)
        if field.name == "latencies_s":
            pinned["latencies"] = len(value)
            value = _sha256([latency.hex() for latency in value])
        elif field.name == "throughput_timeline":
            value = [[start.hex(), rate.hex()] for start, rate in value]
        elif isinstance(value, float):
            value = value.hex()
        pinned[field.name] = value
    return pinned


def _run_case(name: str) -> tuple[dict, dict]:
    """Run one case; returns ``(pinned summary, full documents)``."""
    build_ops, spec_kwargs, run_kwargs = CASES[name]
    client = open_cluster(ClusterSpec(**spec_kwargs))
    result = client.run(build_ops(), **run_kwargs)
    documents = {
        "metrics": metrics_document(client.registry, client.cluster.sampler),
    }
    pinned = {
        "run": _pin_run(result),
        "clock_now": client.clock.now.hex(),
        "metrics_sha256": _sha256(documents["metrics"]),
    }
    if spec_kwargs.get("trace"):
        documents["trace"] = trace_document(client.tracer)
        pinned["trace_sha256"] = _sha256(documents["trace"])
    return pinned, documents


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_run(name):
    expected = json.loads(EXPECTED_PATH.read_text())[name]
    pinned, documents = _run_case(name)
    if pinned != expected:
        ARTIFACT_DIR.mkdir(parents=True, exist_ok=True)
        (ARTIFACT_DIR / f"golden-{name}.json").write_text(
            json.dumps(
                {"pinned": pinned, **documents}, indent=2, sort_keys=True
            )
        )
    assert pinned == expected


if __name__ == "__main__":
    EXPECTED_PATH.write_text(
        json.dumps(
            {name: _run_case(name)[0] for name in sorted(CASES)},
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {EXPECTED_PATH}")

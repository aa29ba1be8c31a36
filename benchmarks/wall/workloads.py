"""The four benchmark workloads, as plans the driver can replay.

A plan is the deployment spec, the records loaded before the clock
starts, and the client calls the clock covers, each with the bytes a
read must return. The expected bytes come from replaying the calls
against a plain ``dict[id, bytes]`` while the plan is built, so the
timed loop only compares. Sizes are part of each workload's definition:
the storage ratio of the Wikipedia load falls from 11.2x at 1 MB to
6.6x at 24 MB, so a run at another size is another workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, NamedTuple

from repro.api import ClusterSpec
from repro.core.config import DedupConfig
from repro.workloads.base import Operation
from repro.workloads.enron import EnronWorkload
from repro.workloads.oltp import OltpWorkload
from repro.workloads.wikipedia import WikipediaWorkload

WIKI_INSERT_BYTES = 16_000_000
ENRON_BYTES = 16_000_000
ENRON_BATCH = 64
READ_PRELOAD_BYTES = 8_000_000
READ_CACHE_BYTES = 1_000_000
READ_CALLS = 30_000
OLTP_BYTES = 2_000_000


class Call(NamedTuple):
    """One timed client call."""

    method: str          # DedupClient method name
    args: tuple
    payload_bytes: int   # bytes written, or bytes the read must return
    expect: bytes | None  # what a read must return; None for writes


@dataclass(frozen=True)
class Plan:
    spec: ClusterSpec
    preload: list[Operation]
    calls: list[Call]
    model: dict[str, bytes]  # record id -> content once every call ran
    database: str            # the one logical database the records live in
    gen_s: float             # wall time spent in the repro.workloads generator


@dataclass(frozen=True)
class Workload:
    why: str
    build: Callable[[int, int], Plan]


def _spec(**overrides) -> ClusterSpec:
    dedup = DedupConfig(chunk_size=64, encoding="hop", **overrides.pop("dedup", {}))
    return ClusterSpec(dedup=dedup, num_secondaries=1, **overrides)


def _generate(trace) -> tuple[list[Operation], float]:
    started = perf_counter()
    ops = list(trace)
    return ops, perf_counter() - started


def _compile(ops: list[Operation], model: dict[str, bytes]) -> list[Call]:
    """Per-record calls for a trace, advancing ``model`` alongside."""
    calls = []
    for op in ops:
        if op.kind == "read":
            expect = model[op.record_id]
            calls.append(Call("read", (op.database, op.record_id), len(expect), expect))
        elif op.kind == "delete":
            del model[op.record_id]
            calls.append(Call("delete", (op.database, op.record_id), 0, None))
        else:
            model[op.record_id] = op.content
            calls.append(Call(
                op.kind, (op.database, op.record_id, op.content), len(op.content), None
            ))
    return calls


def _plan(spec, ops, gen_s, *, preload=(), calls=None, model=None) -> Plan:
    model = {} if model is None else model
    calls = _compile(ops, model) if calls is None else calls
    return Plan(spec, list(preload), calls, model, ops[0].database, gen_s)


def _wiki_insert(seed: int, scale: int) -> Plan:
    ops, gen_s = _generate(
        WikipediaWorkload(seed, WIKI_INSERT_BYTES // scale).insert_trace()
    )
    return _plan(_spec(), ops, gen_s)


def _enron_batch(seed: int, scale: int) -> Plan:
    ops, gen_s = _generate(EnronWorkload(seed, ENRON_BYTES // scale).insert_trace())
    model = {op.record_id: op.content for op in ops}
    calls = []
    for first in range(0, len(ops), ENRON_BATCH):
        batch = [
            (op.database, op.record_id, op.content)
            for op in ops[first:first + ENRON_BATCH]
        ]
        calls.append(Call(
            "insert_many", (batch,), sum(len(item[2]) for item in batch), None
        ))
    return _plan(_spec(), ops, gen_s, calls=calls, model=model)


def _wiki_version_read(seed: int, scale: int) -> Plan:
    preload, gen_s = _generate(
        WikipediaWorkload(seed, READ_PRELOAD_BYTES // scale).insert_trace()
    )
    model = {op.record_id: op.content for op in preload}
    rng = random.Random(seed)
    picks = [preload[rng.randrange(len(preload))] for _ in range(READ_CALLS // scale)]
    reads = [Operation("read", op.database, op.record_id) for op in picks]
    spec = _spec(dedup={"source_cache_bytes": READ_CACHE_BYTES // scale})
    return _plan(spec, reads, gen_s, preload=preload, model=model)


def _oltp_mixed(seed: int, scale: int) -> Plan:
    ops, gen_s = _generate(OltpWorkload(seed, OLTP_BYTES // scale).mixed_trace())
    return _plan(_spec(physical_storage=True), ops, gen_s)


WORKLOADS: dict[str, Workload] = {
    "wiki-insert": Workload(
        "per-record inserts of ~11 KB article revisions: sketch, chunking, index "
        "and forward delta do ~90 % of the work, the read path none",
        _wiki_insert,
    ),
    "enron-batch": Workload(
        "insert_many in batches of 64 quoted-reply mails: the same encode layers "
        "through the batch lane (sketch_many / boundaries_many)",
        _enron_batch,
    ),
    "wiki-version-read": Workload(
        "uniform reads over all versions, corpus 8x the source cache: chain walk "
        "and delta decode only; the encode pipeline is bypassed",
        _wiki_version_read,
    ),
    "oltp-mixed": Workload(
        "negative control: ~220 B orders with nothing to dedup on the slotted-page "
        "engine; fixed per-op dispatch, oplog and storage cost is all the work",
        _oltp_mixed,
    ),
}

"""Trace persistence round trips."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.workloads.base import Operation
from repro.workloads.trace_io import (
    dump_trace,
    load_trace,
    load_trace_file,
    save_trace,
)
from repro.workloads.wikipedia import WikipediaWorkload


class TestRoundTrip:
    def test_workload_trace_roundtrip(self):
        workload = WikipediaWorkload(seed=66, target_bytes=60_000)
        ops = list(workload.insert_trace())
        restored = list(load_trace(dump_trace(ops)))
        assert restored == ops

    def test_mixed_op_kinds(self):
        ops = [
            Operation("insert", "db", "r1", b"payload"),
            Operation("read", "db", "r1"),
            Operation("update", "db", "r1", b"new"),
            Operation("idle", idle_seconds=2.5),
            Operation("delete", "db", "r1"),
        ]
        restored = list(load_trace(dump_trace(ops)))
        assert restored == ops

    def test_file_roundtrip(self, tmp_path):
        ops = [Operation("insert", "db", "r", b"x" * 100)]
        path = tmp_path / "ops.trace"
        size = save_trace(ops, path)
        assert path.stat().st_size == size
        assert list(load_trace_file(path)) == ops

    def test_replaying_trace_reproduces_run(self, tmp_path):
        from repro.core.config import DedupConfig
        from repro.api import ClusterSpec, open_cluster

        workload = WikipediaWorkload(seed=67, target_bytes=80_000)
        path = tmp_path / "wiki.trace"
        save_trace(workload.insert_trace(), path)

        def run(trace):
            cluster = open_cluster(ClusterSpec(dedup=DedupConfig(chunk_size=64))).cluster
            return cluster.run(trace)

        live = run(WikipediaWorkload(seed=67, target_bytes=80_000).insert_trace())
        replayed = run(load_trace_file(path))
        assert replayed.stored_bytes == live.stored_bytes
        assert replayed.network_bytes == live.network_bytes


class TestValidation:
    def test_bad_magic(self):
        with pytest.raises(ValueError):
            list(load_trace(b"NOPE\x01"))

    def test_bad_version(self):
        with pytest.raises(ValueError):
            list(load_trace(b"DBTR\x07"))

    def test_unknown_kind_rejected_on_dump(self):
        with pytest.raises(ValueError):
            dump_trace([Operation("merge", "db", "r")])

    def test_truncated_payload(self):
        blob = dump_trace([Operation("insert", "db", "r", b"0123456789")])
        with pytest.raises(ValueError):
            list(load_trace(blob[:-4]))


@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("insert"), st.text(max_size=8), st.binary(max_size=40)),
            st.tuples(st.just("read"), st.text(max_size=8), st.none()),
            st.tuples(st.just("delete"), st.text(max_size=8), st.none()),
        ),
        max_size=25,
    )
)
def test_property_roundtrip(raw_ops):
    ops = [
        Operation(kind, "db", record_id, content)
        for kind, record_id, content in raw_ops
    ]
    assert list(load_trace(dump_trace(ops))) == ops

"""Oplog: sequencing, batching, wire sizes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.oplog import ENTRY_HEADER_BYTES, Oplog


class TestAppend:
    def test_sequencing(self):
        oplog = Oplog()
        first = oplog.append(0.0, "insert", "db", "r1", payload=b"abc")
        second = oplog.append(1.0, "insert", "db", "r2", payload=b"d")
        assert (first.seq, second.seq) == (0, 1)
        assert len(oplog) == 2

    def test_invalid_op(self):
        with pytest.raises(ValueError):
            Oplog().append(0.0, "upsert", "db", "r")

    def test_wire_size(self):
        oplog = Oplog()
        entry = oplog.append(0.0, "insert", "db", "r", payload=b"12345")
        assert entry.wire_size == ENTRY_HEADER_BYTES + 5
        assert oplog.total_bytes == entry.wire_size

    def test_encoded_entry_fields(self):
        oplog = Oplog()
        entry = oplog.append(
            0.0, "insert", "db", "r2", payload=b"delta", base_id="r1", encoded=True
        )
        assert entry.encoded
        assert entry.base_id == "r1"


class TestSyncCursor:
    def test_take_unsynced_advances_cursor(self):
        oplog = Oplog()
        oplog.append(0.0, "insert", "db", "a", payload=b"1")
        oplog.append(0.0, "insert", "db", "b", payload=b"2")
        batch = oplog.take_unsynced()
        assert [entry.record_id for entry in batch] == ["a", "b"]
        assert oplog.take_unsynced() == []
        assert oplog.unsynced_bytes == 0

    def test_unsynced_bytes_counts_tail_only(self):
        oplog = Oplog()
        oplog.append(0.0, "insert", "db", "a", payload=b"123")
        oplog.take_unsynced()
        oplog.append(0.0, "delete", "db", "a")
        assert oplog.unsynced_bytes == ENTRY_HEADER_BYTES

    def test_entries_returns_copy(self):
        oplog = Oplog()
        oplog.append(0.0, "insert", "db", "a")
        entries = oplog.entries()
        entries.clear()
        assert len(oplog) == 1


class TestRunningByteCounts:
    """``bytes_since`` / ``unsynced_bytes`` / ``total_bytes`` are running
    counters; they must equal the re-summed entries at every point."""

    @settings(max_examples=60, deadline=None)
    @given(
        steps=st.lists(
            st.one_of(
                st.tuples(st.just("append"), st.integers(0, 300)),
                st.tuples(st.just("take"), st.just(0)),
                st.tuples(st.just("truncate_before"), st.integers(0, 40)),
                st.tuples(st.just("truncate_from"), st.integers(0, 40)),
            ),
            max_size=40,
        )
    )
    def test_counters_equal_resummed_entries(self, steps):
        oplog = Oplog()
        for step, arg in steps:
            if step == "append":
                oplog.append(0.0, "insert", "db", "r", payload=b"x" * arg)
            elif step == "take":
                oplog.take_unsynced()
            elif step == "truncate_before":
                # Only consumed history may go (the built-in cursor's rule).
                oplog.truncate_before(min(arg, oplog.synced_seq))
            else:
                oplog.truncate_from(max(arg, oplog.truncated_before))

            entries = oplog.entries()
            assert oplog.total_bytes == sum(e.wire_size for e in entries)
            assert oplog.unsynced_bytes == sum(
                e.wire_size for e in entries if e.seq >= oplog.synced_seq
            )
            for cursor in range(oplog.truncated_before, oplog.next_seq + 2):
                assert oplog.bytes_since(cursor) == sum(
                    e.wire_size for e in oplog.entries_since(cursor)
                )
            for cursor in range(oplog.truncated_before):
                with pytest.raises(ValueError):
                    oplog.bytes_since(cursor)
            with pytest.raises(ValueError):
                oplog.bytes_since(-1)

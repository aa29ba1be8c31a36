"""Model-based property test: the Database vs a plain dict reference.

Hypothesis drives random CRUD sequences (with write-backs interleaved)
against both the real :class:`Database` — where records end up delta-
encoded, tomb-stoned, appended, spliced — and a trivial dict model. After
every step, client-visible reads must agree exactly.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.writeback import WriteBackEntry
from repro.db.database import Database
from repro.db.errors import RecordExists, RecordNotFound
from repro.db.record import RecordForm
from repro.delta.dbdelta import DeltaCompressor

_COMPRESSOR = DeltaCompressor(anchor_interval=16)

# Operations reference records by small integer handles so sequences reuse
# the same records often enough to build chains.
operation = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 7), st.integers(0, 5)),
    st.tuples(st.just("update"), st.integers(0, 7), st.integers(0, 5)),
    st.tuples(st.just("delete"), st.integers(0, 7), st.just(0)),
    st.tuples(st.just("writeback"), st.integers(0, 7), st.integers(0, 7)),
    st.tuples(st.just("read_all"), st.just(0), st.just(0)),
    st.tuples(st.just("idle"), st.just(0), st.just(0)),
)


def content_for(handle: int, variant: int) -> bytes:
    """Deterministic, chunkable content per (record, variant)."""
    rng = random.Random(handle * 31 + variant)
    words = [f"w{rng.randrange(200)}" for _ in range(300)]
    return (" ".join(words)).encode()


@settings(max_examples=40, deadline=None)
@given(st.lists(operation, min_size=1, max_size=40))
def test_database_matches_dict_model(ops):
    db = Database()
    model: dict[str, bytes] = {}

    for kind, a, b in ops:
        record_id = f"r{a}"
        if kind == "insert":
            content = content_for(a, b)
            try:
                db.insert("test", record_id, content)
                inserted = True
            except RecordExists:
                inserted = False
            if inserted:
                assert record_id not in model
                model[record_id] = content
        elif kind == "update":
            content = content_for(a, b) + b" updated"
            try:
                db.update(record_id, content)
                updated = True
            except RecordNotFound:
                updated = False
            assert updated == (record_id in model)
            if updated:
                model[record_id] = content
        elif kind == "delete":
            try:
                db.delete(record_id)
                deleted = True
            except RecordNotFound:
                deleted = False
            assert deleted == (record_id in model)
            model.pop(record_id, None)
        elif kind == "writeback":
            # Backward-encode record a against record b, like the engine
            # would after a dedup hit.
            base_id = f"r{b}"
            record = db.records.get(record_id)
            base = db.records.get(base_id)
            if (
                record is None or base is None or record_id == base_id
                or record.deleted or base.deleted or record.pending_updates
            ):
                continue
            # Avoid creating cycles: only encode against a record that
            # does not (transitively) decode from this one.
            cursor = base
            reachable = False
            while cursor is not None and cursor.base_id is not None:
                if cursor.base_id == record_id:
                    reachable = True
                    break
                cursor = db.records.get(cursor.base_id)
            if reachable or record.form is RecordForm.DELTA:
                continue
            target_content = model.get(record_id)
            base_content = model.get(base_id)
            if target_content is None or base_content is None:
                continue
            delta = _COMPRESSOR.compress(base_content, target_content)
            db.apply_writeback(
                WriteBackEntry(
                    record_id=record_id,
                    base_id=base_id,
                    payload=delta,
                    space_saving=1,
                )
            )
        elif kind == "idle":
            db.clock.advance(1.0)

        # Client-visible state must match the model exactly.
        for known_id, expected in model.items():
            record = db.records.get(known_id)
            assert record is not None and not record.deleted
            content, _ = db.read("test", known_id)
            assert content == expected
        for a2 in range(8):
            probe = f"r{a2}"
            if probe not in model:
                content, _ = db.read("test", probe)
                assert content is None

"""Crash recovery: rebuild node state by replaying the oplog.

The oplog is the write-ahead record of everything a node accepted; a node
that lost its data files (or a fresh replica seeded from a peer's log)
reconstructs its database by replaying entries in sequence. Forward-encoded
insert entries decode against the already-replayed base record — the same
path the live secondary uses — so a replayed node converges to the same
client-visible contents as the original.

Replay intentionally does *not* reproduce the storage-side encodings: a
recovering node stores everything raw and lets the background write-back
machinery re-compress over time, which is simpler and loses nothing but
transient disk space. ``tests/db/test_recovery.py`` pins both properties.

:func:`oplog_model` runs the same decode loop without a store: the
record id → content map the invariant sweep and quarantine repair take
as ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.db.database import Database
from repro.db.oplog import OplogEntry
from repro.delta.decode import apply_payload


@dataclass
class ReplayReport:
    """What a replay did — and what it could not do."""

    applied: int = 0
    skipped: int = 0
    decode_failures: int = 0


def replay_oplog(entries: list[OplogEntry], into: Database | None = None
                 ) -> tuple[Database, ReplayReport]:
    """Rebuild a database from oplog entries (oldest first).

    Returns the database and a report. Entries that cannot apply (e.g. a
    delete of a record an earlier truncation removed) are counted, not
    fatal — recovery should salvage everything salvageable.
    """
    db = into if into is not None else Database()
    report = ReplayReport()
    _replay(entries, report, db)
    return db, report


def oplog_model(entries: list[OplogEntry]) -> dict[str, bytes]:
    """Record id → content for every record live after ``entries``: what
    :func:`replay_oplog` into an empty store would hold, without one."""
    return _replay(entries, ReplayReport())


def _replay(
    entries: list[OplogEntry], report: ReplayReport, db: Database | None = None
) -> dict[str, bytes]:
    """The one oplog-decode loop; applies ``entries`` to ``db`` when
    given and returns the contents the log inserted or updated and did
    not delete. A store (possibly loaded from a snapshot) decides which
    entries apply and serves bases the log never wrote; without one the
    returned dict does."""
    contents: dict[str, bytes] = {}
    for entry in entries:
        record_id = entry.record_id
        content = entry.payload
        if entry.op == "insert" and entry.encoded:
            base = contents.get(entry.base_id)
            if base is None and db is not None:
                base = db.fetch_content(entry.base_id)
            try:
                content = None if base is None else apply_payload(base, entry.payload)
            except ValueError:
                content = None
            if content is None:
                report.decode_failures += 1
                continue
        if db is None:
            stored = live = record_id in contents
        else:
            record = db.records.get(record_id)
            stored = record is not None
            live = stored and not record.deleted
        if entry.op == "insert" and not stored:
            if db is not None:
                db.insert(entry.database, record_id, content)
            contents[record_id] = content
        elif entry.op == "update" and live:
            if db is not None:
                db.update(record_id, content)
            contents[record_id] = content
        elif entry.op == "delete" and live:
            if db is not None:
                db.delete(record_id)
            contents.pop(record_id, None)
        else:
            report.skipped += 1
            continue
        report.applied += 1
    return contents

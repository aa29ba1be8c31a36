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
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.db.database import Database
from repro.db.errors import RecordExists, RecordNotFound
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
    contents: dict[str, bytes] = {}

    for entry in entries:
        if entry.op == "insert":
            if entry.encoded:
                base = contents.get(entry.base_id)
                if base is None:
                    base = db.fetch_content(entry.base_id)
                if base is None:
                    report.decode_failures += 1
                    continue
                try:
                    content = apply_payload(base, entry.payload)
                except ValueError:
                    report.decode_failures += 1
                    continue
            else:
                content = entry.payload
            try:
                db.insert(entry.database, entry.record_id, content)
            except RecordExists:
                report.skipped += 1
                continue
            contents[entry.record_id] = content
            report.applied += 1
        elif entry.op == "update":
            try:
                db.update(entry.record_id, entry.payload)
            except RecordNotFound:
                report.skipped += 1
                continue
            contents[entry.record_id] = entry.payload
            report.applied += 1
        elif entry.op == "delete":
            try:
                db.delete(entry.record_id)
            except RecordNotFound:
                report.skipped += 1
                continue
            contents.pop(entry.record_id, None)
            report.applied += 1
        else:
            report.skipped += 1
    return db, report

"""Durable snapshots of a node's record store.

A downstream user of the library needs to persist state between runs; the
paper's MongoDB host has its own durability, so this module is the
reproduction's stand-in: a compact binary snapshot of every stored record
— including delta-encoded forms, base pointers, reference counts,
tombstones and pending updates — that restores to a byte-identical
:class:`~repro.db.database.Database`.

Format (little-endian, varint-framed)::

    magic "DBDD" | version u8 | record count varint | records...

    record := varint(len) record_id
            | varint(len) database
            | u8 flags        (bit0: DELTA, bit1: deleted, bit2: has base)
            | varint raw_size | varint ref_count
            | [varint(len) base_id]          if has base
            | varint(len) payload
            | varint n_pending , n x (varint(len) bytes)
"""

from __future__ import annotations

import io
from pathlib import Path

from repro.db.database import Database
from repro.db.record import RecordForm, StoredRecord
from repro.util.varint import decode_uvarint, encode_uvarint

MAGIC = b"DBDD"
VERSION = 1


def _write_bytes(out: io.BytesIO, data: bytes) -> None:
    out.write(encode_uvarint(len(data)))
    out.write(data)


def _read_bytes(buf: bytes, pos: int) -> tuple[bytes, int]:
    length, pos = decode_uvarint(buf, pos)
    if pos + length > len(buf):
        raise ValueError("truncated snapshot field")
    return buf[pos : pos + length], pos + length


def dump_database(db: Database) -> bytes:
    """Serialize every record of ``db`` into a snapshot blob."""
    out = io.BytesIO()
    out.write(MAGIC)
    out.write(bytes([VERSION]))
    out.write(encode_uvarint(len(db.records)))
    for record in db.records.values():
        _write_bytes(out, record.record_id.encode())
        _write_bytes(out, record.database.encode())
        flags = 0
        if record.form is RecordForm.DELTA:
            flags |= 0x01
        if record.deleted:
            flags |= 0x02
        if record.base_id is not None:
            flags |= 0x04
        out.write(bytes([flags]))
        out.write(encode_uvarint(record.raw_size))
        out.write(encode_uvarint(record.ref_count))
        if record.base_id is not None:
            _write_bytes(out, record.base_id.encode())
        _write_bytes(out, record.payload)
        out.write(encode_uvarint(len(record.pending_updates)))
        for update in record.pending_updates:
            _write_bytes(out, update)
    return out.getvalue()


def load_database(blob: bytes, into: Database | None = None) -> Database:
    """Restore a snapshot blob into a (new or provided) database.

    Raises:
        ValueError: on bad magic, unsupported version, or truncation.
    """
    if blob[:4] != MAGIC:
        raise ValueError("not a dbDedup snapshot (bad magic)")
    if blob[4] != VERSION:
        raise ValueError(f"unsupported snapshot version {blob[4]}")
    db = into if into is not None else Database()
    if db.records:
        raise ValueError("refusing to load a snapshot into a non-empty database")

    count, pos = decode_uvarint(blob, 5)
    for _ in range(count):
        record_id_raw, pos = _read_bytes(blob, pos)
        database_raw, pos = _read_bytes(blob, pos)
        flags = blob[pos]
        pos += 1
        raw_size, pos = decode_uvarint(blob, pos)
        ref_count, pos = decode_uvarint(blob, pos)
        base_id = None
        if flags & 0x04:
            base_raw, pos = _read_bytes(blob, pos)
            base_id = base_raw.decode()
        payload, pos = _read_bytes(blob, pos)
        n_pending, pos = decode_uvarint(blob, pos)
        pending = []
        for _ in range(n_pending):
            update, pos = _read_bytes(blob, pos)
            pending.append(update)
        record = StoredRecord(
            record_id=record_id_raw.decode(),
            database=database_raw.decode(),
            form=RecordForm.DELTA if flags & 0x01 else RecordForm.RAW,
            payload=payload,
            base_id=base_id,
            raw_size=raw_size,
            ref_count=ref_count,
            deleted=bool(flags & 0x02),
            pending_updates=pending,
        )
        db.reinstate(record)
    if pos != len(blob):
        raise ValueError("trailing bytes after snapshot records")
    return db


def save_snapshot(db: Database, path: str | Path) -> int:
    """Write a snapshot file; returns its size in bytes."""
    blob = dump_database(db)
    Path(path).write_bytes(blob)
    return len(blob)


def load_snapshot(path: str | Path, into: Database | None = None) -> Database:
    """Read a snapshot file back into a database."""
    return load_database(Path(path).read_bytes(), into=into)

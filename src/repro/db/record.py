"""Stored-record model with the §4.1 lifecycle state.

A record is stored either RAW (its full content) or DELTA (a backward
delta plus a base pointer). Reference counts track how many other records
use it as a decode base; deletes and updates of referenced records are
deferred exactly as §4.1 describes (mark-deleted, append-update) so that
encoding chains are never corrupted.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class RecordForm(enum.Enum):
    """How a record's payload is stored."""

    RAW = "raw"
    DELTA = "delta"


@dataclass
class StoredRecord:
    """One record's on-disk state.

    Attributes:
        record_id: unique id within the node.
        database: logical database (dedup is partitioned by this).
        form: RAW or DELTA.
        payload: raw content, or the serialized backward delta.
        base_id: decode base when ``form == DELTA``.
        raw_size: size of the original content — the numerator of every
            compression ratio.
        ref_count: number of records whose stored delta decodes from this
            one.
        deleted: tombstone flag; a deleted record keeps its payload while
            ``ref_count > 0`` so dependents still decode (§4.1 Delete).
        pending_updates: client updates appended while ``ref_count > 0``;
            the last one is the record's current content (§4.1 Update).
    """

    record_id: str
    database: str
    form: RecordForm
    payload: bytes
    base_id: str | None = None
    raw_size: int = 0
    ref_count: int = 0
    deleted: bool = False
    pending_updates: list[bytes] = field(default_factory=list)

    @property
    def stored_size(self) -> int:
        """Bytes this record occupies on disk (payload + appended updates)."""
        if not self.pending_updates:
            return len(self.payload)
        return len(self.payload) + sum(map(len, self.pending_updates))

    @property
    def is_raw(self) -> bool:
        """True when the record is stored unencoded."""
        return self.form is RecordForm.RAW

"""Operation log: the replication stream (§4.1).

Every write lands in the primary's oplog; entries accumulate until the
unsynchronized tail passes a byte threshold, then ship to the secondary as
one batch. With dbDedup the insert payloads are forward-encoded deltas, so
the oplog is simultaneously where the network savings happen.
"""

from __future__ import annotations

from dataclasses import dataclass
from zlib import crc32

#: Fixed per-entry header charge: seq + timestamp + op + ids.
ENTRY_HEADER_BYTES = 32


@dataclass(frozen=True)
class OplogEntry:
    """One replicated operation.

    Attributes:
        seq: position in the log (assigned by the oplog).
        timestamp: simulated time of the write.
        op: ``'insert'``, ``'update'``, or ``'delete'``.
        database / record_id: target record.
        payload: raw content, new update content, or a forward delta.
        base_id: forward-delta base (None for unencoded payloads).
        encoded: True when ``payload`` is a forward delta.
    """

    seq: int
    timestamp: float
    op: str
    database: str
    record_id: str
    payload: bytes = b""
    base_id: str | None = None
    encoded: bool = False

    @property
    def wire_size(self) -> int:
        """Bytes this entry contributes to a replication batch."""
        return ENTRY_HEADER_BYTES + len(self.payload)

    @property
    def checksum(self) -> int:
        """CRC over the entry's operation content (not its position).

        Two logs agree at a sequence number exactly when the entries'
        checksums match — the divergence test failover's rollback path
        runs when an old primary rejoins. ``seq`` and ``timestamp`` are
        deliberately excluded: position is what is being compared, and a
        replica records the primary's timestamp verbatim anyway.
        """
        header = "|".join(
            (
                self.op,
                self.database,
                self.record_id,
                self.base_id or "",
                "1" if self.encoded else "0",
            )
        ).encode("utf-8")
        return crc32(self.payload, crc32(header))


class Oplog:
    """Append-only operation log with a synchronization cursor."""

    def __init__(self) -> None:
        self._entries: list[OplogEntry] = []
        self._synced_upto = 0  # list index, relative to the retained tail
        self._truncated_before = 0  # absolute seq of the oldest retained
        self._builtin_cursor_used = False
        #: Running wire bytes: entry ``i`` of ``_entries`` spans
        #: ``_wire_marks[i]`` to ``_wire_marks[i + 1]``, so the bytes of
        #: any tail are one subtraction. Sliced together with
        #: ``_entries``; only differences are read, never the marks.
        self._wire_marks = [0]
        #: Monotonic count of entries ever appended. Unlike ``next_seq``
        #: it never moves backwards: a failover rollback truncates the
        #: log's suffix (and re-appending assigns the same seqs again),
        #: but this counter keeps the historical total — the metrics
        #: identity ``rollback_entries_total <= oplog_appends_total``
        #: reconciles against it.
        self.appends = 0

    def __len__(self) -> int:
        return len(self._entries)

    def append(
        self,
        timestamp: float,
        op: str,
        database: str,
        record_id: str,
        payload: bytes = b"",
        base_id: str | None = None,
        encoded: bool = False,
    ) -> OplogEntry:
        """Append one operation; returns the sequenced entry."""
        if op not in ("insert", "update", "delete"):
            raise ValueError(f"unknown oplog op {op!r}")
        entry = OplogEntry(
            seq=self._truncated_before + len(self._entries),
            timestamp=timestamp,
            op=op,
            database=database,
            record_id=record_id,
            payload=payload,
            base_id=base_id,
            encoded=encoded,
        )
        self._entries.append(entry)
        self._wire_marks.append(self._wire_marks[-1] + entry.wire_size)
        self.appends += 1
        return entry

    @property
    def total_bytes(self) -> int:
        """Wire bytes of every retained entry."""
        return self._wire_marks[-1] - self._wire_marks[0]

    @property
    def unsynced_bytes(self) -> int:
        """Wire bytes of entries not yet shipped to the secondary."""
        return self._wire_marks[-1] - self._wire_marks[self._synced_upto]

    def take_unsynced(self) -> list[OplogEntry]:
        """Return the unshipped tail and advance the built-in cursor."""
        self._builtin_cursor_used = True
        batch = self._entries[self._synced_upto :]
        self._synced_upto = len(self._entries)
        return batch

    def _tail_start(self, cursor: int) -> int:
        """List index of the first retained entry with ``seq >= cursor``."""
        if cursor < 0:
            raise ValueError(f"cursor must be >= 0, got {cursor}")
        if cursor < self._truncated_before:
            raise ValueError(
                f"cursor {cursor} points into truncated history "
                f"(log starts at {self._truncated_before}); seed the "
                "replica from a snapshot"
            )
        return min(cursor - self._truncated_before, len(self._entries))

    def entries_since(self, cursor: int) -> list[OplogEntry]:
        """Entries with ``seq >= cursor`` — for per-replica cursors.

        Each replication link keeps its own cursor, so several secondaries
        can consume the same log independently.

        Raises:
            ValueError: for negative cursors or cursors pointing into a
                truncated region (the replica needs a snapshot instead).
        """
        return self._entries[self._tail_start(cursor) :]

    def bytes_since(self, cursor: int) -> int:
        """Wire bytes pending for a per-replica cursor; raises like
        :meth:`entries_since`. O(1): every replication link asks after
        every client operation."""
        return self._wire_marks[-1] - self._wire_marks[self._tail_start(cursor)]

    def entries(self) -> list[OplogEntry]:
        """All retained entries (oldest first); a copy safe to iterate."""
        return list(self._entries)

    def entry_at(self, seq: int) -> OplogEntry | None:
        """The retained entry with the given absolute seq (None if absent)."""
        index = seq - self._truncated_before
        if index < 0 or index >= len(self._entries):
            return None
        return self._entries[index]

    @property
    def truncated_before(self) -> int:
        """Sequence number of the oldest retained entry."""
        return self._truncated_before

    @property
    def synced_seq(self) -> int:
        """Absolute seq up to which the built-in cursor has shipped."""
        return self._truncated_before + self._synced_upto

    @property
    def next_seq(self) -> int:
        """Sequence number the next appended entry will get."""
        return self._truncated_before + len(self._entries)

    def truncate_before(self, seq: int) -> int:
        """Discard entries with ``seq`` below the given checkpoint.

        Returns the number of entries discarded. When the built-in
        single-consumer cursor is in use (``take_unsynced``), entries it
        has not shipped are protected; per-link cursors (multi-replica
        fan-out) are coordinated by the caller instead (see
        ``PrimaryNode.checkpoint``).

        Raises:
            ValueError: if ``seq`` would cut protected entries.
        """
        if seq <= self._truncated_before:
            return 0
        limit = (
            self._truncated_before + self._synced_upto
            if self._builtin_cursor_used
            else self.next_seq
        )
        if seq > limit:
            raise ValueError(
                f"cannot truncate to {seq}: entries from {limit} "
                "are not yet consumed"
            )
        drop = seq - self._truncated_before
        self._entries = self._entries[drop:]
        self._wire_marks = self._wire_marks[drop:]
        self._synced_upto -= drop
        self._truncated_before = seq
        return drop

    def truncate_from(self, seq: int) -> list[OplogEntry]:
        """Drop the suffix with ``seq`` at or above the given position.

        The failover rollback: when an old primary rejoins, entries it
        accepted but never replicated (everything past the divergence
        point with the new primary's log) are removed before the node
        rebuilds itself as a secondary. Returns the dropped entries,
        newest history the node is giving up, for rollback accounting.

        Raises:
            ValueError: when ``seq`` falls inside the truncated prefix —
                rolling back into checkpointed history is impossible
                from the log alone.
        """
        if seq < self._truncated_before:
            raise ValueError(
                f"cannot roll back to {seq}: history before "
                f"{self._truncated_before} was truncated at a checkpoint"
            )
        keep = seq - self._truncated_before
        if keep >= len(self._entries):
            return []
        dropped = self._entries[keep:]
        self._entries = self._entries[:keep]
        self._wire_marks = self._wire_marks[: keep + 1]
        self._synced_upto = min(self._synced_upto, keep)
        return dropped

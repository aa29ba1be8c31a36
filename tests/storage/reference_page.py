"""Reference slotted page: the per-slot implementation, frozen for tests.

A verbatim copy of ``repro.storage.page`` as of the commit before its
directory operations were rewritten to decode the slot directory in one
unpack (only this docstring differs). The differential tests in this
directory drive it beside the production page and demand byte-identical
page images, return values and exceptions; ``benchmarks/`` times the
production page against it. Never import it from ``src/``.

The original module docstring follows.

Slotted page: the classic variable-length-record page layout.

Layout of one ``page_size``-byte page::

    [ header 6 B | cell data grows → ...  ... ← slot directory grows ]

    header := num_slots u16 | free_start u16 | freed_bytes u16
    slot   := offset u16 | length u16       (4 B each, from the page end)

A slot with offset ``0xFFFF`` is a tombstone. Deletes and shrinking
updates leave holes that :meth:`compact` squeezes out; the page compacts
itself automatically when a hole-blocked insert would otherwise fail.
"""

from __future__ import annotations

import struct

_HEADER = struct.Struct("<HHH")
_SLOT = struct.Struct("<HH")
_TOMBSTONE = 0xFFFF


class PageFullError(Exception):
    """The page cannot hold the requested cell, even after compaction."""


class SlottedPage:
    """One fixed-size page of variable-length cells."""

    def __init__(self, page_size: int = 32 * 1024, image: bytes | None = None) -> None:
        if not 64 <= page_size <= 0xFFFF + 1:
            raise ValueError(
                f"page_size must be in [64, 65536], got {page_size}"
            )
        self.page_size = page_size
        if image is not None:
            if len(image) != page_size:
                raise ValueError(
                    f"image is {len(image)} bytes, expected {page_size}"
                )
            self._buf = bytearray(image)
        else:
            self._buf = bytearray(page_size)
            self._write_header(0, _HEADER.size, 0)

    # -- header access -------------------------------------------------------

    def _read_header(self) -> tuple[int, int, int]:
        return _HEADER.unpack_from(self._buf, 0)

    def _write_header(self, num_slots: int, free_start: int, freed: int) -> None:
        _HEADER.pack_into(self._buf, 0, num_slots, free_start, freed)

    def _slot_position(self, slot: int) -> int:
        return self.page_size - (slot + 1) * _SLOT.size

    def _read_slot(self, slot: int) -> tuple[int, int]:
        return _SLOT.unpack_from(self._buf, self._slot_position(slot))

    def _write_slot(self, slot: int, offset: int, length: int) -> None:
        _SLOT.pack_into(self._buf, self._slot_position(slot), offset, length)

    # -- public interface ------------------------------------------------------

    @property
    def num_slots(self) -> int:
        """Number of slot-directory entries (including tombstones)."""
        return self._read_header()[0]

    @property
    def live_cells(self) -> int:
        """Number of non-tombstoned slots."""
        return sum(
            1
            for slot in range(self.num_slots)
            if self._read_slot(slot)[0] != _TOMBSTONE
        )

    @property
    def free_bytes(self) -> int:
        """Bytes available for one new cell *after* compaction."""
        num_slots, free_start, freed = self._read_header()
        directory_start = self.page_size - num_slots * _SLOT.size
        return (directory_start - free_start) + freed

    @property
    def contiguous_free_bytes(self) -> int:
        """Bytes available without compaction."""
        num_slots, free_start, _ = self._read_header()
        directory_start = self.page_size - num_slots * _SLOT.size
        return directory_start - free_start

    def image(self) -> bytes:
        """The raw page bytes (for the block device / compression)."""
        return bytes(self._buf)

    def insert(self, data: bytes) -> int:
        """Store a cell; returns its slot id.

        Raises:
            PageFullError: if the cell cannot fit even after compaction.
        """
        needed = len(data) + _SLOT.size
        if needed > self.free_bytes:
            raise PageFullError(
                f"cell of {len(data)} B does not fit ({self.free_bytes} free)"
            )
        if len(data) + _SLOT.size > self.contiguous_free_bytes:
            self.compact()
        num_slots, free_start, freed = self._read_header()
        # Reuse a tombstoned slot if one exists.
        slot = next(
            (
                s
                for s in range(num_slots)
                if self._read_slot(s)[0] == _TOMBSTONE
            ),
            None,
        )
        if slot is None:
            slot = num_slots
            num_slots += 1
        self._buf[free_start : free_start + len(data)] = data
        self._write_slot(slot, free_start, len(data))
        self._write_header(num_slots, free_start + len(data), freed)
        return slot

    def get(self, slot: int) -> bytes:
        """Read a cell.

        Raises:
            KeyError: for out-of-range or tombstoned slots.
        """
        if not 0 <= slot < self.num_slots:
            raise KeyError(f"slot {slot} out of range")
        offset, length = self._read_slot(slot)
        if offset == _TOMBSTONE:
            raise KeyError(f"slot {slot} is deleted")
        return bytes(self._buf[offset : offset + length])

    def delete(self, slot: int) -> None:
        """Tombstone a cell; its bytes become reclaimable."""
        offset, length = self._read_slot(slot)
        if not 0 <= slot < self.num_slots or offset == _TOMBSTONE:
            raise KeyError(f"slot {slot} is not live")
        num_slots, free_start, freed = self._read_header()
        self._write_slot(slot, _TOMBSTONE, 0)
        self._write_header(num_slots, free_start, freed + length)

    def update(self, slot: int, data: bytes) -> bool:
        """Replace a cell in place.

        Returns False (leaving the cell untouched) when the new data does
        not fit in this page; the caller then relocates the record.
        """
        offset, length = self._read_slot(slot)
        if not 0 <= slot < self.num_slots or offset == _TOMBSTONE:
            raise KeyError(f"slot {slot} is not live")
        if len(data) <= length:
            self._buf[offset : offset + len(data)] = data
            num_slots, free_start, freed = self._read_header()
            self._write_slot(slot, offset, len(data))
            self._write_header(num_slots, free_start, freed + (length - len(data)))
            return True
        # Try delete + reinsert within the page.
        if len(data) + 0 <= self.free_bytes + length:
            self.delete(slot)
            if len(data) > self.contiguous_free_bytes:
                self.compact()
            num_slots, free_start, freed = self._read_header()
            self._buf[free_start : free_start + len(data)] = data
            self._write_slot(slot, free_start, len(data))
            self._write_header(num_slots, free_start + len(data), freed)
            return True
        return False

    def cells(self) -> dict[int, bytes]:
        """All live cells by slot id."""
        return {
            slot: self.get(slot)
            for slot in range(self.num_slots)
            if self._read_slot(slot)[0] != _TOMBSTONE
        }

    def compact(self) -> None:
        """Squeeze out holes left by deletes and shrinking updates."""
        live = [
            (slot, self.get(slot))
            for slot in range(self.num_slots)
            if self._read_slot(slot)[0] != _TOMBSTONE
        ]
        num_slots = self.num_slots
        cursor = _HEADER.size
        for slot, data in live:
            self._buf[cursor : cursor + len(data)] = data
            self._write_slot(slot, cursor, len(data))
            cursor += len(data)
        self._write_header(num_slots, cursor, 0)

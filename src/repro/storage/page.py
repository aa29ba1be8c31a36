"""Slotted page: the classic variable-length-record page layout.

Layout of one ``page_size``-byte page::

    [ header 6 B | cell data grows → ...  ... ← slot directory grows ]

    header := num_slots u16 | free_start u16 | freed_bytes u16
    slot   := offset u16 | length u16       (4 B each, from the page end)

A slot with offset ``0xFFFF`` is a tombstone. Deletes and shrinking
updates leave holes that :meth:`compact` squeezes out; the page compacts
itself automatically when a hole-blocked insert would otherwise fail.

Operations on one slot (:meth:`get`, :meth:`delete`, :meth:`update`)
read the header and that slot's entry. Operations on the whole
directory (:meth:`insert`'s tombstone search, :attr:`live_cells`,
:meth:`cells`, :meth:`compact`) decode it with a single unpack and work
on the resulting tuples — never one Python call per slot.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from itertools import accumulate

_HEADER = struct.Struct("<HHH")
_SLOT = struct.Struct("<HH")
_TOMBSTONE = 0xFFFF

#: What the layout spends outside cell data: once per page, once per slot.
HEADER_BYTES = _HEADER.size
SLOT_BYTES = _SLOT.size


@lru_cache(maxsize=None)
def _directory_struct(num_slots: int) -> struct.Struct:
    """Codec of a whole ``num_slots``-entry directory (≤ 16 Ki of them)."""
    return struct.Struct(f"<{2 * num_slots}H")


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
            _HEADER.pack_into(self._buf, 0, 0, HEADER_BYTES, 0)

    # -- directory access ------------------------------------------------------

    def _directory(self, num_slots: int) -> tuple[int, ...]:
        """The slot directory, decoded in one unpack.

        Slots are laid out from the page end, so the flat tuple reads
        ``(offset, length)`` of slot ``n - 1`` first and of slot 0 last:
        ``flat[-2::-2]`` are the offsets in slot order, ``flat[::-2]``
        the lengths.
        """
        return _directory_struct(num_slots).unpack_from(
            self._buf, self.page_size - num_slots * SLOT_BYTES
        )

    def _live_entry(self, slot: int) -> tuple[int, int, int]:
        """``(entry position, offset, length)`` of a live slot.

        Raises:
            KeyError: for out-of-range or tombstoned slots.
        """
        if not 0 <= slot < _HEADER.unpack_from(self._buf, 0)[0]:
            raise KeyError(f"slot {slot} out of range")
        position = self.page_size - (slot + 1) * SLOT_BYTES
        offset, length = _SLOT.unpack_from(self._buf, position)
        if offset == _TOMBSTONE:
            raise KeyError(f"slot {slot} is not live")
        return position, offset, length

    # -- public interface ------------------------------------------------------

    @property
    def num_slots(self) -> int:
        """Number of slot-directory entries (including tombstones)."""
        return _HEADER.unpack_from(self._buf, 0)[0]

    @property
    def live_cells(self) -> int:
        """Number of non-tombstoned slots."""
        num_slots = self.num_slots
        return num_slots - self._directory(num_slots)[::2].count(_TOMBSTONE)

    @property
    def free_bytes(self) -> int:
        """Bytes available for one new cell *after* compaction."""
        num_slots, free_start, freed = _HEADER.unpack_from(self._buf, 0)
        return self.page_size - num_slots * SLOT_BYTES - free_start + freed

    @property
    def contiguous_free_bytes(self) -> int:
        """Bytes available without compaction."""
        num_slots, free_start, _ = _HEADER.unpack_from(self._buf, 0)
        return self.page_size - num_slots * SLOT_BYTES - free_start

    def image(self) -> bytes:
        """The raw page bytes (for the block device / compression)."""
        return bytes(self._buf)

    def insert(self, data: bytes) -> int:
        """Store a cell; returns its slot id.

        Raises:
            PageFullError: if the cell cannot fit even after compaction.
        """
        buf = self._buf
        size = len(data)
        num_slots, free_start, freed = _HEADER.unpack_from(buf, 0)
        contiguous = self.page_size - num_slots * SLOT_BYTES - free_start
        if size + SLOT_BYTES > contiguous + freed:
            raise PageFullError(
                f"cell of {size} B does not fit ({contiguous + freed} free)"
            )
        if size + SLOT_BYTES > contiguous:
            free_start, freed = self.compact(), 0
        # Reuse the lowest tombstoned slot if one exists.
        offsets = self._directory(num_slots)[-2::-2]
        if _TOMBSTONE in offsets:
            slot = offsets.index(_TOMBSTONE)
        else:
            slot = num_slots
            num_slots += 1
        buf[free_start : free_start + size] = data
        _SLOT.pack_into(buf, self.page_size - (slot + 1) * SLOT_BYTES, free_start, size)
        _HEADER.pack_into(buf, 0, num_slots, free_start + size, freed)
        return slot

    def get(self, slot: int) -> bytes:
        """Read a cell.

        Raises:
            KeyError: for out-of-range or tombstoned slots.
        """
        _, offset, length = self._live_entry(slot)
        return bytes(self._buf[offset : offset + length])

    def delete(self, slot: int) -> None:
        """Tombstone a cell; its bytes become reclaimable.

        Raises:
            KeyError: for out-of-range or tombstoned slots.
        """
        position, _, length = self._live_entry(slot)
        num_slots, free_start, freed = _HEADER.unpack_from(self._buf, 0)
        _SLOT.pack_into(self._buf, position, _TOMBSTONE, 0)
        _HEADER.pack_into(self._buf, 0, num_slots, free_start, freed + length)

    def update(self, slot: int, data: bytes) -> bool:
        """Replace a cell in place.

        Returns False (leaving the cell untouched) when the new data does
        not fit in this page; the caller then relocates the record.

        Raises:
            KeyError: for out-of-range or tombstoned slots.
        """
        buf = self._buf
        size = len(data)
        position, offset, length = self._live_entry(slot)
        num_slots, free_start, freed = _HEADER.unpack_from(buf, 0)
        if size <= length:
            buf[offset : offset + size] = data
            _SLOT.pack_into(buf, position, offset, size)
            _HEADER.pack_into(buf, 0, num_slots, free_start, freed + length - size)
            return True
        contiguous = self.page_size - num_slots * SLOT_BYTES - free_start
        if size > contiguous + freed + length:
            return False
        # Delete + reinsert within the page, keeping the slot id.
        _SLOT.pack_into(buf, position, _TOMBSTONE, 0)
        freed += length
        if size > contiguous:
            free_start, freed = self.compact(), 0
        buf[free_start : free_start + size] = data
        _SLOT.pack_into(buf, position, free_start, size)
        _HEADER.pack_into(buf, 0, num_slots, free_start + size, freed)
        return True

    def cells(self) -> dict[int, bytes]:
        """All live cells by slot id."""
        buf = self._buf
        flat = self._directory(self.num_slots)
        return {
            slot: bytes(buf[offset : offset + length])
            for slot, (offset, length) in enumerate(zip(flat[-2::-2], flat[::-2]))
            if offset != _TOMBSTONE
        }

    def compact(self) -> int:
        """Squeeze out holes left by deletes and shrinking updates.

        Live cells are joined in slot order behind the header and the
        directory is written back with one pack; bytes past the new end
        of the cell data keep whatever they held. Only ``num_slots`` is
        read from the header. Returns the new ``free_start``.
        """
        buf = self._buf
        num_slots = self.num_slots
        flat = self._directory(num_slots)
        offsets = flat[-2::-2]
        lengths = flat[::-2]  # 0 for a tombstone: it moves nothing ...
        starts = list(accumulate(lengths, initial=HEADER_BYTES))
        cursor = starts.pop()
        buf[HEADER_BYTES : cursor] = b"".join(
            [buf[offset : offset + length] for offset, length in zip(offsets, lengths) if length]
        )
        slot = -1
        for _ in range(offsets.count(_TOMBSTONE)):  # ... and stays a tombstone
            slot = offsets.index(_TOMBSTONE, slot + 1)
            starts[slot] = _TOMBSTONE
        entries = list(flat)
        entries[-2::-2] = starts
        _directory_struct(num_slots).pack_into(
            buf, self.page_size - num_slots * SLOT_BYTES, *entries
        )
        _HEADER.pack_into(buf, 0, num_slots, cursor, 0)
        return cursor

"""Heap file: record ids → slotted-page cells, with overflow chains.

The classic heap-file organization: records live in slotted pages found
through the buffer pool; a free-space map routes inserts; updates relocate
when a record outgrows its page; records larger than a page spill into a
chain of dedicated overflow pages.

:class:`HeapFileStore` adapts the heap file to the accounting interface of
:class:`repro.db.pagestore.PageStore`, so a
:class:`~repro.db.database.Database` can run on the physical engine
(``Database(page_store=HeapFileStore(...))``) and the compression
experiments then measure real page images.
"""

from __future__ import annotations

from repro.compression.block import BlockCompressor, NullCompressor
from repro.sim.disk import SimDisk
from repro.storage.bufferpool import BufferPool
from repro.storage.device import SimBlockDevice
from repro.storage.page import HEADER_BYTES, SLOT_BYTES, SlottedPage

_PAGE_OVERHEAD = HEADER_BYTES + SLOT_BYTES  # what a one-cell page spends


class HeapFile:
    """Variable-length record store over slotted pages."""

    def __init__(
        self,
        page_size: int = 32 * 1024,
        buffer_frames: int = 64,
        disk: SimDisk | None = None,
    ) -> None:
        self.page_size = page_size
        self.device = SimBlockDevice(page_size=page_size, disk=disk)
        self.pool = BufferPool(self.device, capacity_frames=buffer_frames)
        # record id -> ("cell", page_id, slot) | ("overflow", [page_ids], length)
        self._locations: dict[str, tuple] = {}
        # page id -> free bytes, maintained for heap pages only.
        self._free_space: dict[int, int] = {}
        self._max_cell = page_size - _PAGE_OVERHEAD

    def __contains__(self, record_id: str) -> bool:
        return record_id in self._locations

    def __len__(self) -> int:
        return len(self._locations)

    @property
    def page_count(self) -> int:
        """Number of pages allocated so far."""
        return self.device.page_count

    # -- record operations --------------------------------------------------

    def put(self, record_id: str, data: bytes) -> None:
        """Insert or replace a record."""
        if record_id in self._locations:
            self._update(record_id, data)
        else:
            self._insert(record_id, data)

    def get(self, record_id: str) -> bytes:
        """Read a record's bytes.

        Raises:
            KeyError: if the record does not exist.
        """
        location = self._locations[record_id]
        if location[0] == "cell":
            _, page_id, slot = location
            return self.pool.get(page_id).get(slot)
        _, page_ids, length = location
        pieces = [self.pool.get(page_id).get(0) for page_id in page_ids]
        return b"".join(pieces)[:length]

    def delete(self, record_id: str) -> None:
        """Remove a record, reclaiming its cell or overflow pages.

        Raises:
            KeyError: if the record does not exist.
        """
        location = self._locations.pop(record_id)
        if location[0] == "cell":
            _, page_id, slot = location
            page = self.pool.get(page_id)
            page.delete(slot)
            self.pool.mark_dirty(page_id)
            self._free_space[page_id] = page.free_bytes
        else:
            _, page_ids, _ = location
            for page_id in page_ids:
                page = self.pool.get(page_id)
                page.delete(0)
                self.pool.mark_dirty(page_id)

    def record_ids(self) -> list[str]:
        """All live record ids."""
        return list(self._locations)

    def flush(self) -> int:
        """Write all dirty pages to the device."""
        return self.pool.flush_all()

    def compact(self, occupancy_threshold: float = 0.5) -> tuple[int, int]:
        """Migrate records off sparse pages and free the empty ones.

        Heap pages whose free space is at least ``occupancy_threshold``
        of the page are retired: their live cells relocate through the
        normal insert path (reads and writes go through the buffer
        pool, so migration I/O is charged like any other), then every
        allocated page with no live cells — retired heap pages, pages
        emptied by earlier deletes, and orphaned overflow pages — is
        returned to the device allocator.

        Returns ``(pages_freed, bytes_moved)``.
        """
        cell_records: dict[int, list[str]] = {}
        for record_id, location in self._locations.items():
            if location[0] == "cell":
                cell_records.setdefault(location[1], []).append(record_id)
        sparse = [
            page_id
            for page_id, free in self._free_space.items()
            if cell_records.get(page_id)
            and free >= occupancy_threshold * self.page_size
        ]
        moved_bytes = 0
        # Most-empty first: their records fit in the least-empty pages.
        for page_id in sorted(
            sparse, key=lambda pid: (-self._free_space[pid], pid)
        ):
            relocate = [
                (record_id, self.get(record_id))
                for record_id in sorted(cell_records.get(page_id, ()))
            ]
            for record_id, _ in relocate:
                self.delete(record_id)
            # Retire the page from placement before re-inserting so the
            # records cannot land straight back on it.
            self._free_space.pop(page_id, None)
            for record_id, data in relocate:
                self._insert(record_id, data)
                moved_bytes += len(data)

        freed = 0
        for page_id in list(self._free_space):
            try:
                page = self.pool.get(page_id)
            except KeyError:
                continue
            if page.live_cells == 0:
                del self._free_space[page_id]
                self.pool.drop(page_id)
                self.device.free(page_id)
                freed += 1
        referenced = set(self._free_space)
        for location in self._locations.values():
            if location[0] == "overflow":
                referenced.update(location[1])
        for page_id in self.device.written_page_ids():
            if page_id in referenced:
                continue
            try:
                page = self.pool.get(page_id)
            except KeyError:
                continue
            if page.live_cells == 0:
                self.pool.drop(page_id)
                self.device.free(page_id)
                freed += 1
        return freed, moved_bytes

    # -- internals ------------------------------------------------------------

    def _insert(self, record_id: str, data: bytes) -> None:
        if len(data) > self._max_cell:
            self._locations[record_id] = self._insert_overflow(data)
            return
        page_id = self._find_space(len(data))
        page = self.pool.get(page_id)
        slot = page.insert(data)
        self.pool.mark_dirty(page_id)
        self._free_space[page_id] = page.free_bytes
        self._locations[record_id] = ("cell", page_id, slot)

    def _update(self, record_id: str, data: bytes) -> None:
        location = self._locations[record_id]
        if location[0] == "cell" and len(data) <= self._max_cell:
            _, page_id, slot = location
            page = self.pool.get(page_id)
            if page.update(slot, data):
                self.pool.mark_dirty(page_id)
                self._free_space[page_id] = page.free_bytes
                return
        # Relocate: delete + fresh insert.
        self.delete(record_id)
        self._insert(record_id, data)

    def _insert_overflow(self, data: bytes) -> tuple:
        chunk = self._max_cell
        page_ids = []
        for start in range(0, len(data), chunk):
            page_id, page = self.pool.create()
            page.insert(data[start : start + chunk])
            page_ids.append(page_id)
        return ("overflow", page_ids, len(data))

    def _find_space(self, needed: int) -> int:
        needed_with_slot = needed + SLOT_BYTES
        for page_id, free in self._free_space.items():
            if free >= needed_with_slot:
                return page_id
        page_id, page = self.pool.create()
        self._free_space[page_id] = page.free_bytes
        return page_id


class HeapFileStore:
    """PageStore-compatible adapter over a :class:`HeapFile`.

    Lets :class:`repro.db.database.Database` run on real slotted pages;
    ``physical_bytes`` compresses actual page images rather than an
    idealized concatenation.
    """

    def __init__(
        self,
        page_size: int = 32 * 1024,
        compressor: BlockCompressor | None = None,
        buffer_frames: int = 64,
        disk: SimDisk | None = None,
    ) -> None:
        self.heap = HeapFile(
            page_size=page_size, buffer_frames=buffer_frames, disk=disk
        )
        self.compressor = compressor if compressor is not None else NullCompressor()
        self._sizes: dict[str, int] = {}
        #: Monotonic bytes ever written (places + rewrites).
        self.bytes_written_total = 0
        #: Monotonic bytes reclaimed (removals + shrinking rewrites);
        #: ``written - reclaimed == logical_bytes`` at all times.
        self.bytes_reclaimed_total = 0
        #: Pages returned to the allocator by :meth:`compact`.
        self.pages_freed_total = 0

    def __contains__(self, record_id: str) -> bool:
        return record_id in self.heap

    @property
    def pool(self) -> BufferPool:
        """The heap file's buffer pool (what ``bufferpool_*`` metrics read)."""
        return self.heap.pool

    @property
    def page_count(self) -> int:
        """Number of pages allocated so far."""
        return self.heap.page_count

    @property
    def page_size(self) -> int:
        """Bytes per heap page."""
        return self.heap.page_size

    def place(self, record_id: str, payload: bytes) -> int:
        """Store a new record's payload."""
        self.heap.put(record_id, payload)
        self.bytes_written_total += len(payload)
        self.bytes_reclaimed_total += self._sizes.get(record_id, 0)
        self._sizes[record_id] = len(payload)
        return 0

    def update(self, record_id: str, payload: bytes) -> int:
        """Replace a record's content."""
        self.heap.put(record_id, payload)
        self.bytes_written_total += len(payload)
        self.bytes_reclaimed_total += self._sizes.get(record_id, 0)
        self._sizes[record_id] = len(payload)
        return 0

    def remove(self, record_id: str) -> None:
        """Drop a record (idempotent)."""
        if record_id in self.heap:
            self.heap.delete(record_id)
        self.bytes_reclaimed_total += self._sizes.pop(record_id, 0)

    def compact(self) -> tuple[int, int]:
        """Migrate sparse pages and free empty ones; see
        :meth:`HeapFile.compact`. Returns ``(pages_freed, bytes_moved)``."""
        freed, moved = self.heap.compact()
        self.pages_freed_total += freed
        return freed, moved

    @property
    def logical_bytes(self) -> int:
        """Bytes stored before block compression."""
        return sum(self._sizes.values())

    def physical_bytes(self) -> int:
        """Compressed size of every live page image."""
        self.heap.flush()
        total = 0
        for page_id in self.heap.device.written_page_ids():
            try:
                image, _ = self.heap.device.read_page(page_id)
            except KeyError:
                continue
            page = SlottedPage(self.heap.page_size, image=image)
            if page.live_cells == 0:
                continue
            total += len(self.compressor.compress(image))
        return total

"""Heap file + the Database integration of the physical engine."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.block import ZlibCompressor
from repro.compression.snappy import SnappyCompressor
from repro.storage.heapfile import HeapFile, HeapFileStore


@pytest.fixture()
def heap() -> HeapFile:
    return HeapFile(page_size=1024, buffer_frames=4)


class TestHeapFile:
    def test_put_get(self, heap):
        heap.put("r1", b"record one")
        assert heap.get("r1") == b"record one"
        assert "r1" in heap
        assert len(heap) == 1

    def test_get_missing(self, heap):
        with pytest.raises(KeyError):
            heap.get("ghost")

    def test_put_replaces(self, heap):
        heap.put("r", b"old")
        heap.put("r", b"new value")
        assert heap.get("r") == b"new value"
        assert len(heap) == 1

    def test_delete(self, heap):
        heap.put("r", b"bye")
        heap.delete("r")
        assert "r" not in heap
        with pytest.raises(KeyError):
            heap.get("r")

    def test_many_records_span_pages(self, heap):
        for index in range(50):
            heap.put(f"r{index}", f"record number {index} ".encode() * 5)
        assert heap.page_count > 1
        for index in range(50):
            assert heap.get(f"r{index}") == f"record number {index} ".encode() * 5

    def test_space_reuse_after_delete(self, heap):
        for index in range(20):
            heap.put(f"r{index}", b"x" * 200)
        pages_before = heap.page_count
        for index in range(20):
            heap.delete(f"r{index}")
        for index in range(20):
            heap.put(f"n{index}", b"y" * 200)
        # Freed cells were reused; page count does not double.
        assert heap.page_count <= pages_before + 1

    def test_overflow_record(self, heap):
        big = bytes(range(256)) * 20  # 5120 B > 1024-byte pages
        heap.put("big", big)
        assert heap.get("big") == big

    def test_overflow_delete_and_replace(self, heap):
        heap.put("big", b"A" * 5000)
        heap.put("big", b"B" * 3000)
        assert heap.get("big") == b"B" * 3000
        heap.delete("big")
        assert "big" not in heap

    def test_growing_update_relocates(self, heap):
        heap.put("grow", b"s")
        heap.put("filler", b"f" * 900)
        heap.put("grow", b"L" * 800)  # no longer fits beside filler
        assert heap.get("grow") == b"L" * 800
        assert heap.get("filler") == b"f" * 900

    def test_survives_buffer_pressure(self, heap):
        # More pages than buffer frames: contents must round-trip through
        # the device.
        for index in range(60):
            heap.put(f"r{index}", f"payload {index} ".encode() * 10)
        heap.flush()
        for index in range(60):
            assert heap.get(f"r{index}") == f"payload {index} ".encode() * 10
        assert heap.pool.evictions > 0


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from("pd"), st.integers(0, 11),
                  st.integers(0, 1500)),
        max_size=50,
    )
)
def test_property_heapfile_matches_dict(ops):
    heap = HeapFile(page_size=512, buffer_frames=3)
    model: dict[str, bytes] = {}
    for kind, handle, size in ops:
        record_id = f"r{handle}"
        if kind == "p":
            data = bytes([32 + handle]) * size
            heap.put(record_id, data)
            model[record_id] = data
        elif record_id in model:
            heap.delete(record_id)
            del model[record_id]
        assert len(heap) == len(model)
        for known, expected in model.items():
            assert heap.get(known) == expected


class TestHeapFileStore:
    def test_pagestore_interface(self):
        store = HeapFileStore(page_size=1024)
        store.place("a", b"x" * 100)
        store.update("a", b"y" * 50)
        assert store.logical_bytes == 50
        store.remove("a")
        assert store.logical_bytes == 0
        store.remove("a")  # idempotent

    def test_physical_bytes_compresses_pages(self):
        store = HeapFileStore(page_size=1024, compressor=ZlibCompressor())
        for index in range(10):
            store.place(f"r{index}", b"compressible text " * 20)
        assert 0 < store.physical_bytes() < 10 * 1024

    def test_database_runs_on_physical_engine(self, revision_chain):
        from repro.db.database import Database
        from repro.sim.clock import SimClock
        from repro.sim.disk import SimDisk

        clock = SimClock()
        disk = SimDisk(clock)
        store = HeapFileStore(page_size=8192, disk=disk)
        db = Database(clock=clock, disk=disk, page_store=store)
        for index, revision in enumerate(revision_chain):
            db.insert("wiki", f"v{index}", revision)
        for index, revision in enumerate(revision_chain):
            content, _ = db.read("wiki", f"v{index}")
            assert content == revision
        db.delete("v0")
        assert db.read("wiki", "v0")[0] is None

    def test_cluster_runs_on_physical_engine(self):
        from repro.api import ClusterSpec
        from repro.core.config import DedupConfig
        from repro.db.node import PrimaryNode
        from repro.sim.clock import SimClock

        clock = SimClock()
        node = PrimaryNode(
            ClusterSpec(
                dedup=DedupConfig(chunk_size=64, size_filter_enabled=False)
            ),
            clock=clock,
        )
        # Swap in the physical engine under the same disk.
        node.db.pages = HeapFileStore(page_size=8192, disk=node.db.disk)
        from repro.workloads.wikipedia import WikipediaWorkload

        workload = WikipediaWorkload(seed=91, target_bytes=100_000)
        ops = list(workload.insert_trace())
        for op in ops:
            node.insert(op.database, op.record_id, op.content)
        clock.advance(60)
        node.on_idle()
        for op in ops:
            content, _ = node.read(op.database, op.record_id)
            assert content == op.content


class TestMatchesReferencePage:
    """The physical engine on the production page and on the frozen
    per-slot reference page must be indistinguishable from outside."""

    @pytest.mark.parametrize("compressor", [ZlibCompressor, SnappyCompressor])
    def test_oltp_mixed_trace_is_byte_identical(self, monkeypatch, compressor):
        from reference_page import SlottedPage as ReferencePage
        from repro.storage import bufferpool
        from repro.storage.page import SlottedPage
        from repro.workloads.oltp import OltpWorkload

        compactions = []

        class Counted(SlottedPage):
            def compact(self):
                compactions.append(self.live_cells)
                return super().compact()

        def run(page_cls) -> HeapFileStore:
            monkeypatch.setattr(bufferpool, "SlottedPage", page_cls)
            # A dozen pages, three frames: images also travel through the device.
            store = HeapFileStore(
                page_size=16 * 1024, compressor=compressor(), buffer_frames=3
            )
            rng = random.Random(22)
            for op in OltpWorkload(seed=22, target_bytes=200_000).mixed_trace():
                if op.kind == "insert":
                    store.place(op.record_id, op.content)
                elif op.kind == "update":
                    store.update(op.record_id, op.content)
                elif op.record_id in store:
                    assert store.heap.get(op.record_id)
                    if rng.random() < 0.1:  # the trace itself never deletes
                        store.remove(op.record_id)
            return store

        store, reference = run(Counted), run(ReferencePage)
        assert len(compactions) >= 100 and max(compactions) > 60
        assert store.physical_bytes() == reference.physical_bytes() > 0
        assert store.logical_bytes == reference.logical_bytes
        assert store.heap._locations == reference.heap._locations
        assert store.heap._free_space == reference.heap._free_space
        assert store.page_count == reference.page_count >= 10
        for page_id in reference.heap.device.written_page_ids():
            assert (
                store.heap.device.read_page(page_id)[0]
                == reference.heap.device.read_page(page_id)[0]
            ), page_id

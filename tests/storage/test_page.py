"""Slotted page layout: inserts, deletes, updates, compaction."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_page import PageFullError as ReferencePageFull
from reference_page import SlottedPage as ReferencePage
from repro.storage.page import PageFullError, SlottedPage


@pytest.fixture()
def page() -> SlottedPage:
    return SlottedPage(page_size=1024)


class TestBasics:
    def test_invalid_page_size(self):
        with pytest.raises(ValueError):
            SlottedPage(page_size=32)
        with pytest.raises(ValueError):
            SlottedPage(page_size=1 << 20)

    def test_insert_and_get(self, page):
        slot = page.insert(b"hello")
        assert page.get(slot) == b"hello"
        assert page.live_cells == 1

    def test_multiple_cells(self, page):
        slots = [page.insert(f"cell-{i}".encode()) for i in range(10)]
        for index, slot in enumerate(slots):
            assert page.get(slot) == f"cell-{index}".encode()

    def test_get_bad_slot(self, page):
        with pytest.raises(KeyError):
            page.get(0)
        page.insert(b"x")
        with pytest.raises(KeyError):
            page.get(5)

    def test_empty_cell(self, page):
        slot = page.insert(b"")
        assert page.get(slot) == b""


class TestCapacity:
    def test_page_full(self, page):
        with pytest.raises(PageFullError):
            page.insert(b"z" * 2000)

    def test_fills_to_capacity(self, page):
        inserted = 0
        try:
            while True:
                page.insert(b"y" * 50)
                inserted += 1
        except PageFullError:
            pass
        assert inserted >= (1024 - 6) // 54 - 1

    def test_free_bytes_decrease(self, page):
        before = page.free_bytes
        page.insert(b"x" * 100)
        assert page.free_bytes == before - 104


class TestDelete:
    def test_delete_reclaims_space(self, page):
        slot = page.insert(b"d" * 200)
        free_after_insert = page.free_bytes
        page.delete(slot)
        assert page.free_bytes == free_after_insert + 200
        with pytest.raises(KeyError):
            page.get(slot)

    def test_delete_twice_rejected(self, page):
        slot = page.insert(b"x")
        page.delete(slot)
        with pytest.raises(KeyError):
            page.delete(slot)

    def test_slot_reused_after_delete(self, page):
        slot = page.insert(b"first")
        page.delete(slot)
        assert page.insert(b"second") == slot

    def test_insert_after_fragmentation_compacts(self, page):
        slots = [page.insert(b"f" * 120) for _ in range(8)]
        for slot in slots[::2]:
            page.delete(slot)
        # Contiguous space is small but total free space suffices.
        big = b"G" * 300
        slot = page.insert(big)
        assert page.get(slot) == big
        # Survivors intact after compaction.
        for survivor in slots[1::2]:
            assert page.get(survivor) == b"f" * 120


class TestUpdate:
    def test_shrinking_update_in_place(self, page):
        slot = page.insert(b"long original content")
        assert page.update(slot, b"short")
        assert page.get(slot) == b"short"

    def test_growing_update_within_page(self, page):
        slot = page.insert(b"small")
        assert page.update(slot, b"much larger replacement " * 4)
        assert page.get(slot) == b"much larger replacement " * 4

    def test_update_too_large_returns_false(self, page):
        slot = page.insert(b"x")
        assert not page.update(slot, b"q" * 2000)
        assert page.get(slot) == b"x"  # untouched

    def test_update_dead_slot(self, page):
        slot = page.insert(b"x")
        page.delete(slot)
        with pytest.raises(KeyError):
            page.update(slot, b"y")


class TestSlotRange:
    """Out-of-range slots are a ``KeyError`` on every single-slot
    operation — ``delete`` and ``update`` used to decode the slot entry
    first and raised ``struct.error`` (or read cell bytes as an entry)."""

    @pytest.mark.parametrize(
        "operation",
        [
            lambda page: page.delete(5000),
            lambda page: page.delete(-1),
            lambda page: page.update(5000, b"x"),
            lambda page: page.update(-1, b"x"),
            lambda page: page.delete(1),  # first entry past the directory
            lambda page: page.get(5000),
        ],
    )
    def test_out_of_range_slot_is_a_key_error(self, operation):
        page = SlottedPage(page_size=4096)
        page.insert(b"only cell")
        before = page.image()
        with pytest.raises(KeyError):
            operation(page)
        assert page.image() == before


class TestSerialization:
    def test_image_roundtrip(self, page):
        slots = {page.insert(f"data-{i}".encode()): f"data-{i}".encode()
                 for i in range(5)}
        restored = SlottedPage(1024, image=page.image())
        for slot, expected in slots.items():
            assert restored.get(slot) == expected

    def test_image_size_mismatch(self):
        with pytest.raises(ValueError):
            SlottedPage(1024, image=b"short")


def _outcome(call, *args):
    """``(return value, exception name)`` of one page operation."""
    try:
        return call(*args), None
    except (KeyError, PageFullError, ReferencePageFull) as error:
        return None, type(error).__name__


def _assert_same_page(page: SlottedPage, reference: ReferencePage) -> None:
    assert page.image() == reference.image()
    assert page.free_bytes == reference.free_bytes
    assert page.contiguous_free_bytes == reference.contiguous_free_bytes
    assert page.live_cells == reference.live_cells
    assert page.num_slots == reference.num_slots
    assert page.cells() == reference.cells()


_SPACES = ("contiguous_free_bytes", "free_bytes")


def _drive(ops, page_size: int = 256) -> None:
    """Run ``(kind, handle, size)`` steps through the page, the frozen
    per-slot reference page and a dict model.

    After every step the two pages agree on return value, exception
    type, free space, live cells and every byte of the image. A size
    ``(space, off_by)`` is taken relative to that free-space figure and
    aims at the compaction and page-full triggers: the cell that fits
    exactly, one byte less, one byte more.
    """
    page = SlottedPage(page_size)
    reference = ReferencePage(page_size)
    model: dict[int, bytes] = {}  # handle -> data
    slots: dict[int, int] = {}  # handle -> slot, kept after delete

    for kind, handle, size in ops:
        if isinstance(size, tuple):
            space, off_by = size
            # What decides: an insert needs a slot entry on top of either
            # figure, an update gets its old cell back when it must fit.
            if kind == "i":
                extra = -4
            else:
                extra = len(model.get(handle, b"")) if space == "free_bytes" else 0
            size = max(0, getattr(page, space) + extra + off_by)
        data = bytes([65 + handle]) * size
        if kind == "i" and handle not in model:
            slot, error = outcome = _outcome(page.insert, data)
            assert outcome == _outcome(reference.insert, data)
            if error is None:
                # A reused slot now belongs to this handle alone.
                for other in [h for h, s in slots.items() if s == slot]:
                    del slots[other]
                slots[handle], model[handle] = slot, data
        elif kind == "u" and handle in slots:
            # Also on dead slots: both sides must raise KeyError.
            updated, error = outcome = _outcome(page.update, slots[handle], data)
            assert outcome == _outcome(reference.update, slots[handle], data)
            assert (error == "KeyError") == (handle not in model)
            if updated:
                model[handle] = data
        elif kind == "d" and handle in slots:
            outcome = _outcome(page.delete, slots[handle])
            assert outcome == _outcome(reference.delete, slots[handle])
            assert (outcome[1] == "KeyError") == (handle not in model)
            model.pop(handle, None)
        elif kind == "c":
            page.compact()
            reference.compact()
            assert page.contiguous_free_bytes == page.free_bytes
        elif kind == "r":
            page = SlottedPage(page_size, image=page.image())
            reference = ReferencePage(page_size, image=reference.image())
        _assert_same_page(page, reference)
        for known, expected in model.items():
            assert page.get(slots[known]) == expected
        assert page.live_cells == len(model)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from("iiuuudcr"),
            st.integers(0, 9),
            st.one_of(
                st.integers(0, 60),
                st.tuples(st.sampled_from(_SPACES), st.integers(-1, 1)),
            ),
        ),
        max_size=80,
    )
)
def test_property_page_matches_dict_model(ops):
    """Random insert/update/delete/compact/reload against a dict model
    and the reference page (see :func:`_drive`)."""
    _drive(ops)


def test_seeded_walk_matches_reference():
    """A long seeded walk on a small page: thousands of self-compactions,
    with and without tombstones, and every trigger hit on both sides."""
    rng = random.Random(22)

    def ops():
        for _ in range(20_000):
            relative = rng.random() < 0.3
            yield (
                rng.choice("iiiuuuuddcr"),
                rng.randrange(12),
                (rng.choice(_SPACES), rng.randint(-1, 1)) if relative
                else rng.randrange(50),
            )

    _drive(ops())

"""Gear hash: scalar/vectorized agreement and window semantics."""

import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hashing.gear import (
    GEAR,
    GEAR_NP,
    WINDOW,
    GearHasher,
    gear_hashes,
    gear_sweep,
    gear_table,
    gear_table_np,
)


def random_bytes(n: int, seed: int = 1) -> bytes:
    rng = random.Random(seed)
    return rng.randbytes(n)


class TestGearTable:
    def test_deterministic(self):
        assert gear_table() == gear_table()
        assert gear_table() == GEAR

    def test_shape_and_range(self):
        assert len(GEAR) == 256
        assert all(0 <= v < (1 << 64) for v in GEAR)
        # A degenerate table (repeated entries) would weaken the hash.
        assert len(set(GEAR)) == 256

    def test_seed_changes_table(self):
        assert gear_table(seed=123) != GEAR

    def test_numpy_mirror_matches(self):
        assert GEAR_NP.dtype == np.uint64
        assert GEAR_NP.tolist() == list(GEAR)


class TestGearHasher:
    def test_rejects_short_table(self):
        with pytest.raises(ValueError):
            GearHasher(table=(1, 2, 3))

    def test_reference_recurrence(self):
        hasher = GearHasher()
        value = 0
        for byte in b"hello gear":
            value = ((value << 1) + GEAR[byte]) & ((1 << 64) - 1)
            assert hasher.update(byte) == value

    def test_reset_equals_fresh(self):
        hasher = GearHasher()
        for byte in b"junk":
            hasher.update(byte)
        hasher.reset()
        fresh = GearHasher()
        for byte in b"abc":
            assert hasher.update(byte) == fresh.update(byte)

    def test_window_expiry(self):
        # Two streams differing only in bytes older than WINDOW converge.
        suffix = random_bytes(WINDOW, seed=2)
        a = GearHasher()
        b = GearHasher()
        for byte in b"A" * 10 + suffix:
            last_a = a.update(byte)
        for byte in b"completely different prefix!" + suffix:
            last_b = b.update(byte)
        assert last_a == last_b


class TestVectorizedGear:
    def test_empty(self):
        assert gear_hashes(b"").size == 0

    def test_matches_streamer(self):
        data = random_bytes(1000, seed=3)
        hasher = GearHasher()
        expected = [hasher.update(byte) for byte in data]
        assert gear_hashes(data).tolist() == expected

    def test_dtype(self):
        assert gear_hashes(b"xyz").dtype == np.uint64

    @given(st.binary(min_size=0, max_size=300))
    def test_property_matches_streamer(self, data):
        hasher = GearHasher()
        expected = [hasher.update(byte) for byte in data]
        assert gear_hashes(data).tolist() == expected

    def test_restartable_from_window_warmup(self):
        # Seeding zero and replaying only WINDOW bytes of context matches
        # the stream hash — the property the chunker's skip-ahead needs.
        data = random_bytes(500, seed=4)
        full = gear_hashes(data)
        position = 321
        hasher = GearHasher()
        for byte in data[position - WINDOW + 1 : position + 1]:
            value = hasher.update(byte)
        assert value == int(full[position])


class TestNarrowSweep:
    """The sweep in a dtype just wide enough for the bits a caller reads."""

    @pytest.mark.parametrize(
        "bits, dtype",
        [(1, np.uint8), (8, np.uint8), (9, np.uint16), (16, np.uint16),
         (17, np.uint32), (32, np.uint32), (33, np.uint64), (64, np.uint64)],
    )
    def test_narrowest_table_that_holds_the_bits(self, bits, dtype):
        table = gear_table_np(bits)
        assert table.dtype == dtype
        assert table.tolist() == [v % (1 << 8 * table.itemsize) for v in GEAR]

    def test_full_width_is_the_default_table(self):
        assert gear_table_np() is GEAR_NP
        assert gear_hashes(b"xyz").dtype == np.uint64

    @pytest.mark.parametrize("bits", [0, -1, 65])
    def test_rejects_widths_the_hash_does_not_have(self, bits):
        with pytest.raises(ValueError):
            gear_table_np(bits)

    @given(data=st.binary(min_size=0, max_size=400), bits=st.integers(1, 64))
    def test_property_narrow_sweep_is_the_low_bits(self, data, bits):
        narrow = gear_hashes(data, gear_table_np(bits))
        assert narrow.dtype == gear_table_np(bits).dtype
        mask = (1 << bits) - 1
        full = gear_hashes(data)
        assert [v & mask for v in narrow.tolist()] == [
            v & mask for v in full.tolist()
        ]
        # Every bit the dtype holds is right, not only the ones asked for.
        assert narrow.tolist() == [
            v % (1 << 8 * narrow.itemsize) for v in full.tolist()
        ]

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.uint64])
    def test_zero_terms_keep_records_apart(self, dtype):
        # One zero term short of the dtype's width between two records
        # in one array: the second record's hashes are those of its own
        # sweep (the padded batch path of the chunker relies on it).
        width = 8 * np.dtype(dtype).itemsize
        table = gear_table_np(width)
        first, second = random_bytes(300, seed=5), random_bytes(200, seed=6)
        shared = np.zeros(300 + (width - 1) + 200, dtype=dtype)
        shared[:300] = table.take(np.frombuffer(first, dtype=np.uint8))
        shared[-200:] = table.take(np.frombuffer(second, dtype=np.uint8))
        gear_sweep(shared)
        assert shared[:300].tolist() == gear_hashes(first, table).tolist()
        assert shared[-200:].tolist() == gear_hashes(second, table).tolist()

"""Rolling Adler-32: vectorized path vs scalar reference vs zlib, and the
anchor-only path vs the every-offset one."""

import random
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing.adler import adler32_block, anchor_adler32, rolling_adler32


class TestAdlerBlock:
    def test_matches_zlib(self):
        data = b"The quick brown fox"
        assert adler32_block(data) == zlib.adler32(data)

    def test_subrange(self):
        data = b"xxxHELLOyyy"
        assert adler32_block(data, 3, 5) == zlib.adler32(b"HELLO")

    def test_empty_block(self):
        assert adler32_block(b"", 0, 0) == zlib.adler32(b"")


class TestRollingAdler:
    def test_short_input_empty(self):
        assert rolling_adler32(b"abc", 16).size == 0

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            rolling_adler32(b"abcdef", 0)

    def test_every_position_matches_scalar(self):
        data = bytes((i * 7 + 3) % 256 for i in range(200))
        width = 16
        checksums = rolling_adler32(data, width)
        for position in range(len(checksums)):
            assert int(checksums[position]) == adler32_block(data, position, width)

    def test_matches_zlib_at_positions(self):
        data = b"abcdefghijklmnopqrstuvwxyz" * 10
        width = 16
        checksums = rolling_adler32(data, width)
        for position in (0, 7, 100, len(checksums) - 1):
            assert int(checksums[position]) == zlib.adler32(
                data[position : position + width]
            )

    @settings(max_examples=30)
    @given(st.binary(min_size=16, max_size=300), st.integers(4, 16))
    def test_property_matches_scalar(self, data, width):
        if len(data) < width:
            return
        checksums = rolling_adler32(data, width)
        step = max(1, len(checksums) // 6)
        for position in range(0, len(checksums), step):
            assert int(checksums[position]) == adler32_block(data, position, width)

    def test_identical_windows_equal(self):
        data = b"REPEATBLOCKxxxxxxxREPEATBLOCK"
        width = 11
        checksums = rolling_adler32(data, width)
        assert checksums[0] == checksums[18]


def assert_anchors_match_rolling(data: bytes, width: int, mask: int) -> None:
    """``anchor_adler32`` is ``rolling_adler32`` filtered by the mask."""
    positions, checksums = anchor_adler32(data, width, mask)
    everywhere = rolling_adler32(data, width)
    expected = np.flatnonzero((everywhere & np.uint32(mask)) == mask)
    assert positions.tolist() == expected.tolist(), (len(data), width, mask)
    assert checksums.dtype == np.uint32
    assert checksums.tolist() == everywhere[expected].tolist(), (len(data), width, mask)


class TestAnchorAdler:
    #: Interval masks (2^k - 1, up to one above the A half), and masks
    #: that reach into the B half without saturating the A half, which
    #: only the re-filter on the full checksum can apply.
    MASKS = (0, 1, 15, 63, 127, 0xFFFF, 0x1FFFF, 0x10000, 0x30001, 3 << 15)

    def test_short_input_empty(self):
        positions, checksums = anchor_adler32(b"abc", 16, 63)
        assert positions.size == 0 and checksums.size == 0

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            anchor_adler32(b"abcdef", 0, 63)

    def test_mask_zero_selects_every_offset(self):
        data = random.Random(1).randbytes(500)
        positions, checksums = anchor_adler32(data, 16, 0)
        assert positions.tolist() == list(range(len(data) - 15))
        assert checksums.tolist() == rolling_adler32(data, 16).tolist()

    @pytest.mark.parametrize("width", [1, 4, 16, 22, 23, 256, 257, 300])
    @pytest.mark.parametrize("mask", MASKS)
    def test_matches_rolling_at_the_same_positions(self, width, mask):
        rng = random.Random(width * 1000 + mask)
        for data in (
            rng.randbytes(2500),
            bytes(rng.choice(b"abcde \n") for _ in range(2500)),
            bytes(2500),
            b"\xff" * 2500,  # 1 + 255 * width reaches 65521 at width 257
            rng.randbytes(width),
        ):
            assert_anchors_match_rolling(data, width, mask)

    @settings(max_examples=60)
    @given(
        st.binary(min_size=0, max_size=600),
        st.sampled_from([1, 4, 16, 23, 257]),
        st.sampled_from(MASKS),
    )
    def test_property_matches_rolling(self, data, width, mask):
        assert_anchors_match_rolling(data, width, mask)

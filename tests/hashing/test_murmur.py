"""MurmurHash3 x86_32 against published reference vectors."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hashing.murmur import murmur3_32, murmur3_32_chunks

# Canonical vectors from Austin Appleby's reference implementation and the
# SMHasher verification suite.
REFERENCE_VECTORS = [
    (b"", 0x00000000, 0x00000000),
    (b"", 0x00000001, 0x514E28B7),
    (b"", 0xFFFFFFFF, 0x81F16F39),
    (b"\xff\xff\xff\xff", 0x00000000, 0x76293B50),
    (b"\x21\x43\x65\x87", 0x00000000, 0xF55B516B),
    (b"aaaa", 0x9747B28C, 0x5A97808A),
    (b"abc", 0x00000000, 0xB3DD93FA),
    (b"Hello, world!", 0x9747B28C, 0x24884CBA),
    (
        b"The quick brown fox jumps over the lazy dog",
        0x9747B28C,
        0x2FA826CD,
    ),
]


@pytest.mark.parametrize("data,seed,expected", REFERENCE_VECTORS)
def test_reference_vectors(data, seed, expected):
    assert murmur3_32(data, seed) == expected


@pytest.mark.parametrize("data,seed,expected", REFERENCE_VECTORS)
def test_reference_vectors_chunk_lane(data, seed, expected):
    # Alone, and as the middle chunk of a buffer at an odd alignment.
    assert murmur3_32_chunks(data, [len(data)], seed).tolist() == [expected]
    framed = b"\xa5" + data + b"\x5a\x5a"
    cuts = [1, 1 + len(data), len(framed)]
    assert murmur3_32_chunks(framed, cuts, seed)[1] == expected


def test_default_seed_is_zero():
    assert murmur3_32(b"abc") == murmur3_32(b"abc", 0)


def test_seed_changes_output():
    assert murmur3_32(b"payload", 1) != murmur3_32(b"payload", 2)


@pytest.mark.parametrize("tail", [1, 2, 3])
def test_tail_lengths(tail):
    # Tail handling differs per remainder class; every class must be stable
    # and within 32 bits.
    data = b"0123" * 3 + b"x" * tail
    value = murmur3_32(data)
    assert 0 <= value <= 0xFFFFFFFF
    assert murmur3_32(data) == value


@given(st.binary(max_size=256), st.integers(0, 0xFFFFFFFF))
def test_always_32_bit_and_deterministic(data, seed):
    value = murmur3_32(data, seed)
    assert 0 <= value <= 0xFFFFFFFF
    assert murmur3_32(data, seed) == value


@given(st.binary(min_size=1, max_size=64))
def test_single_bit_flip_changes_hash(data):
    flipped = bytes([data[0] ^ 0x01]) + data[1:]
    assert murmur3_32(data) != murmur3_32(flipped)

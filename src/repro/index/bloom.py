"""Compact Bloom filter for the cold feature-index tier.

A budgeted feature index (see :mod:`repro.index.cuckoo`) spills cold
features into per-band Bloom filters, following LSHBloom's constant-memory
approximate-membership-per-band construction. dbDedup tolerates the
resulting false positives by design — delta compression verifies every
byte — so the filter only needs to bound their *rate*, which the classic
sizing formula does: ``m = -n·ln(p) / ln(2)²`` bits for ``n`` expected
keys at false-positive probability ``p``, probed ``k = (m/n)·ln(2)``
times per key.

Keys are the 64-bit feature integers the index already traffics in;
probes use Kirsch–Mitzenmacher double hashing over two murmur digests,
so one membership test costs two hashes however many probes the sizing
picked. ``add_hashed``/``contains_hashed`` accept precomputed digest
pairs for the vectorized spill path.
"""

from __future__ import annotations

import math

from repro.hashing.murmur import murmur3_32

#: Murmur seeds of the double-hashing digest pair (h1, h2).
BLOOM_SEED_A = 0xB100F1
BLOOM_SEED_B = 0xB100F2

#: Floor on the bit-array size so degenerate capacities stay functional.
MIN_BITS = 64


def bloom_geometry(capacity: int, fpp: float) -> tuple[int, int]:
    """``(num_bits, num_hashes)`` for ``capacity`` keys at rate ``fpp``."""
    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")
    if not 0.0 < fpp < 1.0:
        raise ValueError(f"fpp must be in (0, 1), got {fpp}")
    num_bits = math.ceil(-capacity * math.log(fpp) / math.log(2) ** 2)
    num_bits = max(MIN_BITS, (num_bits + 7) // 8 * 8)
    num_hashes = max(1, round(num_bits / capacity * math.log(2)))
    return num_bits, num_hashes


def feature_digests(feature: int) -> tuple[int, int]:
    """The (h1, h2) double-hashing pair for one feature key.

    ``h2`` is forced odd so successive probes never collapse onto a
    single bit (an even stride shares factors with the power-friendly
    bit counts the sizing tends to pick).
    """
    raw = (feature & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
    h1 = murmur3_32(raw, seed=BLOOM_SEED_A)
    h2 = murmur3_32(raw, seed=BLOOM_SEED_B) | 1
    return h1, h2


class BloomFilter:
    """Fixed-size bit array with double-hashed probes.

    Args:
        capacity: expected number of distinct keys.
        fpp: target false-positive probability at ``capacity`` keys.
    """

    __slots__ = ("num_bits", "num_hashes", "_bits", "adds")

    def __init__(self, capacity: int, fpp: float) -> None:
        self.num_bits, self.num_hashes = bloom_geometry(capacity, fpp)
        self._bits = bytearray(self.num_bits // 8)
        #: ``add`` calls (duplicates included) — saturation telemetry.
        self.adds = 0

    @property
    def size_bytes(self) -> int:
        """Memory charged for the bit array."""
        return len(self._bits)

    def add_hashed(self, h1: int, h2: int) -> None:
        """Set the probe bits of a precomputed digest pair."""
        self.adds += 1
        bits = self._bits
        for probe in range(self.num_hashes):
            position = (h1 + probe * h2) % self.num_bits
            bits[position >> 3] |= 1 << (position & 7)

    def contains_hashed(self, h1: int, h2: int) -> bool:
        """Membership test for a precomputed digest pair."""
        bits = self._bits
        for probe in range(self.num_hashes):
            position = (h1 + probe * h2) % self.num_bits
            if not bits[position >> 3] & (1 << (position & 7)):
                return False
        return True

    def add(self, feature: int) -> None:
        """Record ``feature`` as a member."""
        self.add_hashed(*feature_digests(feature))

    def __contains__(self, feature: int) -> bool:
        return self.contains_hashed(*feature_digests(feature))

    def contains(self, feature: int) -> bool:
        """Membership test: False means definitely absent."""
        return self.contains_hashed(*feature_digests(feature))

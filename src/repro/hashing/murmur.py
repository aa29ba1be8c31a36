"""MurmurHash3 (x86, 32-bit) — the chunk-identity hash of dbDedup.

dbDedup indexes only a sampled subset of chunk hashes and verifies every
byte during delta compression, so it can afford a weak-but-fast hash
(§3.1.1): "it can use the MurmurHash algorithm instead of SHA-1 to reduce
the computation overhead in chunk hash calculation."

This is a faithful pure-Python port of Austin Appleby's reference
``MurmurHash3_x86_32``; test vectors in ``tests/hashing/test_murmur.py``
pin it against published digests. It is also the *frozen oracle* for the
two numpy lanes below, which must stay bit-identical to it:

* :func:`murmur3_32_chunks` hashes every chunk of a record (or of a
  whole batch laid end to end) in one pass — the similarity sketch's hot
  path, where calling the scalar function once per 64 B chunk used to be
  two thirds of ingest wall time;
* :func:`murmur3_32_u64_batch` is the bulk lane for the fixed
  8-byte-integer keys the feature index hashes by the million —
  byte-identical to calling :func:`murmur3_32` on
  ``value.to_bytes(8, "little")`` for every element.
"""

from __future__ import annotations

import numpy as np

_MASK32 = 0xFFFFFFFF
_C1 = 0xCC9E2D51
_C2 = 0x1B873593


def _rotl32(value: int, shift: int) -> int:
    return ((value << shift) | (value >> (32 - shift))) & _MASK32


def murmur3_32(data: bytes, seed: int = 0) -> int:
    """Return the 32-bit MurmurHash3 of ``data`` with the given ``seed``."""
    length = len(data)
    h = seed & _MASK32
    rounded = length - (length & 3)

    for start in range(0, rounded, 4):
        k = int.from_bytes(data[start : start + 4], "little")
        k = (k * _C1) & _MASK32
        k = _rotl32(k, 15)
        k = (k * _C2) & _MASK32
        h ^= k
        h = _rotl32(h, 13)
        h = (h * 5 + 0xE6546B64) & _MASK32

    k = 0
    tail = length & 3
    if tail >= 3:
        k ^= data[rounded + 2] << 16
    if tail >= 2:
        k ^= data[rounded + 1] << 8
    if tail >= 1:
        k ^= data[rounded]
        k = (k * _C1) & _MASK32
        k = _rotl32(k, 15)
        k = (k * _C2) & _MASK32
        h ^= k

    h ^= length
    h ^= h >> 16
    h = (h * 0x85EBCA6B) & _MASK32
    h ^= h >> 13
    h = (h * 0xC2B2AE35) & _MASK32
    h ^= h >> 16
    return h


#: Keeps the low ``length & 3`` bytes of a chunk's final little-endian
#: word — the murmur tail, for every remainder class at once.
_TAIL_MASK = np.array([0, 0xFF, 0xFFFF, 0xFFFFFF], dtype=np.uint32)


def _premix(k):
    """The murmur block pre-mix ``rotl(k * c1, 15) * c2`` on a fresh array."""
    k = k * np.uint32(_C1)
    low = k >> np.uint32(17)
    k <<= np.uint32(15)
    k |= low
    k *= np.uint32(_C2)
    return k


def murmur3_32_chunks(buf, cuts, seed: int = 0):
    """MurmurHash3 of every chunk of ``buf``, block-parallel across chunks.

    ``cuts`` are the chunks' end offsets in ascending order — chunk *i*
    is ``buf[cuts[i - 1]:cuts[i]]`` and the first starts at 0, which is
    exactly the list a chunker's ``boundaries`` returns; a batch is its
    records laid end to end with their cut lists shifted to match. The
    result is a ``uint32`` array whose element *i* equals
    ``murmur3_32(buf[cuts[i - 1]:cuts[i]], seed)``.

    Murmur's body is a serial chain *within* a chunk but independent
    *across* chunks, so the walk goes column by column: the
    little-endian word at every byte offset is built and pre-mixed once
    for the whole buffer (chunks start at arbitrary alignments, and no
    padded chunk matrix is ever materialized), chunks are ordered
    longest first so the ones still running are always a prefix, and
    column *j* folds block *j* of every chunk that has one into its
    running ``h`` — ``longest_chunk // 4`` iterations of a few array ops
    over a shrinking prefix. Tails and the finalizer then run once over
    all chunks.

    Raises:
        ValueError: if ``cuts`` is not ascending or runs past ``buf``.
    """
    raw = np.frombuffer(buf, dtype=np.uint8)
    ends = np.asarray(cuts, dtype=np.int64)
    if ends.size == 0:
        return np.empty(0, dtype=np.uint32)
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1]
    lengths = ends - starts
    if lengths.min() < 0 or ends[-1] > raw.size:
        raise ValueError("cuts must be ascending offsets within buf")

    # words[i] is the little-endian uint32 at byte offset i, for every i
    # in 0..len(buf): four strided copies of the zero-padded buffer, one
    # per alignment class. The padding makes the word *at* a chunk's end
    # offset readable, which is where an empty tail looks.
    quads = raw.size // 4 + 1
    padded = np.zeros(4 * quads + 4, dtype=np.uint8)
    padded[: raw.size] = raw
    words = np.empty(4 * quads, dtype=np.uint32)
    for shift in range(4):
        words[shift::4] = padded[shift : shift + 4 * quads].view("<u4")
    mixed = _premix(words)

    order = np.argsort(-lengths, kind="stable")
    lengths = lengths[order]
    offsets = starts[order]
    blocks = lengths >> 2
    h = np.full(ends.size, seed & _MASK32, dtype=np.uint32)
    # running[j]: how many chunks have more than j blocks.
    running = ends.size - np.cumsum(np.bincount(blocks))
    for width in running[:-1].tolist():
        head = h[:width]
        at = offsets[:width]
        head ^= mixed[at]
        at += 4
        low = head >> np.uint32(19)
        head <<= np.uint32(13)
        head |= low
        head *= np.uint32(5)
        head += np.uint32(0xE6546B64)

    # Every chunk's offset now points just past its last whole block. A
    # zero tail pre-mixes to zero, so remainder class 0 needs no branch.
    h ^= _premix(words[offsets] & _TAIL_MASK[lengths & 3])
    h ^= lengths.astype(np.uint32)
    h ^= h >> np.uint32(16)
    h *= np.uint32(0x85EBCA6B)
    h ^= h >> np.uint32(13)
    h *= np.uint32(0xC2B2AE35)
    h ^= h >> np.uint32(16)
    hashes = np.empty_like(h)
    hashes[order] = h
    return hashes


def murmur3_32_u64_batch(values, seed: int = 0):
    """MurmurHash3 of each integer's 8-byte little-endian form, vectorized.

    ``values`` is any sequence of unsigned 64-bit integers (or a numpy
    ``uint64`` array); the result is a ``uint32`` array where element *i*
    equals ``murmur3_32(values[i].to_bytes(8, "little"), seed)``. An
    8-byte key is exactly two murmur body blocks with an empty tail, so
    the whole digest unrolls into a fixed chain of wrapping ``uint32``
    array ops — the bulk lane the feature-index scale probes use to hash
    tens of millions of features in seconds instead of minutes.
    """
    import numpy as np

    v = np.ascontiguousarray(values, dtype=np.uint64)
    c1 = np.uint32(_C1)
    c2 = np.uint32(_C2)
    h = np.full(v.shape, seed & _MASK32, dtype=np.uint32)
    for block in (
        (v & np.uint64(_MASK32)).astype(np.uint32),
        (v >> np.uint64(32)).astype(np.uint32),
    ):
        k = block * c1
        k = (k << np.uint32(15)) | (k >> np.uint32(17))
        k = k * c2
        h ^= k
        h = (h << np.uint32(13)) | (h >> np.uint32(19))
        h = h * np.uint32(5) + np.uint32(0xE6546B64)
    h ^= np.uint32(8)  # length
    h ^= h >> np.uint32(16)
    h = h * np.uint32(0x85EBCA6B)
    h ^= h >> np.uint32(13)
    h = h * np.uint32(0xC2B2AE35)
    h ^= h >> np.uint32(16)
    return h

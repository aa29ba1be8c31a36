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
  two thirds of ingest wall time. It gathers and pre-mixes only the
  4-byte blocks it folds (never the whole buffer at every byte offset),
  walks them a column of chunks at a time, and leaves the last columns,
  too narrow to be worth an array op, to a scalar block loop;
* :func:`murmur3_32_u64_batch` is the bulk lane for the fixed
  8-byte-integer keys the feature index hashes by the million —
  byte-identical to calling :func:`murmur3_32` on
  ``value.to_bytes(8, "little")`` for every element.
"""

from __future__ import annotations

from struct import unpack_from

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


def _u32(value: int) -> np.ndarray:
    """A uint32 constant as a 0-d array.

    A ufunc takes a 0-d array operand as it is; a ``np.uint32`` scalar
    is converted on every call, which at ~100 elements an operand is
    40 % of the call (0.27 vs 0.45 us measured).
    """
    return np.array(value, dtype=np.uint32)


_U5, _U13, _U15, _U16, _U17, _U19 = map(_u32, (5, 13, 15, 16, 17, 19))
_UC1, _UC2, _UN = _u32(_C1), _u32(_C2), _u32(0xE6546B64)
_UF1, _UF2 = _u32(0x85EBCA6B), _u32(0xC2B2AE35)

#: Keeps the low ``length & 3`` bytes of a chunk's final little-endian
#: word — the murmur tail, for every remainder class at once.
_TAIL_MASK = np.array([0, 0xFF, 0xFFFF, 0xFFFFFF], dtype=np.uint32)

#: A column of the walk below narrower than this many chunks is hashed
#: by the scalar block loop instead: a column costs six ufunc dispatches
#: however few chunks ride along, the loop ~0.75 us per block. It is the
#: same crossover, and the same number, by which
#: :mod:`repro.sketch.features` sends a whole narrow record to the scalar
#: lane — see the measurements on its ``_VECTOR_MIN_WIDTH``.
_COLUMN_MIN_WIDTH = 6


def _premix(k):
    """The murmur block pre-mix ``rotl(k * c1, 15) * c2`` on a fresh array."""
    k = k * _UC1
    low = k >> _U17
    k <<= _U15
    k |= low
    k *= _UC2
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
    *across* chunks, so the walk goes column by column. Chunks are
    ordered longest first, so the ones still running are always a
    prefix. The blocks are gathered once — each chunk's leading bytes
    as one contiguous run, whatever its alignment, out of the
    zero-padded buffer — into a ``(columns, chunks)`` word matrix whose
    row *j* is block *j* of every chunk, and only those words are
    pre-mixed, not every byte offset. Column *j* then folds the
    contiguous prefix of row *j* into the running ``h`` of the chunks
    that have a block *j*: six in-place array ops over a shrinking
    prefix. The last columns, where fewer than
    :data:`_COLUMN_MIN_WIDTH` chunks (the longest few) are still
    running, never enter the matrix: their remaining blocks go through
    the scalar block loop. Tails and the finalizer then run once over
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

    order = np.argsort(-lengths, kind="stable")
    lengths = lengths[order]
    offsets = starts[order]
    blocks = lengths >> 2
    # running[j]: how many chunks have more than j blocks (non-increasing).
    running = (ends.size - np.cumsum(np.bincount(blocks)))[:-1].tolist()
    columns = len(running)
    while columns and running[columns - 1] < _COLUMN_MIN_WIDTH:
        columns -= 1

    # The padding makes the leading run of a chunk that ends sooner
    # readable (entries past its last block are never folded in), and
    # the word *at* a chunk's end offset, where an empty tail looks.
    padded = np.zeros(raw.size + 4 * columns + 4, dtype=np.uint8)
    padded[: raw.size] = raw

    h = np.full(ends.size, seed & _MASK32, dtype=np.uint32)
    if columns:
        # runs[i] is the 4 * columns bytes from offset i: an overlapping
        # view, so one fancy index copies every chunk's leading run.
        runs = np.ndarray(
            (raw.size + 1, 4 * columns), dtype=np.uint8, buffer=padded, strides=(1, 1)
        )
        mixed = _premix(np.ascontiguousarray(runs[offsets].view("<u4").T))
        scratch = np.empty_like(h)
        for j, width in enumerate(running[:columns]):
            head = h[:width]
            low = scratch[:width]
            head ^= mixed[j, :width]
            np.right_shift(head, _U19, out=low)
            head <<= _U13
            head |= low
            head *= _U5
            head += _UN
    if columns < len(running):
        narrow = running[columns]
        states = h[:narrow].tolist()
        for i, (at, count) in enumerate(
            zip(offsets[:narrow].tolist(), blocks[:narrow].tolist())
        ):
            state = states[i]
            for k in unpack_from(f"<{count - columns}I", padded, at + 4 * columns):
                k = (k * _C1) & _MASK32
                k = (((k << 15) | (k >> 17)) * _C2) & _MASK32
                state ^= k
                state = ((state << 13) | (state >> 19)) & _MASK32
                state = (state * 5 + 0xE6546B64) & _MASK32
            states[i] = state
        h[:narrow] = states

    # words[i] is the little-endian uint32 at byte offset i, unaligned.
    # A zero tail pre-mixes to zero, so remainder class 0 needs no branch.
    words = np.ndarray(raw.size + 1, dtype="<u4", buffer=padded, strides=(1,))
    tails = words[offsets + (blocks << 2)]
    tails &= _TAIL_MASK.take(lengths & 3)
    h ^= _premix(tails)
    h ^= lengths.astype(np.uint32)
    h ^= h >> _U16
    h *= _UF1
    h ^= h >> _U13
    h *= _UF2
    h ^= h >> _U16
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

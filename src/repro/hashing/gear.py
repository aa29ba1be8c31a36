"""Gear rolling hash — the table-driven CDC fingerprint (§3.1.1 fast lane).

The gear hash replaces the Rabin polynomial's per-byte multiply with one
table lookup and a shift-add:

    H(i) = (H(i-1) << 1 + GEAR[data[i]])  mod 2^64

Because each step shifts the accumulator left by one bit, the contribution
of a byte vanishes entirely after 64 steps — the gear hash over a 64-bit
accumulator *is* a sliding-window hash with an implicit 64-byte window,
with no explicit subtract-the-oldest-byte term. That property is what
makes it both the fastest known CDC fingerprint (FastCDC and the
vectorized-chunking literature build on it) and trivially restartable:
seeding ``H = 0`` at position ``p`` reproduces the stream hash exactly
from position ``p + WINDOW - 1`` onward.

Two implementations of the same function:

* :func:`gear_hashes` — numpy log-doubling scan (:func:`gear_sweep`),
  computes ``H(i)`` at every position of a buffer in ``log2(width)``
  shift-add passes: six for the full 64-bit hash, three when the caller
  reads only its low 8 bits (:func:`gear_table_np`).
* :class:`GearHasher` — byte-at-a-time reference implementation; the
  scalar chunking lane and the differential tests build on it.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

#: Effective window width of the 64-bit gear hash: a byte's contribution
#: is shifted out of the accumulator after this many steps.
WINDOW = 64

#: Seed of the published gear table. All cooperating nodes must agree on
#: the table, exactly as they must agree on the murmur seed.
GEAR_SEED = 0x2545F4914F6CDD1D


def _splitmix64(state: int) -> tuple[int, int]:
    """One step of splitmix64: returns ``(new_state, output)``."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def gear_table(seed: int = GEAR_SEED) -> tuple[int, ...]:
    """The deterministic 256-entry random table indexed by byte value.

    Generated by splitmix64 from ``seed`` so every process — and every
    node of a cluster — derives bit-identical tables with no stored blob.
    """
    state = seed
    entries = []
    for _ in range(256):
        state, value = _splitmix64(state)
        entries.append(value)
    return tuple(entries)


#: The default table as plain ints (scalar lane: no numpy boxing per byte).
GEAR = gear_table()

#: The default table as a numpy array (vectorized lane: one ``take``
#: maps a whole byte buffer to its gear terms).
GEAR_NP = np.array(GEAR, dtype=np.uint64)

#: The same table truncated to each unsigned width, narrowest first.
_GEAR_NP_BY_WIDTH = tuple(
    GEAR_NP.astype(dtype) for dtype in (np.uint8, np.uint16, np.uint32)
) + (GEAR_NP,)


def gear_table_np(bits: int = WINDOW) -> np.ndarray:
    """The default table in the narrowest dtype holding ``bits`` low bits.

    The low ``b`` bits of ``H(i)`` are a sum of terms shifted left by
    less than ``b``, so they depend only on the low ``b`` bits of the
    last ``b`` table entries: a caller that tests a ``b``-bit mask can
    run the whole recurrence mod ``2^width`` for any ``width >= b`` —
    ``gear_hashes(data, gear_table_np(b))`` equals ``gear_hashes(data)``
    on those bits, in an eighth of the memory at ``b <= 8``.
    """
    if not 0 < bits <= WINDOW:
        raise ValueError(f"bits must be in 1..{WINDOW}, got {bits}")
    for table in _GEAR_NP_BY_WIDTH:
        if bits <= 8 * table.itemsize:
            return table


class GearHasher:
    """Streaming gear hash; the byte-at-a-time reference implementation.

    Push bytes with :meth:`update`; :attr:`value` is the hash of (at most)
    the last :data:`WINDOW` bytes seen. Unlike a Rabin hasher there is
    no buffer of pending bytes: expiry is implicit in the shift.
    """

    def __init__(self, table: tuple[int, ...] = GEAR) -> None:
        if len(table) != 256:
            raise ValueError(f"gear table must have 256 entries, got {len(table)}")
        self.table = table
        self.value = 0

    def update(self, byte: int) -> int:
        """Roll one byte into the hash and return the new value."""
        self.value = ((self.value << 1) + self.table[byte]) & _MASK64
        return self.value

    def reset(self) -> None:
        """Forget all pushed bytes (equivalent to 64 bytes of any warm-up)."""
        self.value = 0


def gear_sweep(terms: np.ndarray) -> np.ndarray:
    """Turn an array of gear terms into gear hashes, in place.

    The recurrence ``H(i) = H(i-1) * 2 + G(i)`` is a linear scan, which
    numpy cannot express directly; but because the multiplier is 2, a
    term's weight after ``k`` steps is ``2^k``, identically zero mod
    ``2^width`` once ``k >= width`` (the bit width of ``terms``' unsigned
    dtype). A Hillis–Steele doubling pass therefore converges in
    ``log2(width)`` shift-add sweeps — six at uint64, three at uint8:
    after the sweep with shift ``s``, each entry holds its trailing
    window of ``2s`` terms. A zero term contributes nothing at any
    shift, so ``width - 1`` zeros between two records keep their hashes
    apart in one shared array.
    """
    width = 8 * terms.dtype.itemsize
    shift = 1
    while shift < width:
        np.add(
            terms[shift:],
            terms[:-shift] << terms.dtype.type(shift),
            out=terms[shift:],
        )
        shift *= 2
    return terms


def gear_hashes(data: bytes, table: np.ndarray = GEAR_NP) -> np.ndarray:
    """Gear hash at every position of ``data``, vectorized.

    Returns:
        array of length ``len(data)`` in ``table``'s dtype — uint64 by
        default — where entry ``i`` equals the value :class:`GearHasher`
        holds after pushing ``data[: i + 1]``, mod ``2^width``.
    """
    return gear_sweep(table.take(np.frombuffer(data, dtype=np.uint8)))

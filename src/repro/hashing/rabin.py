"""Rolling Rabin-style fingerprints for content-defined chunking (§3.1.1).

Not on any code path: the chunker has rolled the gear hash
(:mod:`repro.hashing.gear`) since the dual-lane rewrite, and this module
is no longer exported from :mod:`repro.hashing`. It stays only until its
test file can be retired with it.

A Rabin chunker declares a boundary wherever the low bits of the window hash
match a fixed pattern, so boundaries move with content instead of offsets —
an insertion early in a record only shifts the chunks it touches.

Two implementations of the same hash function:

* :func:`rolling_rabin` — numpy-vectorized, computes the window hash at
  *every* position of a buffer at once. This is the hot path: chunking
  touches every byte of every record.
* :class:`RabinHasher` — byte-at-a-time reference implementation, used by
  the tests to cross-check the vectorized path and by callers that stream.

Both compute the multiplicative rolling hash

    H(i) = sum_{j=0..w-1} data[i+j] * P^(w-1-j)  (mod 2^64)

with an odd multiplier ``P``. Oddness makes ``P`` invertible mod 2^64, which
lets the vectorized path express every window hash through one prefix sum:

    H(i) = P^(i+w-1) * (S[i+w] - S[i])  where  S[k] = sum_{j<k} data[j] * P^-j

numpy's uint64 arithmetic wraps modulo 2^64 natively, so no bigints appear.
"""

from __future__ import annotations

import numpy as np

#: Default multiplier. Any odd 64-bit constant with good bit mixing works;
#: this one is the golden-ratio multiplier used by many Rabin-Karp variants.
DEFAULT_PRIME = 0x9E3779B97F4A7C15

#: Default window width in bytes, matching common CDC deployments.
DEFAULT_WINDOW = 48

_MASK64 = (1 << 64) - 1


class RabinHasher:
    """Streaming rolling hash over a fixed-width byte window.

    Push bytes with :meth:`update`; :attr:`value` is the hash of the last
    ``window`` bytes seen (or of everything seen, while fewer than ``window``
    bytes have been pushed).
    """

    def __init__(self, window: int = DEFAULT_WINDOW, prime: int = DEFAULT_PRIME) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if prime % 2 == 0:
            raise ValueError("prime must be odd so it is invertible mod 2^64")
        self.window = window
        self.prime = prime
        # P^(w-1): weight of the byte about to leave the window.
        self._top_weight = pow(prime, window - 1, 1 << 64)
        self._buffer: list[int] = []
        self._pos = 0
        self.value = 0

    def update(self, byte: int) -> int:
        """Roll one byte into the window and return the new hash value."""
        if len(self._buffer) < self.window:
            self._buffer.append(byte)
            self.value = ((self.value * self.prime) + byte) & _MASK64
        else:
            oldest = self._buffer[self._pos]
            self._buffer[self._pos] = byte
            self._pos = (self._pos + 1) % self.window
            self.value = (
                (self.value - oldest * self._top_weight) * self.prime + byte
            ) & _MASK64
        return self.value

    def reset(self) -> None:
        """Forget all pushed bytes."""
        self._buffer.clear()
        self._pos = 0
        self.value = 0


def rolling_rabin(
    data: bytes, window: int = DEFAULT_WINDOW, prime: int = DEFAULT_PRIME
) -> np.ndarray:
    """Window hashes at every position of ``data``, vectorized.

    Returns:
        uint64 array of length ``len(data) - window + 1`` where entry ``i``
        is the hash of ``data[i:i+window]``. Empty array if ``data`` is
        shorter than ``window``.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if prime % 2 == 0:
        raise ValueError("prime must be odd so it is invertible mod 2^64")
    n = len(data)
    if n < window:
        return np.empty(0, dtype=np.uint64)

    buf = np.frombuffer(data, dtype=np.uint8).astype(np.uint64)
    inv = pow(prime, -1, 1 << 64)

    # inv_powers[j] = P^-j, powers[i] = P^i; both via wrapping cumprod.
    count = n - window + 1
    inv_powers = _power_ladder(inv, n)
    powers = _power_ladder(prime, count + window - 1)

    weighted = buf * inv_powers
    prefix = np.zeros(n + 1, dtype=np.uint64)
    np.cumsum(weighted, out=prefix[1:])

    spans = prefix[window : window + count] - prefix[:count]
    return spans * powers[window - 1 : window - 1 + count]


def _power_ladder(base: int, length: int) -> np.ndarray:
    """Return ``[base^0, base^1, ..., base^(length-1)]`` mod 2^64."""
    ladder = np.empty(length, dtype=np.uint64)
    if length == 0:
        return ladder
    ladder[0] = 1
    if length > 1:
        ladder[1:] = base & _MASK64
        np.multiply.accumulate(ladder, out=ladder)
    return ladder

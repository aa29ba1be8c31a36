"""Content-defined chunking with a normalized gear-hash fingerprint (§3.1.1).

A chunk boundary is declared after any byte where the low bits of the
rolling gear hash (:mod:`repro.hashing.gear`) are zero. Following
FastCDC-style *normalized chunking*, the boundary test uses a pair of
masks instead of one: positions before the target size must zero
``log2(avg_size) + 2`` low bits (cuts are rare), positions past it only
``log2(avg_size) - 2`` (cuts are quick). The pair pulls the chunk-size
distribution in toward the target from both sides, and the ``min``/
``max`` clamps still bound the tails outright — a forced cut landing
exactly on a hash match emits a single boundary.

Two lanes compute the same boundaries:

* **scalar** — byte-at-a-time with skip-ahead past min-chunk regions
  (:func:`repro.chunking.scalar.scalar_boundaries`). This is the
  differential-testing *oracle*: slow, obvious, frozen.
* **vectorized** — a numpy bulk sweep (:func:`~repro.hashing.gear.
  gear_sweep`) computes, at every position, the low bits of the hash
  that the strict mask reads, in the narrowest unsigned dtype holding
  them (uint8 at ``avg_size=64``: three shift-add passes over one byte
  per position, not six over eight); Python then visits one chunk at a
  time, finding its cut with ``bytes.find`` over the mask-test flags.
  :meth:`ContentDefinedChunker.boundaries_many` amortizes one padded
  sweep across the small records of a batch, and
  :meth:`~ContentDefinedChunker.boundaries` is its batch of one.

The engine always runs the vectorized lane; ``impl`` exists so tests and
microbenchmarks can reach the oracle. The differential fuzz suite holds
the lanes byte-identical on every input, so every equivalence property
proved elsewhere (batch ≡ sequential, sharded ≡ unsharded, inline ≡
hybrid) holds regardless of lane.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chunking.scalar import scalar_boundaries
from repro.hashing.gear import gear_hashes, gear_sweep, gear_table_np

#: Recognized ``impl`` values: the explicit lanes plus ``"auto"``, which
#: resolves to the vectorized lane (numpy is a hard dependency; the
#: argument exists so differential tests can force the oracle).
CHUNKER_IMPLS = ("scalar", "vectorized", "auto")

#: Normalization level: the strict mask carries ``log2(avg) + 2`` low
#: bits, the loose mask ``log2(avg) - 2`` (FastCDC's "NC 2" setting).
NORMALIZATION_BITS = 2

#: Records at or above this size skip the batched padded sweep and take
#: the per-record path inside :meth:`ContentDefinedChunker.
#: boundaries_many`: the sweep amortizes fixed numpy dispatch cost,
#: which stops mattering once per-record arrays are this large, while
#: the padded copy and the cache footprint of one huge array start to
#: cost. The cutoff only routes work — both paths are byte-identical.
_BATCH_RECORD_CUTOFF = 2048


def normalized_masks(avg_size: int) -> tuple[int, int]:
    """The (strict, loose) boundary masks for a target chunk size.

    ``avg_size`` must be a power of two; the strict mask zeroes
    ``log2 + 2`` low bits (applied up to the target size), the loose mask
    ``log2 - 2`` (applied past it, clamped to at least one bit).
    """
    bits = avg_size.bit_length() - 1
    strict = (1 << min(bits + NORMALIZATION_BITS, 63)) - 1
    loose = (1 << max(bits - NORMALIZATION_BITS, 1)) - 1
    return strict, loose


@dataclass(frozen=True)
class Chunk:
    """One chunk of a record: ``data == record[start:end]``."""

    start: int
    end: int
    data: bytes

    def __len__(self) -> int:
        return self.end - self.start


class ContentDefinedChunker:
    """Normalized gear-hash chunker with a target average chunk size.

    Args:
        avg_size: target chunk size in bytes; must be a power of two
            ``>= 8`` (the normalized masks take ``log2`` of it).
        min_size: no boundary is declared closer than this to the
            previous one. Defaults to ``avg_size // 4``.
        max_size: a boundary is forced at this length. Defaults to
            ``avg_size * 4``.
        impl: ``"scalar"`` (byte-at-a-time oracle), ``"vectorized"``
            (numpy bulk sweep), or ``"auto"`` (the vectorized lane).

    Attributes:
        bytes_scanned: bytes pushed through the gear hash, keyed by lane
            (exported as ``chunker_bytes_scanned_total{impl}``).
        bytes_skipped: bytes the scalar lane's skip-ahead never touched
            (exported as ``chunker_skip_bytes_total``).
    """

    def __init__(
        self,
        avg_size: int = 1024,
        min_size: int | None = None,
        max_size: int | None = None,
        impl: str = "auto",
    ) -> None:
        if avg_size < 8 or avg_size & (avg_size - 1):
            raise ValueError(f"avg_size must be a power of two >= 8, got {avg_size}")
        if impl not in CHUNKER_IMPLS:
            raise ValueError(f"impl must be one of {CHUNKER_IMPLS}, got {impl!r}")
        self.avg_size = avg_size
        self.min_size = avg_size // 4 if min_size is None else min_size
        self.max_size = avg_size * 4 if max_size is None else max_size
        if not 0 < self.min_size <= avg_size <= self.max_size:
            raise ValueError(
                f"need 0 < min_size <= avg_size <= max_size, got "
                f"{self.min_size}/{avg_size}/{self.max_size}"
            )
        self.impl = impl
        self.strict_mask, self.loose_mask = normalized_masks(avg_size)
        # The cut test reads no hash bit above the strict mask's, so the
        # sweep runs in the narrowest dtype that holds it.
        self._table = gear_table_np(self.strict_mask.bit_length())
        # 0-d arrays: a ufunc takes them as they are, where a numpy
        # scalar operand is converted on every call.
        self._strict = np.array(self.strict_mask, dtype=self._table.dtype)
        self._loose = np.array(self.loose_mask, dtype=self._table.dtype)
        self.bytes_scanned: dict[str, int] = {"scalar": 0, "vectorized": 0}
        self.bytes_skipped = 0

    @property
    def resolved_impl(self) -> str:
        """The lane actually in use (``"auto"`` resolves to vectorized)."""
        return "vectorized" if self.impl == "auto" else self.impl

    # -- boundary computation --------------------------------------------------

    def boundaries(self, data: bytes) -> list[int]:
        """Return chunk end offsets (ascending, final element ``len(data)``)."""
        return self.boundaries_many([data])[0]

    def boundaries_many(self, datas: list[bytes]) -> list[list[int]]:
        """Chunk boundaries for a whole batch of records.

        Each result is the record's chunk end offsets, exactly as if the
        record had been chunked alone — the gear hash is restartable, so
        per-record and batched sweeps agree. Records under
        :data:`_BATCH_RECORD_CUTOFF` bytes, when there are at least two
        of them, share a *single* numpy sweep over their concatenation,
        amortizing the fixed dispatch cost that dominates small records;
        they are separated by one zero gear term short of the sweep's
        bit width, so no record's hashes see its neighbour's bytes (a
        zero term contributes nothing at any shift). Every other record
        gains nothing from amortization and is swept on its own. The
        scalar lane chunks record by record (it has no per-call setup
        worth amortizing).
        """
        if self.resolved_impl == "scalar":
            return [
                self._scalar_boundaries(data) if data else [] for data in datas
            ]
        results: list[list[int] | None] = [None] * len(datas)
        small = [
            pos
            for pos, data in enumerate(datas)
            if 0 < len(data) < _BATCH_RECORD_CUTOFF
        ]
        table = self._table
        if len(small) > 1:
            gap = 8 * table.itemsize - 1
            total = sum(len(datas[pos]) for pos in small)
            padded = np.zeros(total + gap * len(small), dtype=table.dtype)
            offset = 0
            offsets = []
            for pos in small:
                data = datas[pos]
                offsets.append(offset)
                buf = np.frombuffer(data, dtype=np.uint8)
                padded[offset : offset + len(data)] = table.take(buf)
                offset += len(data) + gap
            gear_sweep(padded)
            for pos, offset in zip(small, offsets):
                n = len(datas[pos])
                results[pos] = self._cuts_from_hashes(
                    padded[offset : offset + n], n
                )
        for pos, data in enumerate(datas):
            if results[pos] is None:
                results[pos] = self._cuts_from_hashes(
                    gear_hashes(data, table), len(data)
                )
        self.bytes_scanned["vectorized"] += sum(map(len, datas))
        return results

    def _scalar_boundaries(self, data: bytes) -> list[int]:
        """Oracle lane plus its scanned/skipped byte accounting."""
        cuts, hashed = scalar_boundaries(
            data, self.min_size, self.avg_size, self.max_size
        )
        self.bytes_scanned["scalar"] += hashed
        if hashed < len(data):
            self.bytes_skipped += len(data) - hashed
        return cuts

    def _cuts_from_hashes(self, hashes: np.ndarray, n: int) -> list[int]:
        """Normalized cut scan over a record's precomputed hash array.

        The two mask tests run once over the whole array with numpy and
        are handed to the walk as ``bytes`` of 0/1 flags; each chunk then
        asks ``bytes.find`` (a ``memchr``) for the first strict match in
        its strict window and, failing that, the first loose match past
        it — no candidate is extracted, boxed or searched for that the
        walk does not reach. Cut semantics mirror the scalar oracle
        exactly: hash index ``i`` ends a chunk at offset ``i + 1``;
        candidates live in ``[start + min_size, hi]`` with
        ``hi = min(start + max_size, n)``; the strict mask applies
        through ``start + avg_size``, the loose mask after; no match
        forces the cut at ``hi`` (coinciding match and forced cut emit
        one boundary).

        The walk is split where ``hi`` changes meaning. While a whole
        ``max_size`` window fits in the record, ``hi`` is
        ``start + max_size`` and lies past ``start + avg_size``; in the
        record's tail ``hi`` is ``n``, the end of the flags, which is
        where ``find`` stops by itself. "No match" is ``find``'s ``-1``
        in both, so neither loop needs a ``min()``, a length or a bound
        check.
        """
        strict_find = ((hashes & self._strict) == 0).tobytes().find
        loose_find = ((hashes & self._loose) == 0).tobytes().find
        min_size, avg_size, max_size = self.min_size, self.avg_size, self.max_size
        # Offset ``p`` is hash index ``p - 1``: the first admissible cut,
        # ``start + min_size``, is index ``start + skip``.
        skip = min_size - 1
        cuts: list[int] = []
        start = 0
        last_whole = n - max_size
        while start <= last_whole:
            normal = start + avg_size
            index = strict_find(1, start + skip, normal)
            if index < 0:
                index = loose_find(1, normal, start + max_size)
                if index < 0:
                    index = start + max_size - 1
            start = index + 1
            cuts.append(start)
        while n - start > min_size:
            normal = start + avg_size
            index = strict_find(1, start + skip, normal)
            if index < 0:
                index = loose_find(1, normal)
                if index < 0:
                    index = n - 1
            start = index + 1
            cuts.append(start)
        if start < n:
            cuts.append(n)
        return cuts

    def chunks(self, data: bytes) -> list[Chunk]:
        """Split ``data`` into chunks; concatenating them restores ``data``."""
        pieces = []
        start = 0
        for end in self.boundaries(data):
            pieces.append(Chunk(start, end, data[start:end]))
            start = end
        return pieces

"""Reference delta encoders: what tests and benches compare against.

Nothing under ``src/`` imports this module.

* :class:`OracleDeltaCompressor` — the anchor-sampled encoder as it stood
  before :mod:`repro.delta.dbdelta` moved to anchor-only checksums and a
  sorted-table probe, frozen verbatim on :func:`rolling_adler32` (a full
  Adler-32 at every offset, a ``dict`` of source anchors, every target
  anchor walked in Python). The production encoder must emit the same
  instruction stream byte for byte; ``tools/check_api_boundary.py`` pins
  this class's source text.
* :func:`oracle_delta_reencode` — Algorithm 2 as it stood on instruction
  lists, frozen verbatim: :func:`repro.delta.reencode.delta_reencode`
  reads and writes wire payloads and must emit
  ``serialize(oracle_delta_reencode(src, deserialize(forward)))`` byte
  for byte.
* :func:`reference_compress` — the *quality* yardstick.
  ``difflib.SequenceMatcher`` finds (near-)maximal matching blocks with no
  windowing or sampling tricks, so its COPY coverage approximates the best
  a copy/insert delta can do. It is far too slow for the online path
  (quadratic worst case), which is precisely why it makes a good
  reference: tests and benches compare dbDedup's sampled encoder against
  it to quantify how much ratio the anchor optimization leaves on the
  table.
"""

from __future__ import annotations

from difflib import SequenceMatcher

import numpy as np

from repro.delta._matching import as_array, backward_match_len, forward_match_len
from repro.delta.dbdelta import (
    DEFAULT_ANCHOR_INTERVAL,
    DEFAULT_WINDOW,
    MAX_OFFSETS_PER_CHECKSUM,
)
from repro.delta.instructions import CopyInst, Delta, InsertInst, coalesce
from repro.hashing.adler import rolling_adler32

#: Matching blocks shorter than this are cheaper as literals.
MIN_MATCH = 8


def reference_compress(src: bytes, tgt: bytes, min_match: int = MIN_MATCH) -> Delta:
    """Copy/insert delta via SequenceMatcher's matching blocks.

    Returns a delta such that ``apply_delta(src, result) == tgt``. Not for
    production use — O(len(src)·len(tgt)) worst case.
    """
    if not tgt:
        return []
    if not src:
        return [InsertInst(tgt)]
    # autojunk=False: the default heuristic drops popular bytes, which is
    # wrong for binary-ish data.
    matcher = SequenceMatcher(None, src, tgt, autojunk=False)
    insts: Delta = []
    emitted = 0
    for s_off, t_off, length in matcher.get_matching_blocks():
        if length < min_match:
            continue
        if emitted < t_off:
            insts.append(InsertInst(tgt[emitted:t_off]))
        insts.append(CopyInst(s_off, length))
        emitted = t_off + length
    if emitted < len(tgt):
        insts.append(InsertInst(tgt[emitted:]))
    return coalesce(insts, base=src)


class OracleDeltaCompressor:
    """The pre-rewrite anchor-sampled encoder, frozen as the oracle.

    Same constructor and ``compress`` contract as
    :class:`repro.delta.dbdelta.DeltaCompressor`. Do not optimise this
    class: its value is that it is the old code.
    """

    def __init__(
        self,
        anchor_interval: int = DEFAULT_ANCHOR_INTERVAL,
        window: int = DEFAULT_WINDOW,
    ) -> None:
        if anchor_interval < 1 or anchor_interval & (anchor_interval - 1):
            raise ValueError(
                f"anchor_interval must be a power of two, got {anchor_interval}"
            )
        if window < 4:
            raise ValueError(f"window must be >= 4, got {window}")
        self.anchor_interval = anchor_interval
        self.window = window
        self._mask = np.uint32(anchor_interval - 1)
        self._magic = np.uint32(anchor_interval - 1)

    def _anchors(self, checksums: np.ndarray) -> np.ndarray:
        """Offsets whose checksum low bits match the anchor pattern."""
        if self.anchor_interval == 1:
            return np.arange(len(checksums))
        return np.nonzero((checksums & self._mask) == self._magic)[0]

    def compress(self, src: bytes, tgt: bytes) -> Delta:
        """Delta that rebuilds ``tgt`` from ``src`` (Algorithm 1).

        Always correct: if no anchors match (e.g. unrelated inputs), the
        result degenerates to a single INSERT of the whole target.
        """
        if not tgt:
            return []
        if len(src) < self.window or len(tgt) < self.window:
            return [InsertInst(tgt)]

        src_arr = as_array(src)
        tgt_arr = as_array(tgt)
        src_checksums = rolling_adler32(src, self.window)
        tgt_checksums = rolling_adler32(tgt, self.window)

        # Step 1 (Algorithm 1 lines 8-14): index source anchors.
        index: dict[int, list[int]] = {}
        for offset in self._anchors(src_checksums).tolist():
            bucket = index.setdefault(int(src_checksums[offset]), [])
            if len(bucket) < MAX_OFFSETS_PER_CHECKSUM:
                bucket.append(offset)

        # Step 2 (lines 15-31): probe only target anchors, extend matches.
        insts: Delta = []
        emitted = 0
        tgt_anchors = self._anchors(tgt_checksums).tolist()
        cursor = 0
        while cursor < len(tgt_anchors):
            j = tgt_anchors[cursor]
            if j < emitted:
                cursor += 1
                continue
            candidates = index.get(int(tgt_checksums[j]))
            if not candidates:
                cursor += 1
                continue
            best = self._best_match(src_arr, tgt_arr, candidates, j, emitted)
            if best is None:
                cursor += 1
                continue
            s_off, t_off, length = best
            if emitted < t_off:
                insts.append(InsertInst(tgt[emitted:t_off]))
            insts.append(CopyInst(s_off, length))
            emitted = t_off + length
            cursor += 1
        if emitted < len(tgt):
            insts.append(InsertInst(tgt[emitted:]))
        return coalesce(insts, base=src)

    def _best_match(
        self,
        src_arr: np.ndarray,
        tgt_arr: np.ndarray,
        candidates: list[int],
        j: int,
        emitted: int,
    ) -> tuple[int, int, int] | None:
        """Longest verified match across candidate source offsets, or None."""
        best: tuple[int, int, int] | None = None
        for s in candidates:
            length = forward_match_len(src_arr, tgt_arr, s, j)
            if length < self.window:
                continue  # checksum collision
            back = backward_match_len(src_arr, tgt_arr, s, j, 0, emitted)
            total = length + back
            if best is None or total > best[2]:
                best = (s - back, j - back, total)
        return best


def oracle_delta_reencode(src: bytes, forward: Delta) -> Delta:
    """Backward delta (base = target) reconstructing ``src``.

    Args:
        src: the forward delta's source record (the older record).
        forward: delta produced against ``src`` for some target record.

    Returns:
        Instructions such that ``apply_delta(tgt, result) == src`` whenever
        ``apply_delta(src, forward) == tgt``.
    """
    # Collect (source offset, target offset, length) for every forward COPY.
    segments: list[tuple[int, int, int]] = []
    t_pos = 0
    for inst in forward:
        if isinstance(inst, CopyInst):
            segments.append((inst.offset, t_pos, inst.length))
        t_pos += len(inst)
    segments.sort()

    insts: Delta = []
    s_pos = 0
    for s_off, t_off, length in segments:
        if s_off < s_pos:
            # Overlaps the previous segment in source space: trim the front.
            trim = s_pos - s_off
            if trim >= length:
                continue
            s_off += trim
            t_off += trim
            length -= trim
        if s_pos < s_off:
            insts.append(InsertInst(src[s_pos:s_off]))
        insts.append(CopyInst(t_off, length))
        s_pos = s_off + length
    if s_pos < len(src):
        insts.append(InsertInst(src[s_pos:]))
    return coalesce(insts, base=None)

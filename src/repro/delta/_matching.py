"""numpy match extension for classic xDelta and the frozen oracle.

Once a candidate match offset pair is found via checksums, an encoder
extends it with "bidirectional byte-wise comparison to determine the longest
common sequence" (§4.2). Here the extension is vectorized: slices are
compared in blocks and the first mismatch located with ``argmax`` on the
inequality mask, so long matches cost O(match/block) numpy calls instead of
a Python loop per byte.

Only :mod:`repro.delta.xdelta` and
:class:`repro.delta.reference.OracleDeltaCompressor` use it. The
production encoder extends on ``bytes`` instead
(:func:`repro.delta.dbdelta.extend_forward` /
:func:`~repro.delta.dbdelta.extend_backward`), which the differential
tests hold to these two functions' results.
"""

from __future__ import annotations

import numpy as np

_BLOCK = 4096


def as_array(data: bytes) -> np.ndarray:
    """View ``data`` as a read-only uint8 array (no copy)."""
    return np.frombuffer(data, dtype=np.uint8)


def forward_match_len(src: np.ndarray, tgt: np.ndarray, s: int, t: int) -> int:
    """Length of the common run of ``src[s:]`` and ``tgt[t:]``."""
    limit = min(len(src) - s, len(tgt) - t)
    matched = 0
    while matched < limit:
        span = min(_BLOCK, limit - matched)
        a = src[s + matched : s + matched + span]
        b = tgt[t + matched : t + matched + span]
        neq = a != b
        if neq.any():
            return matched + int(np.argmax(neq))
        matched += span
    return matched


def backward_match_len(
    src: np.ndarray, tgt: np.ndarray, s: int, t: int, s_lo: int, t_lo: int
) -> int:
    """How far the match ending just before ``(s, t)`` extends backwards.

    Never reaches below ``s_lo`` in the source or ``t_lo`` in the target —
    the target floor is the last emitted output position, which must not be
    re-covered.
    """
    limit = min(s - s_lo, t - t_lo)
    matched = 0
    while matched < limit:
        span = min(_BLOCK, limit - matched)
        a = src[s - matched - span : s - matched]
        b = tgt[t - matched - span : t - matched]
        neq = a != b
        if neq.any():
            # Scan the block from its tail: argmax on the reversed mask.
            return matched + int(np.argmax(neq[::-1]))
        matched += span
    return matched

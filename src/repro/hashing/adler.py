"""Rolling Adler-32 block checksums for delta compression (§4.2).

xDelta (and dbDedup's anchor-sampled variant) fingerprint fixed-width byte
blocks with Adler-32 — "the same fingerprint function used in gzip" — to
find candidate match offsets between source and target streams.

:func:`rolling_adler32` computes the checksum of the window starting at
*every* position in one numpy pass (classic xDelta probes every target
offset, so it needs them all); :func:`anchor_adler32` computes full
checksums only at *anchor* positions, which is all dbDedup's sampled
encoder indexes or probes; :func:`adler32_block` is the scalar reference
used for cross-checking and for single lookups.
"""

from __future__ import annotations

import numpy as np

_MOD = 65521  # largest prime below 2^16, per RFC 1950


def adler32_block(data: bytes, start: int = 0, width: int | None = None) -> int:
    """Adler-32 of ``data[start:start+width]`` (whole tail if width is None)."""
    if width is None:
        width = len(data) - start
    a = 1
    b = 0
    for offset in range(start, start + width):
        a += data[offset]
        b += a
    return ((b % _MOD) << 16) | (a % _MOD)


def rolling_adler32(data: bytes, width: int) -> np.ndarray:
    """Adler-32 of the ``width``-byte window at every position of ``data``.

    Returns:
        uint32 array of length ``len(data) - width + 1``; entry ``i`` equals
        ``adler32_block(data, i, width)``. Empty array if the buffer is
        shorter than the window.

    The A component of a window is ``1 + sum(bytes)``; the B component is
    ``width + sum((width - j) * byte_j)``. Both reduce to differences of
    prefix sums (of the bytes, and of the bytes weighted by position), at
    the price of widening the buffer to int64 and about a dozen full-length
    temporaries. int64 prefix sums stay exact for buffers up to several
    hundred MB, far beyond any database record.
    """
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    n = len(data)
    if n < width:
        return np.empty(0, dtype=np.uint32)

    buf = np.frombuffer(data, dtype=np.uint8).astype(np.int64)
    count = n - width + 1

    prefix = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(buf, out=prefix[1:])
    window_sums = prefix[width:] - prefix[:count]

    positions = np.arange(n, dtype=np.int64)
    weighted_prefix = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(buf * positions, out=weighted_prefix[1:])
    # sum over window of (t - i) * data[t], for window start i:
    offset_sums = (
        weighted_prefix[width:]
        - weighted_prefix[:count]
        - positions[:count] * window_sums
    )

    a = (1 + window_sums) % _MOD
    b = (width + width * window_sums - offset_sums) % _MOD
    return ((b.astype(np.uint32)) << np.uint32(16)) | a.astype(np.uint32)


def _window_sums(buf: np.ndarray, width: int, dtype) -> np.ndarray:
    """Sum of the ``width``-byte window at every position, in ``dtype``.

    Doubling: ``sums_2k[i] = sums_k[i] + sums_k[i + k]``, and the set bits
    of ``width`` are stitched together, so it takes about ``log2(width)``
    adds of narrow arrays where a prefix sum needs the buffer widened to
    hold its grand total. The caller picks a ``dtype`` that holds
    ``255 * width``.
    """
    n = len(buf)
    power = buf.astype(dtype)  # power[i] = sum(buf[i : i + span])
    span = 1
    sums = None  # sums[i] = sum(buf[i : i + covered])
    covered = 0
    remaining = width
    while True:
        if remaining & 1:
            if sums is None:
                sums = power
            else:
                count = n - covered - span + 1
                sums = sums[:count] + power[covered : covered + count]
            covered += span
        remaining >>= 1
        if not remaining:
            return sums
        power = power[: len(power) - span] + power[span:]
        span *= 2


def anchor_adler32(data: bytes, width: int, mask: int) -> tuple[np.ndarray, np.ndarray]:
    """Anchor positions of ``data`` and the Adler-32 of their windows.

    A position is an anchor when its ``width``-byte window checksum ``c``
    satisfies ``c & mask == mask``.

    Returns:
        ``(positions, checksums)``: ascending int positions and the uint32
        checksums at them — the entries of ``rolling_adler32(data, width)``
        that pass the mask test, without computing the rest.

    The low 16 bits of the checksum are the A half, so for any mask up to
    ``0xFFFF`` the window byte sums alone decide which positions are
    anchors; they are kept in uint16, and unreduced, while ``1 + 255 *
    width`` stays below 65521 (widths up to 256). The B half — the
    expensive, position-weighted one — is computed only for the windows
    that passed, about one in ``mask + 1``. A mask with bits above
    ``0xFFFF`` is applied again to the full checksum.
    """
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    if len(data) < width:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.uint32)

    buf = np.frombuffer(data, dtype=np.uint8)
    if 1 + 255 * width < _MOD:
        a = _window_sums(buf, width, np.uint16) + 1
    else:
        a = (_window_sums(buf, width, np.uint64) + 1) % _MOD
    low = mask & 0xFFFF
    positions = np.flatnonzero((a & low) == low)

    # B = width + sum((width - j) * byte_j): gather the windows that passed
    # and weight them in one matrix-vector product.
    windows = buf[positions[:, None] + np.arange(width)]
    b = (windows @ np.arange(width, 0, -1, dtype=np.int64) + width) % _MOD

    checksums = ((b << 16) | a[positions].astype(np.int64)).astype(np.uint32)
    if mask > 0xFFFF:
        keep = (checksums & mask) == mask
        positions, checksums = positions[keep], checksums[keep]
    return positions, checksums

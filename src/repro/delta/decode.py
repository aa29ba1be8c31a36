"""Delta decompression (§4.2): replay COPY/INSERT instructions over a base.

Two entry points with one meaning: :func:`apply_payload` decodes a
wire-format delta straight into bytes (it lives beside the format in
:mod:`repro.delta.instructions` and is re-exported here) — the read
path's chain walk decodes every hop with it, and so do the secondary's
re-encoder, oplog replay and GC validation; :func:`apply_delta` replays
an instruction list, for callers that hold instructions anyway (classic
xDelta and the oracles in the tests). ``apply_payload(base, p) ==
apply_delta(base, deserialize(p))`` for every payload, and both raise
``ValueError`` on the same malformed ones.
"""

from __future__ import annotations

from repro.delta.instructions import CopyInst, Delta, InsertInst, apply_payload

__all__ = ["apply_delta", "apply_payload"]


def apply_delta(base: bytes, insts: Delta) -> bytes:
    """Rebuild the target stream from ``base`` and a delta.

    Raises:
        ValueError: if a COPY references bytes outside ``base`` — the signal
            that a delta is being applied to the wrong base record.
    """
    out = bytearray()
    limit = len(base)
    for inst in insts:
        if isinstance(inst, InsertInst):
            out += inst.data
        elif isinstance(inst, CopyInst):
            end = inst.offset + inst.length
            if inst.offset < 0 or end > limit:
                raise ValueError(
                    f"COPY [{inst.offset}, {end}) outside base of {limit} bytes"
                )
            out += base[inst.offset : end]
        else:
            raise TypeError(f"not a delta instruction: {inst!r}")
    return bytes(out)

"""Byte-level delta compression (§4.2, Algorithms 1 and 2).

The instruction model is shared by every encoder so that Fig. 15's
comparison (classic xDelta vs dbDedup's anchor-sampled variant) measures
algorithmic differences only:

* :mod:`repro.delta.instructions` — COPY/INSERT model + binary wire format.
* :mod:`repro.delta.xdelta` — classic xDelta: block index over the source,
  target scanned at every byte offset.
* :mod:`repro.delta.dbdelta` — dbDedup's variant: only *anchor* offsets
  (checksum low bits match a pattern) are indexed and probed, trading a
  little ratio for a large speedup (Fig. 15). Full checksums are computed
  at anchors only and the source index is one sorted array.
* :mod:`repro.delta.reencode` — Algorithm 2: transform a forward delta into
  the backward delta at memory speed, without re-running compression.
* :mod:`repro.delta.decode` — apply a delta to its base: ``apply_payload``
  straight from the wire format, ``apply_delta`` from an instruction list.
* :mod:`repro.delta.reference` — what the encoders are tested against,
  imported by tests and benchmarks only: ``OracleDeltaCompressor`` (the
  every-offset implementation ``dbdelta`` must match byte for byte) and
  ``reference_compress`` (difflib, the ratio yardstick).
* :mod:`repro.delta._matching` — bidirectional match extension shared by
  the encoders.
"""

from repro.delta.decode import apply_delta, apply_payload
from repro.delta.dbdelta import DeltaCompressor
from repro.delta.instructions import (
    CopyInst,
    Delta,
    InsertInst,
    coalesce,
    deserialize,
    encoded_size,
    serialize,
)
from repro.delta.reencode import delta_reencode
from repro.delta.xdelta import xdelta_compress

__all__ = [
    "CopyInst",
    "InsertInst",
    "Delta",
    "serialize",
    "deserialize",
    "encoded_size",
    "coalesce",
    "xdelta_compress",
    "DeltaCompressor",
    "delta_reencode",
    "apply_delta",
    "apply_payload",
]

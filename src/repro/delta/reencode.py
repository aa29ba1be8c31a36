"""Delta re-encoding: forward delta → backward delta (§4.2, Algorithm 2).

Two-way encoding needs both directions of the same record pair: the forward
delta (old → new) ships to replicas, the backward delta (new → old) lands
in storage. Running the compressor twice would double the dominant cost —
checksum and index work — so dbDedup instead *transforms* the forward
delta:

every forward COPY states a byte-equality ``src[sOff:sOff+len] ==
tgt[tOff:tOff+len]``; read backwards, the same fact reconstructs that
source span from the target. Sort the copy segments by source offset, fill
the source gaps with literal INSERTs, and the backward delta is done — no
checksums, no index, pure memory-speed bookkeeping.

Both sides are wire payloads: the COPY triples are read straight from the
forward payload (:func:`~repro.delta.instructions.payload_copies`) and
the backward one is written by the encoder's own emitter
(:func:`~repro.delta.instructions.emit_payload`), with no instruction
objects in between. Primary and secondary run this function on the same
bytes, which is what keeps their stored encodings identical (§4.1).
:func:`repro.delta.reference.oracle_delta_reencode` is the instruction-list
version it must match byte for byte.

Subtlety the paper notes: forward COPYs may *overlap* in source space
(two target regions copied from overlapping source spans). Overlaps are
trimmed front-wise here, which can shorten copies slightly — the "slightly
sub-optimal compression rate" §4.2 accepts in exchange for speed.
"""

from __future__ import annotations

from repro.delta.instructions import emit_payload, payload_copies


def delta_reencode(src: bytes, forward: bytes) -> bytes:
    """Backward wire-format delta (base = target) reconstructing ``src``.

    Args:
        src: the forward delta's source record (the older record).
        forward: wire-format delta produced against ``src`` for some
            target record.

    Returns:
        A payload such that ``apply_payload(tgt, result) == src`` whenever
        ``apply_payload(src, forward) == tgt``.

    Raises:
        ValueError: on a malformed ``forward`` payload.
    """
    segments = payload_copies(forward)
    segments.sort()
    copies: list[tuple[int, int, int]] = []
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
        copies.append((t_off, s_off, length))
        s_pos = s_off + length
    # No demotion: every forward COPY was already worth its header.
    return emit_payload(copies, src, min_copy=1)

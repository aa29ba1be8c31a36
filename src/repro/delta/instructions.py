"""Copy/insert delta instruction model and its binary wire format (§4.2).

A delta is a list of instructions that rebuild a *target* byte stream from
a *base* byte stream:

* ``CopyInst(offset, length)`` — append ``base[offset:offset+length]``.
* ``InsertInst(data)`` — append literal bytes carried in the delta.

Wire format (what gets stored in pages and shipped in oplog batches)::

    instruction := 0x00 varint(len) bytes[len]     -- INSERT
                 | 0x01 varint(offset) varint(len) -- COPY

The format is self-delimiting; a delta is just the concatenation of its
instructions.

Neither the write path nor the read path builds instruction objects:
the encoder hands its matches to :func:`emit_payload`, the re-encoder
reads the forward COPYs with :func:`payload_copies`, and every decode —
the primary's chain walk on a read, the secondary's apply, oplog replay
and GC validation — runs :func:`apply_payload`; all of them read or write
varints of one and two bytes inline. ``InsertInst`` / ``CopyInst`` lists
with :func:`serialize`, :func:`deserialize` and :func:`coalesce` remain
for classic xDelta and the frozen oracles in
:mod:`repro.delta.reference` and the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.varint import decode_uvarint, encode_uvarint

_TAG_INSERT = 0x00
_TAG_COPY = 0x01

#: COPY instructions shorter than this are cheaper as literal INSERTs
#: (tag + two varints usually costs 3-6 bytes).
MIN_PROFITABLE_COPY = 8


@dataclass(frozen=True)
class InsertInst:
    """Append literal ``data`` to the output."""

    data: bytes

    def __len__(self) -> int:
        return len(self.data)


@dataclass(frozen=True)
class CopyInst:
    """Append ``length`` bytes of the base stream starting at ``offset``."""

    offset: int
    length: int

    def __len__(self) -> int:
        return self.length


Delta = list["InsertInst | CopyInst"]


def serialize(insts: Delta) -> bytes:
    """Encode a delta into its binary wire format."""
    out = bytearray()
    for inst in insts:
        if isinstance(inst, InsertInst):
            out.append(_TAG_INSERT)
            out += encode_uvarint(len(inst.data))
            out += inst.data
        elif isinstance(inst, CopyInst):
            out.append(_TAG_COPY)
            out += encode_uvarint(inst.offset)
            out += encode_uvarint(inst.length)
        else:
            raise TypeError(f"not a delta instruction: {inst!r}")
    return bytes(out)


def deserialize(payload: bytes) -> Delta:
    """Decode a wire-format delta back into instructions.

    Raises:
        ValueError: on truncation or an unknown instruction tag.
    """
    insts: Delta = []
    pos = 0
    end = len(payload)
    while pos < end:
        tag = payload[pos]
        pos += 1
        if tag == _TAG_INSERT:
            length, pos = decode_uvarint(payload, pos)
            if pos + length > end:
                raise ValueError("truncated INSERT payload")
            insts.append(InsertInst(payload[pos : pos + length]))
            pos += length
        elif tag == _TAG_COPY:
            offset, pos = decode_uvarint(payload, pos)
            length, pos = decode_uvarint(payload, pos)
            insts.append(CopyInst(offset, length))
        else:
            raise ValueError(f"unknown delta instruction tag 0x{tag:02x}")
    return insts


def apply_payload(base: bytes, payload: bytes) -> bytes:
    """Rebuild the target stream from ``base`` and a wire-format delta.

    The same walk as :func:`deserialize`, but slices of ``base`` and of
    ``payload`` itself are joined directly, without instruction objects in
    between: ``apply_payload(base, p) == apply_delta(base, deserialize(p))``.
    This is the decode kernel of every reader — the read path's chain
    walk decodes each hop with it — so varints of one and two bytes (every
    offset and length below 16 KiB) are decoded in the loop body itself;
    longer ones go through :func:`decode_uvarint`. A payload that ends
    inside a varint raises like :func:`decode_uvarint` would.

    Raises:
        ValueError: on a truncated varint or INSERT, an unknown
            instruction tag, or a COPY that references bytes outside
            ``base`` — the signal that a delta is being applied to the
            wrong base record.
    """
    parts = []
    append = parts.append
    limit = len(base)
    end = len(payload)
    pos = 0
    try:
        while pos < end:
            tag = payload[pos]
            if tag == _TAG_COPY:
                offset = payload[pos + 1]
                pos += 2
                if offset >= 0x80:
                    second = payload[pos]
                    if second < 0x80:
                        offset = offset & 0x7F | second << 7
                        pos += 1
                    else:
                        offset, pos = decode_uvarint(payload, pos - 1)
                length = payload[pos]
                pos += 1
                if length >= 0x80:
                    second = payload[pos]
                    if second < 0x80:
                        length = length & 0x7F | second << 7
                        pos += 1
                    else:
                        length, pos = decode_uvarint(payload, pos - 1)
                stop = offset + length
                if stop > limit:
                    raise ValueError(
                        f"COPY [{offset}, {stop}) outside base of {limit} bytes"
                    )
                append(base[offset:stop])
            elif tag == _TAG_INSERT:
                length = payload[pos + 1]
                pos += 2
                if length >= 0x80:
                    second = payload[pos]
                    if second < 0x80:
                        length = length & 0x7F | second << 7
                        pos += 1
                    else:
                        length, pos = decode_uvarint(payload, pos - 1)
                stop = pos + length
                if stop > end:
                    raise ValueError("truncated INSERT payload")
                append(payload[pos:stop])
                pos = stop
            else:
                raise ValueError(f"unknown delta instruction tag 0x{tag:02x}")
    except IndexError:
        raise ValueError("truncated varint") from None
    return b"".join(parts)


def payload_copies(payload: bytes) -> list[tuple[int, int, int]]:
    """``(base offset, target offset, length)`` of every COPY in a payload.

    Target offsets are where each COPY lands in the rebuilt stream; the
    INSERTs in between are stepped over by their length. Raises
    ``ValueError`` on exactly the payloads :func:`deserialize` rejects.
    """
    copies = []
    end = len(payload)
    pos = 0
    t_pos = 0
    try:
        while pos < end:
            tag = payload[pos]
            if tag == _TAG_COPY:
                offset = payload[pos + 1]
                pos += 2
                if offset >= 0x80:
                    offset, pos = _uvarint_tail(payload, pos, offset)
                length = payload[pos]
                pos += 1
                if length >= 0x80:
                    length, pos = _uvarint_tail(payload, pos, length)
                copies.append((offset, t_pos, length))
            elif tag == _TAG_INSERT:
                length = payload[pos + 1]
                pos += 2
                if length >= 0x80:
                    length, pos = _uvarint_tail(payload, pos, length)
                pos += length
                if pos > end:
                    raise ValueError("truncated INSERT payload")
            else:
                raise ValueError(f"unknown delta instruction tag 0x{tag:02x}")
            t_pos += length
    except IndexError:
        raise ValueError("truncated varint") from None
    return copies


def emit_payload(
    copies: list[tuple[int, int, int]],
    target: bytes,
    min_copy: int = MIN_PROFITABLE_COPY,
) -> bytes:
    """Wire-format delta rebuilding ``target`` from a list of COPYs.

    ``copies`` holds ``(base offset, target offset, length)`` triples in
    ascending, non-overlapping target order, each naming base bytes equal
    to ``target[target offset:target offset + length]``. The bytes between
    them become INSERTs taken from ``target``; a COPY continuing the
    previous one in both streams merges with it, and one shorter than
    ``min_copy`` is left to the INSERT around it. The result equals
    ``serialize(coalesce(insts, base))`` for the equivalent instruction
    list — with ``min_copy=1`` equal to ``coalesce(insts, base=None)``.
    """
    out = bytearray()
    copy_off = copy_len = 0
    gap = 0  # first target byte no instruction covers yet
    for base_off, tgt_off, length in copies:
        if length < min_copy:
            continue
        if tgt_off == gap and copy_len and copy_off + copy_len == base_off:
            copy_len += length
            gap += length
            continue
        if copy_len:
            _put_copy(out, copy_off, copy_len)
        if gap < tgt_off:
            _put_insert(out, target, gap, tgt_off)
        copy_off, copy_len = base_off, length
        gap = tgt_off + length
    if copy_len:
        _put_copy(out, copy_off, copy_len)
    if gap < len(target):
        _put_insert(out, target, gap, len(target))
    return bytes(out)


def _put_copy(out: bytearray, offset: int, length: int) -> None:
    out.append(_TAG_COPY)
    if offset < 0x80:
        out.append(offset)
    elif offset < 0x4000:
        out.append(offset & 0x7F | 0x80)
        out.append(offset >> 7)
    else:
        out += encode_uvarint(offset)
    if length < 0x80:
        out.append(length)
    elif length < 0x4000:
        out.append(length & 0x7F | 0x80)
        out.append(length >> 7)
    else:
        out += encode_uvarint(length)


def _put_insert(out: bytearray, data: bytes, start: int, stop: int) -> None:
    out.append(_TAG_INSERT)
    length = stop - start
    if length < 0x80:
        out.append(length)
    elif length < 0x4000:
        out.append(length & 0x7F | 0x80)
        out.append(length >> 7)
    else:
        out += encode_uvarint(length)
    out += data[start:stop]


def _uvarint_tail(payload: bytes, pos: int, first: int) -> tuple[int, int]:
    """Finish a varint whose first byte ``first`` (continuation bit set)
    sat just before ``pos``; the second byte is decoded inline."""
    second = payload[pos]
    if second < 0x80:
        return first & 0x7F | second << 7, pos + 1
    return decode_uvarint(payload, pos - 1)


def encoded_size(insts: Delta) -> int:
    """Wire-format size in bytes without materializing the encoding."""
    total = 0
    for inst in insts:
        if isinstance(inst, InsertInst):
            length = len(inst.data)
            total += 1 + len(encode_uvarint(length)) + length
        else:
            total += (
                1 + len(encode_uvarint(inst.offset)) + len(encode_uvarint(inst.length))
            )
    return total


def target_length(insts: Delta) -> int:
    """Number of bytes the delta reconstructs."""
    return sum(len(inst) for inst in insts)


def coalesce(insts: Delta, base: bytes | None = None) -> Delta:
    """Normalize a delta: merge neighbours, demote unprofitable copies.

    * contiguous COPYs (``offset`` continues where the previous ended) merge;
    * adjacent INSERTs merge;
    * COPYs shorter than :data:`MIN_PROFITABLE_COPY` are rewritten as
      INSERTs when ``base`` is supplied (the literal bytes must come from
      somewhere).

    The returned delta reconstructs exactly the same target.
    """
    out: Delta = []
    for inst in insts:
        if isinstance(inst, CopyInst):
            if inst.length == 0:
                continue
            if base is not None and inst.length < MIN_PROFITABLE_COPY:
                inst = InsertInst(base[inst.offset : inst.offset + inst.length])
        elif not inst.data:
            continue
        if out:
            prev = out[-1]
            if (
                isinstance(prev, CopyInst)
                and isinstance(inst, CopyInst)
                and prev.offset + prev.length == inst.offset
            ):
                out[-1] = CopyInst(prev.offset, prev.length + inst.length)
                continue
            if isinstance(prev, InsertInst) and isinstance(inst, InsertInst):
                out[-1] = InsertInst(prev.data + inst.data)
                continue
        out.append(inst)
    return out

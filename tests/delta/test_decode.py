"""Delta decoding: bounds checking and exactness, and the payload-direct
decoder against the two-step ``deserialize`` + ``apply_delta``."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.delta.decode import apply_delta, apply_payload
from repro.delta.instructions import CopyInst, InsertInst, deserialize, serialize
from repro.util.varint import encode_uvarint


class TestApplyDelta:
    def test_empty_delta(self):
        assert apply_delta(b"base", []) == b""

    def test_insert_only(self):
        assert apply_delta(b"", [InsertInst(b"abc")]) == b"abc"

    def test_copy_only(self):
        assert apply_delta(b"0123456789", [CopyInst(2, 4)]) == b"2345"

    def test_interleaved(self):
        delta = [InsertInst(b"<"), CopyInst(0, 3), InsertInst(b">")]
        assert apply_delta(b"ABCDEF", delta) == b"<ABC>"

    def test_copy_past_end_rejected(self):
        with pytest.raises(ValueError):
            apply_delta(b"short", [CopyInst(0, 10)])

    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError):
            apply_delta(b"base", [CopyInst(-1, 2)])

    def test_wrong_instruction_type_rejected(self):
        with pytest.raises(TypeError):
            apply_delta(b"base", ["garbage"])

    def test_copy_at_exact_boundary(self):
        assert apply_delta(b"abc", [CopyInst(0, 3)]) == b"abc"
        assert apply_delta(b"abc", [CopyInst(3, 0)]) == b""


def two_step(base: bytes, payload: bytes) -> bytes:
    return apply_delta(base, deserialize(payload))


def outcome(decode, base: bytes, payload: bytes):
    """The decoded bytes, or ``ValueError`` if that is what was raised."""
    try:
        return decode(base, payload)
    except ValueError:
        return ValueError


class TestApplyPayload:
    def test_empty_payload(self):
        assert apply_payload(b"base", b"") == b""

    def test_interleaved(self):
        payload = serialize([InsertInst(b"<"), CopyInst(0, 3), InsertInst(b">")])
        assert apply_payload(b"ABCDEF", payload) == b"<ABC>"

    def test_returns_bytes_even_for_a_single_copy(self):
        result = apply_payload(b"0123456789", serialize([CopyInst(2, 4)]))
        assert result == b"2345" and type(result) is bytes

    def test_multibyte_varints(self):
        base = bytes(range(256)) * 80
        payload = serialize([CopyInst(300, 17000), InsertInst(b"x" * 200)])
        assert apply_payload(base, payload) == base[300:17300] + b"x" * 200

    @pytest.mark.parametrize(
        "payload, message",
        [
            (b"\x01\x80", "truncated varint"),             # COPY offset cut short
            (b"\x01\x02", "truncated varint"),             # COPY without a length
            (b"\x00", "truncated varint"),                 # INSERT without a length
            (b"\x00\x05abc", "truncated INSERT"),          # INSERT data cut short
            (b"\x02\x00\x00", "unknown delta instruction tag 0x02"),
            (b"\x01\x00\x0a", "outside base"),            # COPY past the end
            (b"\x01\x06\x00", "outside base"),            # COPY starting past the end
        ],
    )
    def test_malformed_payloads_raise_like_the_two_step_path(self, payload, message):
        with pytest.raises(ValueError, match=message):
            apply_payload(b"short", payload)
        with pytest.raises(ValueError, match=message):
            two_step(b"short", payload)

    def test_copy_at_exact_boundary(self):
        assert apply_payload(b"abc", serialize([CopyInst(0, 3)])) == b"abc"
        assert apply_payload(b"abc", serialize([CopyInst(3, 0)])) == b""


BASES = st.binary(min_size=0, max_size=300)

INSTRUCTIONS = st.lists(
    st.one_of(
        st.binary(max_size=40).map(InsertInst),
        # Offsets and lengths beyond any base drawn here, so a share of
        # the COPYs is out of range; 20000 needs a three-byte varint.
        st.builds(CopyInst, st.integers(0, 400), st.integers(0, 400)),
        st.builds(CopyInst, st.integers(0, 20000), st.integers(0, 20000)),
    ),
    max_size=12,
)


@settings(max_examples=200)
@given(BASES, INSTRUCTIONS)
def test_property_payload_direct_equals_two_step(base, insts):
    payload = serialize(insts)
    assert outcome(apply_payload, base, payload) == outcome(two_step, base, payload)


@settings(max_examples=300)
@given(BASES, INSTRUCTIONS, st.data())
def test_property_damaged_payloads_fail_alike(base, insts, data):
    """Truncated or bit-flipped: both raise ``ValueError`` or both return
    the same bytes — never one of each, never another exception."""
    payload = bytearray(serialize(insts))
    if payload and data.draw(st.booleans(), label="truncate"):
        del payload[data.draw(st.integers(0, len(payload) - 1), label="cut") :]
    for _ in range(data.draw(st.integers(0, 3), label="flips")):
        if payload:
            at = data.draw(st.integers(0, len(payload) - 1), label="byte")
            payload[at] ^= 1 << data.draw(st.integers(0, 7), label="bit")
    payload = bytes(payload)
    assert outcome(apply_payload, base, payload) == outcome(two_step, base, payload)


#: A value needing a varint of each width: below 2**7, 2**14, 2**21, 2**28.
VARINT_WIDTHS = {1: 100, 2: 9000, 3: 20000, 4: 2_100_000}


def _base(size: int) -> bytes:
    return bytes(range(251)) * (size // 251 + 1)


def _width_cases():
    """Payloads whose COPY offset, COPY length or INSERT length needs a
    varint of each width, between a small INSERT and a small COPY; each
    with the smallest base it decodes against (> 16 KiB for width 3,
    > 2 MiB for width 4)."""
    cases = []
    for width, value in VARINT_WIDTHS.items():
        for field, inst in (
            ("copy-offset", CopyInst(value, 9)),
            ("copy-length", CopyInst(3, value)),
            ("insert-length", InsertInst(b"i" * value)),
        ):
            payload = serialize([InsertInst(b"<<"), inst, CopyInst(1, 2)])
            needed = inst.offset + inst.length if field != "insert-length" else 3
            cases.append(
                pytest.param(width, value, payload, _base(needed), id=f"{field}-{width}B")
            )
    return cases


@pytest.mark.parametrize("width, value, payload, base", _width_cases())
def test_every_varint_width_decodes_and_truncates_like_the_two_step_path(
    width, value, payload, base
):
    assert len(encode_uvarint(value)) == width
    assert apply_payload(base, payload) == two_step(base, payload)
    # Every proper prefix, through a memoryview so a 2 MiB payload is not
    # copied two million times; both decoders index and slice it alike.
    view = memoryview(payload)
    for cut in range(len(payload)):
        prefix = view[:cut]
        assert outcome(apply_payload, base, prefix) == outcome(two_step, base, prefix), cut

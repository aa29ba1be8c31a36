"""Delta instruction model: wire format, coalescing, sizes."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.delta.instructions import (
    MIN_PROFITABLE_COPY,
    CopyInst,
    InsertInst,
    coalesce,
    deserialize,
    emit_payload,
    encoded_size,
    serialize,
    target_length,
)


class TestSerialization:
    def test_roundtrip_mixed(self):
        delta = [InsertInst(b"hello"), CopyInst(10, 42), InsertInst(b"")]
        # Note: empty INSERT survives serialization (coalesce drops it).
        assert deserialize(serialize(delta)) == delta

    def test_encoded_size_matches_serialize(self):
        delta = [InsertInst(b"x" * 100), CopyInst(1 << 20, 1 << 14)]
        assert encoded_size(delta) == len(serialize(delta))

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            deserialize(b"\x07\x01")

    def test_truncated_insert_rejected(self):
        payload = serialize([InsertInst(b"abcdef")])
        with pytest.raises(ValueError):
            deserialize(payload[:-2])

    def test_non_instruction_rejected(self):
        with pytest.raises(TypeError):
            serialize([b"not an instruction"])

    @given(
        st.lists(
            st.one_of(
                st.binary(max_size=64).map(InsertInst),
                st.tuples(
                    st.integers(0, 1 << 30), st.integers(0, 1 << 20)
                ).map(lambda t: CopyInst(*t)),
            ),
            max_size=30,
        )
    )
    def test_property_roundtrip(self, delta):
        assert deserialize(serialize(delta)) == delta


class TestTargetLength:
    def test_counts_both_kinds(self):
        delta = [InsertInst(b"abc"), CopyInst(0, 7)]
        assert target_length(delta) == 10


class TestCoalesce:
    def test_merges_adjacent_copies(self):
        delta = [CopyInst(0, 10), CopyInst(10, 5)]
        assert coalesce(delta) == [CopyInst(0, 15)]

    def test_non_contiguous_copies_kept(self):
        delta = [CopyInst(0, 10), CopyInst(11, 5)]
        assert coalesce(delta) == delta

    def test_merges_adjacent_inserts(self):
        delta = [InsertInst(b"ab"), InsertInst(b"cd")]
        assert coalesce(delta) == [InsertInst(b"abcd")]

    def test_drops_empty_instructions(self):
        delta = [InsertInst(b""), CopyInst(5, 0), InsertInst(b"x")]
        assert coalesce(delta) == [InsertInst(b"x")]

    def test_demotes_short_copy_with_base(self):
        base = b"0123456789abcdef"
        delta = [CopyInst(2, 3)]
        assert coalesce(delta, base=base) == [InsertInst(b"234")]

    def test_keeps_short_copy_without_base(self):
        delta = [CopyInst(2, 3)]
        assert coalesce(delta, base=None) == delta

    def test_demoted_copy_merges_with_neighbor_insert(self):
        base = b"0123456789"
        delta = [InsertInst(b"A"), CopyInst(0, 2)]
        assert coalesce(delta, base=base) == [InsertInst(b"A01")]

    @given(
        st.binary(min_size=16, max_size=200),
        st.lists(
            st.one_of(
                st.binary(max_size=20).map(InsertInst),
                st.tuples(st.integers(0, 10), st.integers(0, 6)).map(
                    lambda t: CopyInst(*t)
                ),
            ),
            max_size=15,
        ),
    )
    def test_property_coalesce_preserves_target(self, base, delta):
        from repro.delta.decode import apply_delta

        original = apply_delta(base, delta)
        normalized = coalesce(delta, base=base)
        assert apply_delta(base, normalized) == original


#: ``(gap before, length, source shift in periods)`` per COPY; lengths
#: straddle MIN_PROFITABLE_COPY and the one- and two-byte varint limits.
COPY_SPECS = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.sampled_from([0, 1, 5, 7, 8, 9, 40, 127, 128, 200]),
        st.integers(-2, 2),
    ),
    max_size=12,
)


class TestEmitPayload:
    @given(st.integers(1, 9), COPY_SPECS, st.integers(0, 20_000))
    def test_equals_serialize_of_coalesce(self, period, specs, pad):
        """``emit_payload`` is ``serialize(coalesce(...))`` on the same
        COPYs, with demotion (the encoder) and without (the re-encoder)."""
        unit = bytes(range(97, 97 + period))
        target = unit * 400
        base = b"#" * pad + target  # shifts every source offset by ``pad``
        copies, insts, cursor = [], [], 0
        for gap, length, shift in specs:
            t_off = cursor + gap
            if t_off + length > len(target):
                break
            s_off = t_off + shift * period
            if not 0 <= s_off <= len(target) - length:
                s_off = t_off
            if gap:
                insts.append(InsertInst(target[cursor:t_off]))
            insts.append(CopyInst(pad + s_off, length))
            copies.append((pad + s_off, t_off, length))
            cursor = t_off + length
        insts.append(InsertInst(target[cursor:]))
        for min_copy, coalesce_base in ((MIN_PROFITABLE_COPY, base), (1, None)):
            payload = emit_payload(copies, target, min_copy)
            assert payload == serialize(coalesce(insts, base=coalesce_base))

    def test_no_copies_is_one_insert(self):
        assert emit_payload([], b"") == b""
        assert emit_payload([], b"abc") == serialize([InsertInst(b"abc")])
        assert emit_payload([], b"x" * 300) == serialize([InsertInst(b"x" * 300)])

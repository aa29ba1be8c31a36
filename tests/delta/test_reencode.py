"""Delta re-encoding (Algorithm 2): forward → backward transformation."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.delta.dbdelta import DeltaCompressor
from repro.delta.decode import apply_payload
from repro.delta.instructions import CopyInst, InsertInst, serialize
from repro.delta.reencode import delta_reencode
from repro.delta.xdelta import xdelta_compress


class TestReencode:
    def test_roundtrip_on_revision_pair(self, revision_pair):
        source, target = revision_pair
        forward = DeltaCompressor().compress(source, target)
        backward = delta_reencode(source, forward)
        assert apply_payload(target, backward) == source

    def test_roundtrip_on_xdelta_output(self, revision_pair):
        source, target = revision_pair
        forward = serialize(xdelta_compress(source, target))
        backward = delta_reencode(source, forward)
        assert apply_payload(target, backward) == source

    def test_insert_only_forward(self):
        # Unrelated inputs: forward is pure INSERT, backward must be the
        # whole source as literal.
        source = b"the original source bytes"
        forward = serialize([InsertInst(b"completely new")])
        backward = delta_reencode(source, forward)
        assert apply_payload(b"completely new", backward) == source

    def test_identical_records(self, document):
        forward = DeltaCompressor().compress(document, document)
        backward = delta_reencode(document, forward)
        assert apply_payload(document, backward) == document

    def test_backward_size_comparable_to_forward(self, revision_pair):
        source, target = revision_pair
        forward = DeltaCompressor().compress(source, target)
        backward = delta_reencode(source, forward)
        # Both encode roughly the same difference.
        assert len(backward) < len(source) * 0.5

    def test_overlapping_copy_segments_trimmed(self):
        # Two forward copies overlapping in source space: Algorithm 2 must
        # trim, not double-count.
        source = b"ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
        forward = serialize([
            CopyInst(0, 20),  # covers source [0, 20)
            CopyInst(10, 20),  # overlaps [10, 30)
        ])
        target = apply_payload(source, forward)
        backward = delta_reencode(source, forward)
        assert apply_payload(target, backward) == source

    def test_empty_forward(self):
        backward = delta_reencode(b"src", b"")
        assert apply_payload(b"", backward) == b"src"


@settings(max_examples=40, deadline=None)
@given(st.binary(min_size=0, max_size=1500), st.binary(min_size=0, max_size=1500))
def test_property_reencode_inverts(source, target):
    forward = DeltaCompressor(anchor_interval=16).compress(source, target)
    assert apply_payload(source, forward) == target
    backward = delta_reencode(source, forward)
    assert apply_payload(target, backward) == source

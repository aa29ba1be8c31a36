"""Reference (difflib) delta encoder, and quality comparison vs dbDelta."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.delta.dbdelta import DeltaCompressor
from repro.delta.decode import apply_delta
from repro.delta.instructions import encoded_size
from repro.delta.reference import reference_compress


class TestReferenceCompress:
    def test_empty_target(self):
        assert reference_compress(b"src", b"") == []

    def test_empty_source(self):
        delta = reference_compress(b"", b"target")
        assert apply_delta(b"", delta) == b"target"

    def test_roundtrip_on_revision_pair(self, revision_pair):
        source, target = revision_pair
        delta = reference_compress(source, target)
        assert apply_delta(source, delta) == target

    def test_identical_inputs_single_copy(self, document):
        delta = reference_compress(document, document)
        assert apply_delta(document, delta) == document
        assert encoded_size(delta) < 32

    @settings(max_examples=25, deadline=None)
    @given(st.binary(max_size=800), st.binary(max_size=800))
    def test_property_roundtrip(self, source, target):
        delta = reference_compress(source, target)
        assert apply_delta(source, delta) == target


class TestQualityYardstick:
    def test_dbdelta_close_to_reference_on_revisions(self, revision_pair):
        """The anchor-sampled encoder must stay within 2x of the
        reference's delta size on the workload it is designed for."""
        source, target = revision_pair
        reference_size = encoded_size(reference_compress(source, target))
        sampled_size = len(DeltaCompressor(anchor_interval=64).compress(source, target))
        assert sampled_size <= max(reference_size * 2.0, reference_size + 256)

    def test_reference_never_larger_than_insert_everything(self, revision_pair):
        source, target = revision_pair
        delta = reference_compress(source, target)
        assert encoded_size(delta) <= len(target) + 16

"""Anchor-sampled delta compression (Algorithm 1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.delta.dbdelta import DeltaCompressor
from repro.delta.decode import apply_payload
from repro.delta.instructions import encoded_size
from repro.delta.xdelta import xdelta_compress


class TestValidation:
    def test_anchor_interval_power_of_two(self):
        with pytest.raises(ValueError):
            DeltaCompressor(anchor_interval=48)

    def test_window_minimum(self):
        with pytest.raises(ValueError):
            DeltaCompressor(window=2)


class TestCorrectness:
    @pytest.mark.parametrize("interval", [1, 16, 64, 256])
    def test_roundtrip_across_intervals(self, interval, revision_pair):
        source, target = revision_pair
        compressor = DeltaCompressor(anchor_interval=interval)
        delta = compressor.compress(source, target)
        assert apply_payload(source, delta) == target

    def test_empty_target(self):
        assert DeltaCompressor().compress(b"src", b"") == b""

    def test_tiny_inputs_fall_back_to_insert(self):
        compressor = DeltaCompressor()
        delta = compressor.compress(b"ab", b"xyz")
        assert apply_payload(b"ab", delta) == b"xyz"

    def test_unrelated_inputs(self, text_gen):
        source = text_gen.document(3000).encode()
        target = text_gen.document(3000).encode()
        compressor = DeltaCompressor()
        delta = compressor.compress(source, target)
        assert apply_payload(source, delta) == target

    def test_deterministic(self, revision_pair):
        source, target = revision_pair
        compressor = DeltaCompressor()
        assert compressor.compress(source, target) == compressor.compress(
            source, target
        )

    @settings(max_examples=25, deadline=None)
    @given(st.binary(min_size=0, max_size=2000), st.binary(min_size=0, max_size=2000))
    def test_property_roundtrip_arbitrary(self, source, target):
        compressor = DeltaCompressor(anchor_interval=16)
        delta = compressor.compress(source, target)
        assert apply_payload(source, delta) == target


class TestAnchorTradeoff:
    def test_ratio_close_to_xdelta_at_small_interval(self, revision_pair):
        source, target = revision_pair
        xdelta_size = encoded_size(xdelta_compress(source, target))
        anchor_size = len(DeltaCompressor(anchor_interval=16).compress(source, target))
        assert anchor_size <= xdelta_size * 1.5

    def test_larger_interval_never_better_ratio(self, revision_pair):
        # Fewer anchors can only lose matches, not gain them.
        source, target = revision_pair
        fine = len(DeltaCompressor(anchor_interval=16).compress(source, target))
        coarse = len(DeltaCompressor(anchor_interval=256).compress(source, target))
        assert coarse >= fine * 0.9  # allow small noise from match choices

    def test_still_compresses_at_default_interval(self, revision_pair):
        source, target = revision_pair
        delta = DeltaCompressor(anchor_interval=64).compress(source, target)
        assert len(delta) < len(target) * 0.5

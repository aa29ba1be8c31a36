"""Simulated clock semantics."""

import pytest

from repro.sim.clock import SimClock


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_advance(self):
        clock = SimClock()
        assert clock.advance(1.5) == 1.5
        assert clock.now == 1.5

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-0.1)

"""Unit tests for the admission subsystem: estimator, queue, modes."""

from __future__ import annotations

import math

import pytest

from repro.core.admission import (
    DECISION_BYPASS,
    DECISION_DEFER,
    DECISION_INLINE,
    LOCALITY_DEPTH,
    AdmissionController,
)


def make_hybrid(**overrides) -> AdmissionController:
    defaults = dict(mode="hybrid", window=4, inline_yield_threshold=1.2)
    defaults.update(overrides)
    return AdmissionController(**defaults)


class TestYieldEstimator:
    def test_warmup_runs_inline(self):
        controller = make_hybrid()
        assert controller.decide("db") == DECISION_INLINE
        # Even after some observations, no completed window -> inline.
        controller.observe("db", 100, 50)
        assert controller.decide("db") == DECISION_INLINE

    def test_low_yield_window_defers(self):
        controller = make_hybrid()
        for _ in range(4):
            controller.observe("db", 100, 100)  # ratio 1.0 < 1.2
        assert controller.decide("db") == DECISION_DEFER

    def test_high_yield_window_stays_inline(self):
        controller = make_hybrid()
        for _ in range(4):
            controller.observe("db", 100, 25)  # ratio 4.0 >= 1.2
        assert controller.decide("db") == DECISION_INLINE

    def test_locality_lifts_yield_over_the_bar(self):
        # Ratio 1.0 alone defers; locality hits add weight * fraction.
        # The first sketch sees an empty window, so 3 of 4 records hit.
        controller = make_hybrid()
        for _ in range(4):
            controller.observe("db", 100, 100, features=(1, 2, 3))
        assert controller.yield_score("db") == pytest.approx(1.375)
        assert controller.decide("db") == DECISION_INLINE

    def test_locality_fraction_tracks_recent_sketches(self):
        controller = make_hybrid(window=LOCALITY_DEPTH + 10)
        controller.observe("db", 1, 1, features=(0,))
        for feature in range(1, LOCALITY_DEPTH + 1):
            controller.observe("db", 1, 1, features=(feature,))
        # Feature 0 expired from the window before this arrives.
        controller.observe("db", 1, 1, features=(0,))
        assert controller.locality_fraction("db") == pytest.approx(0.0)
        controller.observe("db", 1, 1, features=(0,))
        assert controller.locality_fraction("db") == pytest.approx(
            1 / (LOCALITY_DEPTH + 3)
        )

    def test_zero_byte_window_is_finite(self):
        controller = make_hybrid()
        assert controller.window_ratio("db") == 1.0
        for _ in range(4):
            controller.observe("db", 0, 0)
        assert controller.window_ratio("db") == 1.0
        score = controller.yield_score("db")
        assert score is not None and math.isfinite(score)
        # Zero denominator with non-zero numerator: still finite.
        controller.observe("db", 100, 0)
        assert controller.window_ratio("db") == 1.0
        assert math.isfinite(controller.window_ratio("db"))

    def test_streams_are_independent(self):
        controller = make_hybrid()
        for _ in range(4):
            controller.observe("cold", 100, 100)
            controller.observe("hot", 100, 10)
        assert controller.decide("cold") == DECISION_DEFER
        assert controller.decide("hot") == DECISION_INLINE

    def test_recovering_stream_returns_to_inline(self):
        controller = make_hybrid()
        for _ in range(4):
            controller.observe("db", 100, 100)
        assert controller.decide("db") == DECISION_DEFER
        for _ in range(4):
            controller.observe("db", 100, 10)
        assert controller.decide("db") == DECISION_INLINE


class TestBypass:
    def test_bypass_disabled_by_default(self):
        # Hybrid mode answers inline or defer only: a stream that never
        # dedups defers forever and is never bypassed.
        controller = make_hybrid()
        for _ in range(40):
            controller.observe("db", 100, 100)
        assert controller.is_enabled("db")
        assert controller.decide("db") == DECISION_DEFER


class TestGovernorMode:
    """The governor mode must reproduce the legacy semantics exactly."""

    def test_enabled_by_default(self):
        controller = AdmissionController(mode="governor")
        assert controller.is_enabled("anything")
        assert controller.window_ratio("anything") == 1.0

    def test_keeps_compressing_database(self):
        controller = AdmissionController(mode="governor", window=10)
        for _ in range(25):
            assert controller.observe("good", bytes_in=100, bytes_out=10)
        assert controller.is_enabled("good")

    def test_window_resets_after_healthy_evaluation(self):
        controller = AdmissionController(mode="governor", window=5)
        for _ in range(5):
            controller.observe("db", 100, 10)
        assert controller.window_ratio("db") == 1.0

    def test_databases_isolated(self):
        controller = AdmissionController(mode="governor", window=5)
        for _ in range(5):
            controller.observe("bad", 100, 100)
            controller.observe("good", 100, 10)
        assert not controller.is_enabled("bad")
        assert controller.is_enabled("good")
        assert controller.disabled_databases == {"bad"}

    def test_window_ratio_legacy_convention(self):
        controller = AdmissionController(mode="governor", window=100_000)
        controller.observe("db", 200, 50)
        assert controller.window_ratio("db") == pytest.approx(4.0)

    def test_disables_below_threshold_never_reenables(self):
        controller = AdmissionController(mode="governor", window=3)
        for _ in range(2):
            assert controller.observe("db", 100, 100)
        assert controller.observe("db", 100, 100) is False
        assert not controller.is_enabled("db")
        assert controller.decide("db") == DECISION_BYPASS
        # Healthy traffic afterwards cannot resurrect the stream.
        for _ in range(6):
            assert controller.observe("db", 100, 10) is False
        assert not controller.is_enabled("db")

    def test_exact_threshold_survives(self):
        controller = AdmissionController(mode="governor", window=2)
        controller.observe("db", 110, 100)
        assert controller.observe("db", 110, 100)  # ratio == 1.1, strict <
        assert controller.is_enabled("db")

    def test_never_defers(self):
        controller = AdmissionController(mode="governor", window=2)
        assert not controller.supports_defer
        for _ in range(10):
            controller.observe("db", 100, 10)
        assert controller.decide("db") == DECISION_INLINE


class TestDeferredQueue:
    def test_per_stream_fifo(self):
        controller = make_hybrid()
        controller.defer("a", "a1", b"1")
        controller.defer("b", "b1", b"2")
        controller.defer("a", "a2", b"3")
        assert controller.pending("a") == 2
        assert controller.pending_total == 3
        assert controller.databases_with_pending() == ["a", "b"]
        assert controller.pop_deferred("a") == ("a1", b"1")
        assert controller.pop_deferred("a") == ("a2", b"3")
        assert controller.pop_deferred("a") is None
        assert controller.pending("a") == 0

    def test_global_pop_preserves_per_stream_order(self):
        controller = make_hybrid()
        controller.defer("a", "a1", b"1")
        controller.defer("b", "b1", b"2")
        controller.defer("a", "a2", b"3")
        popped = [controller.pop_oldest() for _ in range(3)]
        assert popped == [
            ("a", "a1", b"1"),
            ("b", "b1", b"2"),
            ("a", "a2", b"3"),
        ]
        assert controller.pop_oldest() is None

    def test_invalidate_discards_and_skips_dead_entries(self):
        controller = make_hybrid()
        controller.defer("a", "a1", b"old")
        controller.defer("a", "a2", b"live")
        assert controller.invalidate("a1") is True
        assert controller.invalidate("a1") is False  # already gone
        assert controller.deferred_discarded_total == 1
        assert controller.pending("a") == 1
        # The dead id is skipped by both pop orders.
        assert controller.pop_deferred("a") == ("a2", b"live")


class DictProvider:
    """Minimal RecordProvider backed by a dict."""

    def __init__(self) -> None:
        self.data: dict[str, bytes] = {}

    def fetch_content(self, record_id: str):
        return self.data.get(record_id)

    def stored_size(self, record_id: str) -> int:
        return len(self.data.get(record_id, b""))


class TestEngineBackpressure:
    """The queue bound force-drains; records are never dropped."""

    def make_engine(self, queue_records: int):
        from repro.core.config import DedupConfig
        from repro.core.engine import DedupEngine

        # window=1: the first record completes a window, and random text
        # dedups at ~1.0 yield, so every later record defers.
        return DedupEngine(
            config=DedupConfig(
                chunk_size=64,
                admission_mode="hybrid",
                governor_window=1,
                admission_queue_records=queue_records,
                size_filter_enabled=False,
            )
        )

    def insert(self, engine, provider, record_id: str, content: bytes):
        provider.data[record_id] = content
        return engine.encode("db", record_id, content, provider)

    def test_bound_forces_drain_of_oldest(self):
        engine = self.make_engine(queue_records=2)
        provider = DictProvider()
        import random

        rng = random.Random(9)
        for i in range(6):
            content = bytes(rng.randrange(256) for _ in range(400))
            result = self.insert(engine, provider, f"r{i}", content)
            assert engine.pending_deferred() <= 2
        assert result.deferred
        # 1 warm-up inline + 5 defers; 2 still queued => 3 force-drained.
        assert engine.admission.deferred_enqueued_total == 5
        assert engine.admission.outofline_records_total == 3
        # Accounting: only pipeline-executed records are "seen" so far.
        assert engine.stats.records_seen == 1 + 3

    def test_drain_deferred_completes_accounting(self):
        engine = self.make_engine(queue_records=100)
        provider = DictProvider()
        import random

        rng = random.Random(9)
        for i in range(6):
            content = bytes(rng.randrange(256) for _ in range(400))
            self.insert(engine, provider, f"r{i}", content)
        assert engine.pending_deferred() == 5
        results = engine.drain_deferred(provider)
        assert len(results) == 5
        assert engine.pending_deferred() == 0
        assert engine.stats.records_seen == 6
        assert engine.stats.records_seen == (
            engine.stats.records_deduped + engine.stats.records_unique
        )


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "nope"},
            {"window": 0},
            {"inline_yield_threshold": 0.0},
            {"max_deferred_records": 0},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            AdmissionController(**kwargs)


"""Stage accounting, drop-reason bookkeeping, and stats memory bounds.

Covers the pipeline instrumentation contract: every early-exit path
increments exactly one drop-reason counter at the stage that dropped the
record, per-stage in/out counters reconcile with ``records_seen``, the
saving-sample reservoir respects its cap, and the engine's insert-order
bookkeeping is pruned on delete and partition teardown.
"""

from __future__ import annotations

import pytest

from repro.core.config import DedupConfig
from repro.core.engine import DedupEngine
from repro.core.pipeline import PipelineObserver
from repro.core.stats import DedupStats
from repro.workloads import make_workload
from repro.workloads.text import TextGenerator


class DictProvider:
    """Minimal RecordProvider backed by a dict."""

    def __init__(self) -> None:
        self.data: dict[str, bytes] = {}

    def fetch_content(self, record_id: str):
        return self.data.get(record_id)

    def stored_size(self, record_id: str) -> int:
        return len(self.data.get(record_id, b""))


def make_engine(**overrides) -> DedupEngine:
    config = DedupConfig(**{"chunk_size": 64, **overrides})
    return DedupEngine(config=config)


def insert(engine, provider, record_id, content, database="db"):
    """Encode one record and make it fetchable for later inserts."""
    result = engine.encode(database, record_id, content, provider)
    provider.data[record_id] = content
    return result


def assert_single_drop(engine, reason, stage):
    """The engine saw one drop: ``reason``, charged to ``stage``."""
    stats = engine.stats
    assert stats.drop_reasons.get(reason) == 1
    assert stats.drops_at_stage(stage) == 1
    total_drops = sum(stats.drop_reasons.values())
    assert total_drops == stats.records_seen - stats.records_deduped


def test_no_candidate_increments_one_reason(document):
    engine = make_engine()
    result = insert(engine, DictProvider(), "r0", document)
    assert not result.deduped
    assert engine.stats.drop_reasons == {"no_candidate": 1}
    assert_single_drop(engine, "no_candidate", "source_select")


def test_governor_bypass_increments_one_reason(document):
    engine = make_engine()
    engine.admission.disabled_databases.add("db")
    result = insert(engine, DictProvider(), "r0", document)
    assert not result.deduped
    assert engine.stats.drop_reasons == {"governor_bypass": 1}
    assert_single_drop(engine, "governor_bypass", "admission_gate")
    # Gated records never reach the sketch stage but always reach the
    # terminal accounting stage.
    assert engine.stats.stage_records_in.get("sketch", 0) == 0
    assert engine.stats.stage_records_in["accounting"] == 1


def test_size_filter_increments_one_reason(document):
    engine = make_engine()
    engine.size_filter._thresholds["db"] = 1 << 30
    result = insert(engine, DictProvider(), "r0", document)
    assert not result.deduped
    assert engine.stats.drop_reasons == {"size_filtered": 1}
    assert_single_drop(engine, "size_filtered", "size_filter_gate")


def test_missing_source_increments_one_reason(revision_pair):
    base, revised = revision_pair
    engine = make_engine()
    provider = DictProvider()
    insert(engine, provider, "base", base)
    # Make the selected source unreachable: not cached, not fetchable.
    engine.source_cache.invalidate("base")
    del provider.data["base"]
    result = engine.encode("db", "rev", revised, provider)
    assert not result.deduped
    assert engine.stats.drop_reasons == {
        "no_candidate": 1,  # the base record itself
        "missing_source": 1,
    }
    assert engine.stats.drops_at_stage("source_select") == 2


def test_weak_delta_increments_one_reason(revision_pair):
    base, revised = revision_pair
    # A delta must be under raw_size * min_savings_ratio to count; an
    # impossible ratio turns every candidate into a weak delta.
    engine = make_engine(min_savings_ratio=1e-9)
    provider = DictProvider()
    insert(engine, provider, "base", base)
    result = insert(engine, provider, "rev", revised)
    assert not result.deduped
    assert engine.stats.drop_reasons == {"no_candidate": 1, "weak_delta": 1}
    assert engine.stats.drops_at_stage("forward_delta") == 1


STAGES = [
    "admission_gate",
    "size_filter_gate",
    "sketch",
    "index_lookup",
    "source_select",
    "forward_delta",
    "writeback_plan",
    "accounting",
]


class RecordingObserver(PipelineObserver):
    """Logs ``(hook, stage, reason or cpu_seconds)`` for one record."""

    def __init__(self, record_id: str) -> None:
        self.record_id = record_id
        self.log: list[tuple] = []

    def on_stage_start(self, stage, ctx) -> None:
        if ctx.record_id == self.record_id:
            self.log.append(("start", stage, None))

    def on_stage_end(self, stage, ctx, cpu_seconds) -> None:
        if ctx.record_id == self.record_id:
            self.log.append(("end", stage, cpu_seconds))

    def on_drop(self, stage, ctx, reason) -> None:
        if ctx.record_id == self.record_id:
            assert ctx.database == "db"
            assert (ctx.drop_stage, ctx.drop_reason) == (stage, reason)
            self.log.append(("drop", stage, reason))


def _force_outcome(outcome, document, revision_pair):
    """Engine + provider whose next insert of ``"rec"`` ends in ``outcome``;
    returns ``(engine, provider, content, source)``."""
    base, revised = revision_pair
    overrides = {"min_savings_ratio": 1e-9} if outcome == "weak_delta" else {}
    engine = make_engine(**overrides)
    provider = DictProvider()
    if outcome == "governor_bypass":
        engine.admission.disabled_databases.add("db")
    elif outcome == "size_filtered":
        engine.size_filter._thresholds["db"] = 1 << 30
    if outcome in ("no_candidate", "governor_bypass", "size_filtered"):
        return engine, provider, document, None
    insert(engine, provider, "base", base)
    if outcome == "missing_source":
        engine.source_cache.invalidate("base")
        del provider.data["base"]
    return engine, provider, revised, base


@pytest.mark.parametrize(
    "outcome",
    ["deduped", "governor_bypass", "size_filtered", "no_candidate",
     "missing_source", "weak_delta"],
)
def test_observer_contract(outcome, document, revision_pair):
    """Attached observers see start, work, ``on_drop`` if the stage dropped
    the record, then end — for each stage the record reaches, with the
    simulated CPU each stage charged; accounting always runs."""
    engine, provider, content, source = _force_outcome(
        outcome, document, revision_pair
    )
    observer = RecordingObserver("rec")
    engine.pipeline.add_observer(observer)
    result = engine.encode("db", "rec", content, provider)
    assert result.deduped == (outcome == "deduped")

    costs = engine.costs
    source_size = len(source or b"")
    cpu = {
        "sketch": len(content) * costs.cpu_chunk_byte_s,
        "forward_delta": (source_size + len(content)) * costs.cpu_delta_byte_s,
        "writeback_plan": source_size * costs.cpu_reencode_byte_s,
    }
    drop_stage = {
        "governor_bypass": "admission_gate",
        "size_filtered": "size_filter_gate",
        "no_candidate": "source_select",
        "missing_source": "source_select",
        "weak_delta": "forward_delta",
    }.get(outcome)
    reached = STAGES[: STAGES.index(drop_stage) + 1] if drop_stage else STAGES[:-1]
    expected = []
    for stage in [*reached, "accounting"]:
        expected.append(("start", stage, None))
        if stage == drop_stage:
            expected.append(("drop", stage, outcome))
        expected.append(("end", stage, pytest.approx(cpu.get(stage, 0.0))))
    assert observer.log == expected


def test_pipeline_stages_are_the_stage_names():
    """``pipeline.stages`` is the eight stage names in execution order."""
    assert list(make_engine().pipeline.stages) == STAGES


def test_stage_counts_reconcile_on_workload():
    workload = make_workload("messageboards", seed=11, target_bytes=80_000)
    engine = make_engine(
        governor_window=40, size_filter_interval=25, saving_sample_cap=64
    )
    provider = DictProvider()
    for op in workload.insert_trace():
        if op.kind != "insert":
            continue
        insert(engine, provider, op.record_id, op.content, database=op.database)

    stats = engine.stats
    stage_names = list(engine.pipeline.stages)
    assert stats.records_seen > 0

    for name in stage_names:
        records_in = stats.stage_records_in.get(name, 0)
        records_out = stats.stage_records_out.get(name, 0)
        assert records_in == records_out + stats.drops_at_stage(name)

    # The first gate and the terminal accounting stage see every record.
    assert stats.stage_records_in["admission_gate"] == stats.records_seen
    assert stats.stage_records_in["accounting"] == stats.records_seen
    assert stats.stage_records_out["accounting"] == stats.records_seen

    # Each stage feeds the next: out[i] == in[i+1] (accounting always runs,
    # so it is excluded from the chain check).
    flowing = stage_names[:-1]
    for upstream, downstream in zip(flowing, flowing[1:]):
        assert stats.stage_records_out.get(upstream, 0) == (
            stats.stage_records_in.get(downstream, 0)
        )

    # Every record either deduped or was dropped for exactly one reason.
    assert (
        sum(stats.drop_reasons.values()) + stats.records_deduped
        == stats.records_seen
    )
    # Simulated CPU was charged to the stages that did the work.
    assert stats.stage_cpu_seconds.get("sketch", 0.0) > 0.0


def test_describe_includes_stage_table(document):
    engine = make_engine()
    insert(engine, DictProvider(), "r0", document)
    rendered = engine.describe()
    assert "encode pipeline stages" in rendered
    assert "admission_gate" in rendered
    assert "no_candidate=1" in rendered


def test_saving_samples_respect_cap():
    stats = DedupStats(saving_sample_cap=10)
    for i in range(1000):
        stats.record_insert(
            raw_size=100 + i, oplog_size=50, ideal_stored=50, deduped=True
        )
    assert len(stats.saving_samples) == 10
    assert stats.saving_samples_seen == 1000
    assert stats.records_seen == 1000
    # Samples are real observations, not placeholders.
    assert all(raw >= 100 and saved == raw - 50 for raw, saved in stats.saving_samples)


def test_saving_samples_unbounded_when_cap_disabled():
    stats = DedupStats(saving_sample_cap=0)
    for i in range(500):
        stats.record_insert(raw_size=100, oplog_size=80, ideal_stored=80, deduped=False)
    assert len(stats.saving_samples) == 500


def test_engine_honours_configured_sample_cap():
    gen = TextGenerator(seed=7)
    engine = make_engine(saving_sample_cap=3)
    provider = DictProvider()
    for i in range(8):
        insert(engine, provider, f"r{i}", gen.document(400).encode())
    assert len(engine.stats.saving_samples) == 3
    assert engine.stats.saving_samples_seen == 8


def test_forget_record_prunes_insert_seq(document):
    engine = make_engine()
    provider = DictProvider()
    insert(engine, provider, "r0", document)
    assert "r0" in engine._insert_seq
    engine.forget_record("db", "r0")
    assert "r0" not in engine._insert_seq
    # Forgetting an unknown record is a no-op, not an error.
    engine.forget_record("db", "missing")


def test_forget_record_does_not_recycle_sequence_numbers(revision_pair):
    base, revised = revision_pair
    engine = make_engine()
    provider = DictProvider()
    insert(engine, provider, "r0", base)
    first_seq = engine._insert_seq["r0"]
    engine.forget_record("db", "r0")
    insert(engine, provider, "r1", revised)
    assert engine._insert_seq["r1"] > first_seq


def test_governor_disable_prunes_partition():
    engine = make_engine(governor_window=3)
    for i in range(2):
        engine.register_insert("dbA", f"a{i}")
    engine.register_insert("dbB", "b0")

    # Three no-savings observations fill dbA's window at ratio 1.0 < 1.1,
    # which disables dedup and must tear the partition's bookkeeping down.
    for _ in range(3):
        engine.observe_admission("dbA", 1000, 1000)
    assert "dbA" in engine.admission.disabled_databases
    assert not any(rid.startswith("a") for rid in engine._insert_seq)
    assert "b0" in engine._insert_seq


@pytest.mark.parametrize("bad_cap", [-5])
def test_negative_cap_behaves_like_unbounded(bad_cap):
    stats = DedupStats(saving_sample_cap=bad_cap)
    for _ in range(50):
        stats.record_insert(raw_size=10, oplog_size=5, ideal_stored=5, deduped=True)
    assert len(stats.saving_samples) == 50


def test_drops_carry_the_stream_label(document):
    engine = make_engine()
    provider = DictProvider()
    insert(engine, provider, "a/1", document, database="tenant_a")
    insert(engine, provider, "b/1", document + b"!", database="tenant_b")
    by_stream = engine.stats.drop_reasons_by_stream
    assert by_stream["tenant_a"] == {"no_candidate": 1}
    assert by_stream["tenant_b"] == {"no_candidate": 1}
    # The folded view is the per-stream sum.
    assert engine.stats.drop_reasons == {"no_candidate": 2}


def test_stream_label_lands_in_the_registry(document):
    engine = make_engine()
    provider = DictProvider()
    insert(engine, provider, "a/1", document, database="tenant_a")
    rows = engine.stats.registry.snapshot()["pipeline_drops_total"]["values"]
    streams = {
        row["labels"]["stream"]
        for row in rows
        if row["labels"]["scope"] == "_total"
    }
    assert streams == {"tenant_a"}


def test_describe_pipeline_breaks_out_streams(document):
    engine = make_engine()
    provider = DictProvider()
    insert(engine, provider, "a/1", document, database="tenant_a")
    insert(engine, provider, "b/1", document + b"?", database="tenant_b")
    text = engine.describe_pipeline()
    assert "drops[tenant_a]" in text
    assert "drops[tenant_b]" in text

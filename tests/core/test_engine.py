"""DedupEngine: the full §3.1 workflow against an in-memory provider."""

import random

import pytest

from repro.core.config import DedupConfig
from repro.core.engine import DedupEngine
from repro.delta.decode import apply_delta
from repro.delta.instructions import deserialize
from repro.workloads.edits import revise
from repro.workloads.text import TextGenerator


class DictProvider:
    """Minimal RecordProvider backed by a dict."""

    def __init__(self) -> None:
        self.data: dict[str, bytes] = {}
        self.fetches = 0

    def fetch_content(self, record_id: str):
        self.fetches += 1
        return self.data.get(record_id)

    def stored_size(self, record_id: str) -> int:
        return len(self.data.get(record_id, b""))


@pytest.fixture()
def provider() -> DictProvider:
    return DictProvider()


def make_engine(**overrides) -> DedupEngine:
    defaults = dict(chunk_size=64, governor_window=100_000,
                    size_filter_enabled=False)
    defaults.update(overrides)
    return DedupEngine(config=DedupConfig(**defaults))


def insert(engine, provider, record_id, content, database="db"):
    result = engine.encode(database, record_id, content, provider)
    provider.data[record_id] = content
    return result


class TestUniquePath:
    def test_first_record_is_unique(self, provider, document):
        engine = make_engine()
        result = insert(engine, provider, "r0", document)
        assert not result.deduped
        assert result.oplog_size == len(document)
        assert result.forward_payload is None
        assert engine.stats.records_unique == 1

    def test_unrelated_records_stay_unique(self, provider, text_gen):
        engine = make_engine()
        for index in range(5):
            content = text_gen.document(2000).encode()
            result = insert(engine, provider, f"r{index}", content)
            assert not result.deduped


class TestDedupPath:
    def test_revision_dedups_against_parent(self, provider, revision_pair):
        source, target = revision_pair
        engine = make_engine()
        insert(engine, provider, "v0", source)
        result = insert(engine, provider, "v1", target)
        assert result.deduped
        assert result.source_id == "v0"
        assert result.oplog_size < len(target) * 0.5

    def test_forward_payload_decodes(self, provider, revision_pair):
        source, target = revision_pair
        engine = make_engine()
        insert(engine, provider, "v0", source)
        result = insert(engine, provider, "v1", target)
        forward = deserialize(result.forward_payload)
        assert apply_delta(source, forward) == target

    def test_writeback_reencodes_source(self, provider, revision_pair):
        source, target = revision_pair
        engine = make_engine(encoding="backward")
        insert(engine, provider, "v0", source)
        result = insert(engine, provider, "v1", target)
        assert len(result.writebacks) == 1
        entry = result.writebacks[0]
        assert entry.record_id == "v0"
        assert entry.base_id == "v1"
        backward = deserialize(entry.payload)
        assert apply_delta(target, backward) == source
        assert entry.space_saving > 0

    def test_chain_of_revisions(self, provider, revision_chain):
        engine = make_engine(encoding="backward")
        deduped = 0
        for index, revision in enumerate(revision_chain):
            result = insert(engine, provider, f"v{index}", revision)
            deduped += int(result.deduped)
        assert deduped >= len(revision_chain) - 2
        assert engine.stats.network_compression_ratio > 3

    def test_forward_mode_produces_no_writebacks(self, provider, revision_pair):
        source, target = revision_pair
        engine = make_engine(encoding="forward")
        insert(engine, provider, "v0", source)
        result = insert(engine, provider, "v1", target)
        assert result.deduped
        assert result.writebacks == ()
        assert result.ideal_stored_delta == len(target)


class TestGovernorIntegration:
    def test_governor_disables_and_drops_index(self, provider, rng):
        engine = make_engine(governor_window=10)
        for index in range(10):
            content = bytes(rng.randrange(256) for _ in range(1000))
            insert(engine, provider, f"r{index}", content, database="noisy")
        assert not engine.admission.is_enabled("noisy")
        assert "noisy" not in engine._indexes
        # Subsequent records bypass.
        result = insert(engine, provider, "r-after", b"x" * 1000, database="noisy")
        assert not result.deduped
        assert engine.stats.records_bypassed == 1

    def test_other_databases_unaffected(self, provider, rng, revision_pair):
        engine = make_engine(governor_window=10)
        for index in range(10):
            content = bytes(rng.randrange(256) for _ in range(500))
            insert(engine, provider, f"n{index}", content, database="noisy")
        source, target = revision_pair
        insert(engine, provider, "v0", source, database="wiki")
        result = insert(engine, provider, "v1", target, database="wiki")
        assert result.deduped


class TestSizeFilterIntegration:
    def test_small_records_bypass_after_learning(self, provider, text_gen):
        engine = make_engine(
            size_filter_enabled=True, size_filter_interval=10
        )
        for index in range(10):
            content = text_gen.document(5000).encode()[:4000]
            insert(engine, provider, f"big{index}", content)
        result = insert(engine, provider, "tiny", b"small")
        assert not result.deduped
        assert engine.stats.records_filtered == 1
        assert engine.size_filter.threshold("db") > len(b"small")


class TestCacheBehaviour:
    def test_source_fetch_prefers_cache(self, provider, revision_pair):
        source, target = revision_pair
        engine = make_engine()
        insert(engine, provider, "v0", source)
        fetches_before = provider.fetches
        insert(engine, provider, "v1", target)
        # v0 was cached on its unique insert; no provider fetch needed.
        assert provider.fetches == fetches_before
        assert engine.stats.source_cache_hits == 1

    def test_cache_miss_falls_back_to_provider(self, provider, revision_pair):
        source, target = revision_pair
        engine = make_engine(source_cache_bytes=1)
        insert(engine, provider, "v0", source)
        result = insert(engine, provider, "v1", target)
        assert result.deduped
        assert not result.source_was_cached
        assert provider.fetches > 0


class TestWeakDeltaRejection:
    def test_barely_similar_records_stay_unique(self, provider, rng):
        # Construct records sharing one chunk but little else.
        shared = bytes(rng.randrange(256) for _ in range(128))
        a = shared + bytes(rng.randrange(256) for _ in range(4000))
        b = bytes(rng.randrange(256) for _ in range(4000)) + shared
        engine = make_engine(min_savings_ratio=0.5)
        insert(engine, provider, "a", a)
        result = insert(engine, provider, "b", b)
        # Either no candidate matched or the delta was too weak; both must
        # leave the record unique.
        assert not result.deduped

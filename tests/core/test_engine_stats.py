"""Per-database engine statistics and the operator summary."""

import random

import pytest

from repro.core.config import DedupConfig
from repro.core.engine import DedupEngine


class DictProvider:
    def __init__(self) -> None:
        self.data: dict[str, bytes] = {}

    def fetch_content(self, record_id: str):
        return self.data.get(record_id)

    def stored_size(self, record_id: str) -> int:
        return len(self.data.get(record_id, b""))


@pytest.fixture()
def engine() -> DedupEngine:
    return DedupEngine(
        config=DedupConfig(chunk_size=64, size_filter_enabled=False,
                    governor_window=100)
    )


def insert(engine, provider, database, record_id, content):
    result = engine.encode(database, record_id, content, provider)
    provider.data[record_id] = content
    return result


class TestPerDatabaseStats:
    def test_databases_tracked_separately(self, engine, revision_pair):
        provider = DictProvider()
        source, target = revision_pair
        insert(engine, provider, "wiki", "w0", source)
        insert(engine, provider, "wiki", "w1", target)
        insert(engine, provider, "mail", "m0", b"unique message " * 30)

        wiki = engine.stats_for("wiki")
        mail = engine.stats_for("mail")
        assert wiki.records_seen == 2
        assert wiki.records_deduped == 1
        assert mail.records_seen == 1
        assert mail.records_deduped == 0

    def test_global_is_sum_of_databases(self, engine, revision_chain):
        provider = DictProvider()
        for index, revision in enumerate(revision_chain[:6]):
            database = "a" if index % 2 == 0 else "b"
            insert(engine, provider, database, f"r{index}", revision)
        total = engine.stats_for("a").records_seen + engine.stats_for("b").records_seen
        assert total == engine.stats.records_seen

    def test_per_db_stats_skip_saving_samples(self, engine):
        provider = DictProvider()
        insert(engine, provider, "db", "r", b"content " * 50)
        assert engine.stats_for("db").saving_samples == []
        assert len(engine.stats.saving_samples) == 1

    def test_bypassed_counted_per_database(self, rng):
        engine = DedupEngine(
            config=DedupConfig(chunk_size=64, size_filter_enabled=False,
                        governor_window=10)
        )
        provider = DictProvider()
        for index in range(12):
            blob = bytes(rng.randrange(256) for _ in range(500))
            insert(engine, provider, "noisy", f"n{index}", blob)
        assert engine.stats_for("noisy").records_bypassed >= 1


class TestDescribe:
    def test_describe_lists_databases(self, engine, revision_pair):
        provider = DictProvider()
        source, target = revision_pair
        insert(engine, provider, "wiki", "w0", source)
        insert(engine, provider, "wiki", "w1", target)
        text = engine.describe()
        assert "wiki" in text
        assert "governor" in text

    def test_describe_shows_disabled_governor(self, rng):
        engine = DedupEngine(
            config=DedupConfig(chunk_size=64, size_filter_enabled=False,
                        governor_window=10)
        )
        provider = DictProvider()
        for index in range(10):
            blob = bytes(rng.randrange(256) for _ in range(500))
            insert(engine, provider, "noisy", f"n{index}", blob)
        assert "OFF" in engine.describe()

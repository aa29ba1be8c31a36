"""Secondary re-encoder: primary/secondary determinism (§4.1)."""

import pytest

from repro.core.config import DedupConfig
from repro.core.engine import DedupEngine
from repro.core.reencoder import SecondaryReencoder


class DictProvider:
    def __init__(self) -> None:
        self.data: dict[str, bytes] = {}

    def fetch_content(self, record_id: str):
        return self.data.get(record_id)

    def stored_size(self, record_id: str) -> int:
        return len(self.data.get(record_id, b""))


@pytest.fixture()
def config() -> DedupConfig:
    return DedupConfig(chunk_size=64, size_filter_enabled=False)


def replicate(config, revisions):
    """Run a revision stream through primary engine + secondary reencoder.

    Returns (primary writeback payload map, secondary writeback payload map,
    secondary reconstructed contents)."""
    engine = DedupEngine(config=config)
    reencoder = SecondaryReencoder(config)
    primary = DictProvider()
    secondary = DictProvider()
    primary_wb: dict[str, bytes] = {}
    secondary_wb: dict[str, bytes] = {}
    contents: dict[str, bytes] = {}

    for index, content in enumerate(revisions):
        record_id = f"v{index}"
        result = engine.encode("db", record_id, content, primary)
        primary.data[record_id] = content
        if result.deduped:
            outcome = reencoder.apply_encoded(
                record_id, result.source_id, result.forward_payload, secondary
            )
            assert outcome is not None
            secondary.data[record_id] = outcome.content
            contents[record_id] = outcome.content
            for entry in result.writebacks:
                primary_wb[entry.record_id] = entry.payload
            for entry in outcome.writebacks:
                secondary_wb[entry.record_id] = entry.payload
        else:
            reencoder.apply_raw(record_id, content)
            secondary.data[record_id] = content
            contents[record_id] = content
    return primary_wb, secondary_wb, contents


class TestDeterminism:
    def test_secondary_reconstructs_contents(self, config, revision_chain):
        _, _, contents = replicate(config, revision_chain)
        for index, content in enumerate(revision_chain):
            assert contents[f"v{index}"] == content

    def test_writebacks_byte_identical(self, config, revision_chain):
        primary_wb, secondary_wb, _ = replicate(config, revision_chain)
        assert primary_wb.keys() == secondary_wb.keys()
        for record_id in primary_wb:
            assert primary_wb[record_id] == secondary_wb[record_id]

    def test_hop_encoding_writebacks_identical(self, revision_chain):
        config = DedupConfig(
            chunk_size=64, size_filter_enabled=False, encoding="hop",
            hop_distance=4,
        )
        primary_wb, secondary_wb, _ = replicate(config, revision_chain)
        assert primary_wb == secondary_wb


class TestFallback:
    def test_missing_base_returns_none(self, config):
        reencoder = SecondaryReencoder(config)
        outcome = reencoder.apply_encoded("v1", "missing-base", b"", DictProvider())
        assert outcome is None
        assert reencoder.decode_failures == 1

    def test_apply_raw_caches_record(self, config, document):
        reencoder = SecondaryReencoder(config)
        outcome = reencoder.apply_raw("r0", document)
        assert outcome.content == document
        assert "r0" in reencoder.planner.source_cache

"""WritebackPlanner: chain plumbing, hop-base caching, fetch fallbacks."""

import pytest

from repro.core.config import DedupConfig
from repro.core.planner import CpuMeter, WritebackPlanner
from repro.delta.decode import apply_payload
from repro.sim.costs import CostModel


class DictProvider:
    def __init__(self) -> None:
        self.data: dict[str, bytes] = {}
        self.fetches: list[str] = []

    def fetch_content(self, record_id: str):
        self.fetches.append(record_id)
        return self.data.get(record_id)

    def stored_size(self, record_id: str) -> int:
        return len(self.data.get(record_id, b""))


def build_chain(planner, provider, contents, ids=None):
    """Feed a revision chain through the planner; returns all writebacks."""
    ids = ids or [f"v{i}" for i in range(len(contents))]
    provider.data[ids[0]] = contents[0]
    planner.source_cache.admit(ids[0], contents[0])
    all_writebacks = []
    for index in range(1, len(contents)):
        source_id, record_id = ids[index - 1], ids[index]
        source = planner.fetch(source_id, provider)
        forward = planner.compressor.compress(source, contents[index])
        writebacks, overlapped = planner.plan(
            record_id, source_id, contents[index], source, forward,
            provider, CpuMeter(CostModel()),
        )
        provider.data[record_id] = contents[index]
        all_writebacks.extend(writebacks)
    return all_writebacks


class TestBackwardPlanning:
    def test_writeback_payloads_decode(self, revision_chain):
        planner = WritebackPlanner(DedupConfig(encoding="backward"))
        provider = DictProvider()
        writebacks = build_chain(planner, provider, revision_chain[:5])
        assert len(writebacks) == 4
        for entry in writebacks:
            base = provider.data[entry.base_id]
            target_index = int(entry.record_id[1:])
            decoded = apply_payload(base, entry.payload)
            assert decoded == revision_chain[target_index]

    def test_forward_mode_plans_nothing(self, revision_chain):
        planner = WritebackPlanner(DedupConfig(encoding="forward"))
        provider = DictProvider()
        assert build_chain(planner, provider, revision_chain[:4]) == []


class TestHopPlanning:
    def test_hop_reencodes_previous_hop_base(self, revision_chain):
        planner = WritebackPlanner(
            DedupConfig(encoding="hop", hop_distance=4)
        )
        provider = DictProvider()
        writebacks = build_chain(planner, provider, revision_chain[:9])
        targets = [(entry.record_id, entry.base_id) for entry in writebacks]
        # Position 4 arrival re-encodes v0 against v4; position 8 arrival
        # re-encodes v4 against v8.
        assert ("v0", "v4") in targets
        assert ("v4", "v8") in targets

    def test_hop_bases_stay_cached_for_their_reencode(self, revision_chain):
        planner = WritebackPlanner(
            DedupConfig(encoding="hop", hop_distance=4)
        )
        provider = DictProvider()
        build_chain(planner, provider, revision_chain[:9])
        # The hop re-encodes of v0 and v4 must have been served from the
        # cache, never from the provider.
        assert "v0" not in provider.fetches
        assert "v4" not in provider.fetches


class TestOverlappedPlanning:
    def test_fork_reencodes_only_source(self, revision_chain):
        planner = WritebackPlanner(DedupConfig(encoding="backward"))
        provider = DictProvider()
        build_chain(planner, provider, revision_chain[:3])  # v0 v1 v2
        # New record picks v0 (mid-chain) as source → overlapped.
        source = planner.fetch("v0", provider)
        forward = planner.compressor.compress(source, revision_chain[4])
        writebacks, overlapped = planner.plan(
            "fork", "v0", revision_chain[4], source, forward,
            provider, CpuMeter(CostModel()),
        )
        assert overlapped
        assert [entry.record_id for entry in writebacks] == ["v0"]
        assert writebacks[0].base_id == "fork"


class TestFetch:
    def test_fetch_miss_returns_none(self):
        planner = WritebackPlanner(DedupConfig())
        assert planner.fetch("ghost", DictProvider()) is None

    def test_fetch_admits_to_cache(self):
        planner = WritebackPlanner(DedupConfig())
        provider = DictProvider()
        provider.data["r"] = b"content"
        assert planner.fetch("r", provider) == b"content"
        assert "r" in planner.source_cache
        # Second fetch hits the cache.
        planner.fetch("r", provider)
        assert provider.fetches == ["r"]

    def test_negative_saving_writebacks_skipped(self):
        # A "source" whose stored form is already tiny: the delta would
        # grow it, so no write-back is planned.
        planner = WritebackPlanner(DedupConfig(encoding="backward"))
        provider = DictProvider()
        provider.data["small"] = b"xy"
        planner.source_cache.admit("small", b"xy")
        forward = planner.compressor.compress(b"xy", b"xy plus more data")
        writebacks, _ = planner.plan(
            "new", "small", b"xy plus more data", b"xy", forward,
            provider, CpuMeter(CostModel()),
        )
        assert writebacks == []

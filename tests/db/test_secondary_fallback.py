"""Secondary decode-failure fallback (§4.1 footnote 4)."""

import pytest

from repro.api import ClusterSpec
from repro.core.config import DedupConfig
from repro.db.node import PrimaryNode, SecondaryNode
from repro.db.oplog import OplogEntry
from repro.sim.clock import SimClock


@pytest.fixture()
def nodes():
    clock = SimClock()
    spec = ClusterSpec(
        dedup=DedupConfig(chunk_size=64, size_filter_enabled=False)
    )
    primary = PrimaryNode(spec, clock=clock)
    secondary = SecondaryNode(spec, clock=clock)
    return primary, secondary


class TestFallback:
    def test_missing_base_falls_back_to_primary(self, nodes, revision_pair):
        primary, secondary = nodes
        source, target = revision_pair
        primary.insert("db", "v0", source)
        primary.insert("db", "v1", target)
        entries = primary.oplog.entries()
        assert entries[1].encoded
        # Deliver only the encoded entry: the secondary lacks its base and
        # must fetch the raw record from the primary instead.
        secondary.apply_batch([entries[1]], primary)
        assert secondary.decode_fallbacks == 1
        content, _ = secondary.db.read("db", "v1")
        assert content == target

    def test_fallback_of_missing_record_is_noop(self, nodes):
        primary, secondary = nodes
        entry = OplogEntry(
            seq=0, timestamp=0.0, op="insert", database="db",
            record_id="ghost", payload=b"\x01\x00\x05", base_id="nowhere",
            encoded=True,
        )
        secondary.apply_batch([entry], primary)
        assert secondary.decode_fallbacks == 1
        assert "ghost" not in secondary.db.records

    def test_normal_path_has_no_fallbacks(self, nodes, revision_chain):
        primary, secondary = nodes
        for index, revision in enumerate(revision_chain):
            primary.insert("db", f"v{index}", revision)
        secondary.apply_batch(primary.oplog.take_unsynced(), primary)
        assert secondary.decode_fallbacks == 0
        for index, revision in enumerate(revision_chain):
            content, _ = secondary.db.read("db", f"v{index}")
            assert content == revision

"""Replication link: batching thresholds and byte accounting."""

import pytest

from repro.api import ClusterSpec
from repro.core.config import DedupConfig
from repro.db.node import PrimaryNode, SecondaryNode
from repro.db.replication import ReplicationLink
from repro.sim.clock import SimClock
from repro.sim.network import SimNetwork


@pytest.fixture()
def link():
    clock = SimClock()
    spec = ClusterSpec(
        dedup=DedupConfig(chunk_size=64, size_filter_enabled=False)
    )
    primary = PrimaryNode(spec, clock=clock)
    secondary = SecondaryNode(spec, clock=clock)
    network = SimNetwork(clock)
    return ReplicationLink(primary, secondary, network, batch_bytes=2000)


class TestBatching:
    def test_invalid_batch_bytes(self, link):
        with pytest.raises(ValueError):
            ReplicationLink(link.primary, link.secondary, link.network, 0)

    def test_below_threshold_no_ship(self, link):
        link.primary.insert("db", "r1", b"x" * 100)
        assert not link.maybe_sync()
        assert link.network.bytes_sent == 0

    def test_threshold_triggers_ship(self, link):
        link.primary.insert("db", "r1", b"x" * 3000)
        assert link.maybe_sync()
        assert link.batches_shipped == 1
        assert "r1" in link.secondary.db.records

    def test_sync_empty_is_noop(self, link):
        assert link.sync() == 0
        assert link.batches_shipped == 0

    def test_network_bytes_match_batch(self, link):
        link.primary.insert("db", "r1", b"y" * 500)
        shipped = link.sync()
        assert shipped == link.network.bytes_sent
        assert shipped >= 500

    def test_forward_encoded_entries_save_bandwidth(self, link, revision_chain):
        for index, revision in enumerate(revision_chain):
            link.primary.insert("db", f"v{index}", revision)
        shipped = link.sync()
        raw_total = sum(len(revision) for revision in revision_chain)
        assert shipped < raw_total / 2
        # Secondary holds every record with correct content.
        for index, revision in enumerate(revision_chain):
            content, _ = link.secondary.db.read("db", f"v{index}")
            assert content == revision

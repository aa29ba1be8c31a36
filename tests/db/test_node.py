"""Primary/secondary node behaviour."""

import pytest

from repro.api import ClusterSpec
from repro.core.config import DedupConfig
from repro.db.node import PrimaryNode
from repro.sim.clock import SimClock


@pytest.fixture()
def primary() -> PrimaryNode:
    return PrimaryNode(
        ClusterSpec(dedup=DedupConfig(chunk_size=64, size_filter_enabled=False)),
        clock=SimClock(),
    )


class TestPrimaryInsert:
    def test_unique_insert_goes_raw_to_oplog(self, primary, document):
        primary.insert("db", "r0", document)
        entries = primary.oplog.entries()
        assert len(entries) == 1
        assert not entries[0].encoded
        assert entries[0].payload == document

    def test_revision_goes_forward_encoded(self, primary, revision_pair):
        source, target = revision_pair
        primary.insert("db", "v0", source)
        primary.insert("db", "v1", target)
        entry = primary.oplog.entries()[1]
        assert entry.encoded
        assert entry.base_id == "v0"
        assert len(entry.payload) < len(target) / 2

    def test_dedup_runs_off_critical_path(self, primary, revision_pair):
        source, target = revision_pair
        first = primary.insert("db", "v0", source)
        second = primary.insert("db", "v1", target)
        # Encode CPU is charged to background, not to client latency:
        # latencies are dominated by identical disk writes.
        assert second < first * 2
        assert primary.background_cpu_seconds > 0

    def test_writebacks_scheduled_not_applied(self, primary, revision_pair):
        source, target = revision_pair
        primary.insert("db", "v0", source)
        primary.insert("db", "v1", target)
        # Disk is busy right after the insert, so the delta waits.
        assert (
            len(primary.db.writeback_cache) >= 1
            or primary.db.writebacks_applied >= 1
        )

    def test_on_idle_flushes(self, primary, revision_pair):
        source, target = revision_pair
        primary.insert("db", "v0", source)
        primary.insert("db", "v1", target)
        primary.clock.advance(60.0)
        primary.on_idle()
        assert len(primary.db.writeback_cache) == 0

    def test_immediate_writeback_mode(self, revision_pair):
        node = PrimaryNode(
            ClusterSpec(
                dedup=DedupConfig(chunk_size=64, size_filter_enabled=False),
                use_writeback_cache=False,
            ),
            clock=SimClock(),
        )
        source, target = revision_pair
        node.insert("db", "v0", source)
        node.insert("db", "v1", target)
        assert node.db.writebacks_applied >= 1
        assert len(node.db.writeback_cache) == 0


class TestPrimaryReadPath:
    def test_read_latest_never_decodes(self, primary, revision_chain):
        for index, revision in enumerate(revision_chain):
            primary.insert("db", f"v{index}", revision)
        primary.clock.advance(60.0)
        primary.on_idle()
        tail = f"v{len(revision_chain) - 1}"
        assert primary.db.decode_cost(tail) == 0

    def test_inline_compression_charges_latency(self, document):
        plain = PrimaryNode(ClusterSpec(dedup_enabled=False), clock=SimClock())
        inline = PrimaryNode(
            ClusterSpec(dedup_enabled=False, block_compression="zlib"),
            clock=SimClock(),
        )
        base = plain.insert("db", "r", document)
        charged = inline.insert("db", "r", document)
        assert charged > base

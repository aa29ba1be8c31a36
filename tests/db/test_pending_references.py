"""Pending base references: the write-back/update race (regression).

Found by the cluster chaos property test: a record serving as the *base*
of a queued (unflushed) backward delta must not be rewritten in place by a
client update, or the delta later decodes against the wrong bytes. Queued
entries therefore hold a pending reference on their base, making client
updates append (§4.1 semantics) until the entry flushes or drops.
"""

import pytest

from repro.core.config import DedupConfig
from repro.api import ClusterSpec, open_cluster
from repro.db.record import RecordForm
from repro.workloads.base import Operation
from repro.workloads.edits import revise
from repro.workloads.text import TextGenerator


@pytest.fixture()
def scenario():
    """Insert v0, derive v1 (write-back for v0 queued, base v1)."""
    import random

    cluster = open_cluster(
        ClusterSpec(dedup=DedupConfig(chunk_size=64, size_filter_enabled=False))
    ).cluster
    rng = random.Random(3)
    text_gen = TextGenerator(seed=3)
    v0 = text_gen.document(4000).encode()
    v1 = revise(rng, text_gen, v0.decode(), num_edits=2).encode()
    cluster.execute(Operation("insert", "db", "v0", v0))
    cluster.execute(Operation("insert", "db", "v1", v1))
    db = cluster.primary.db
    assert "v0" in db.writeback_cache  # delta for v0 pending, base v1
    return cluster, db, v0, v1


class TestPendingReference:
    def test_base_holds_pending_reference(self, scenario):
        _, db, _, _ = scenario
        assert db.records["v1"].ref_count == 1

    def test_update_of_pending_base_appends(self, scenario):
        cluster, db, v0, _ = scenario
        cluster.execute(Operation("update", "db", "v1", b"client rewrite " * 30))
        record = db.records["v1"]
        assert record.pending_updates  # appended, original payload intact
        # Flush the queued delta and decode v0 through the retained payload.
        db.clock.advance(60)
        db.flush_writebacks_if_idle()
        assert db.records["v0"].form is RecordForm.DELTA
        content, _ = db.read("db", "v0")
        assert content == v0
        new_content, _ = db.read("db", "v1")
        assert new_content == b"client rewrite " * 30

    def test_flush_releases_pending_reference(self, scenario):
        _, db, _, _ = scenario
        db.clock.advance(60)
        db.flush_writebacks_if_idle()
        # Pending ref released; durable decode ref remains.
        assert db.records["v1"].ref_count == 1

    def test_drop_releases_pending_reference(self, scenario):
        _, db, _, _ = scenario
        db.writeback_cache.invalidate("v0")
        assert db.records["v1"].ref_count == 0

    def test_superseding_entry_swaps_reference(self, scenario):
        from repro.cache.writeback import WriteBackEntry

        cluster, db, v0, _ = scenario
        # A newer delta for v0 against a different base replaces the old
        # entry; the old base's pending ref moves accordingly.
        db.insert("db", "other-base", b"x" * 100)
        db.schedule_writebacks(
            [WriteBackEntry("v0", "other-base", b"\x00\x00", 10)]
        )
        assert db.records["v1"].ref_count == 0
        assert db.records["other-base"].ref_count == 1

    def test_delete_of_pending_base_defers(self, scenario):
        cluster, db, v0, _ = scenario
        cluster.execute(Operation("delete", "db", "v1"))
        assert db.records["v1"].deleted  # tombstoned, not removed
        db.clock.advance(60)
        db.flush_writebacks_if_idle()
        content, _ = db.read("db", "v0")
        assert content == v0

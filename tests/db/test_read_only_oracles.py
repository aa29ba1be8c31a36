"""The oracles only look: an invariant sweep or a convergence check
leaves the store, its disk and the exported metrics exactly as it found
them."""

from repro.api import ClusterSpec, open_cluster
from repro.cache.writeback import WriteBackEntry
from repro.db.database import Database
from repro.db.invariants import check_database
from repro.delta.dbdelta import DeltaCompressor
from repro.obs.export import metrics_document
from repro.workloads import make_workload


def _stored_state(db: Database):
    return {
        record_id: (
            record.form,
            record.payload,
            record.base_id,
            record.ref_count,
            record.deleted,
        )
        for record_id, record in db.records.items()
    }


def _disk_counters(db: Database):
    disk = db.disk
    return (disk.reads, disk.writes, disk.bytes_read, disk.bytes_written)


def test_check_database_leaves_a_delta_tombstone_in_place():
    # G <- T <- D, T deleted: a client read of D would splice T out.
    db = Database()
    base = b"the quick brown fox jumps over the lazy dog " * 40
    contents = {
        "g": base,
        "t": base + b" tail one",
        "d": base + b" tail one and two",
    }
    for record_id, content in contents.items():
        db.insert("db", record_id, content)
    compressor = DeltaCompressor()
    for record_id, base_id in (("t", "g"), ("d", "t")):
        entry = WriteBackEntry(
            record_id=record_id,
            base_id=base_id,
            payload=compressor.compress(contents[base_id], contents[record_id]),
            space_saving=1,
        )
        db.schedule_writebacks([entry])
        db.drain_writebacks()
    db.delete("t")
    assert db.records["t"].deleted and db.records["d"].base_id == "t"

    state = _stored_state(db)
    disk = _disk_counters(db)
    report = check_database(db)
    assert report.ok, report.summary()
    assert _stored_state(db) == state
    assert db.gc_splices == 0
    assert _disk_counters(db) == disk


def test_convergence_and_invariant_checks_move_no_exported_metric():
    client = open_cluster(ClusterSpec())
    client.run(make_workload("enron", 7, 200_000).mixed_trace())
    cluster = client.cluster
    cluster.finalize()
    before = metrics_document(cluster.registry)
    assert client.replicas_converged()
    assert metrics_document(cluster.registry) == before
    assert client.check_invariants().ok
    assert metrics_document(cluster.registry) == before

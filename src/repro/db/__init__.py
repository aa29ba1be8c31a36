"""Document DBMS substrate: storage, oplog, replication (§4.1, Fig. 8).

A from-scratch stand-in for the MongoDB deployment the paper integrates
with: a record store with page-level block compression, an operation log
shipped in batches to a secondary, and the CRUD semantics dbDedup needs
(reference counts, deferred deletes, append-style updates, GC).
"""

from repro.db.cluster import Cluster, RunResult
from repro.db.database import Database
from repro.db.errors import NodeUnavailableError
from repro.db.failover import (
    FailoverEvent,
    FailoverManager,
    divergence_point,
)
from repro.db.invariants import (
    ClusterInvariantError,
    InvariantReport,
    InvariantViolation,
    check_cluster,
    check_database,
    check_sharded_cluster,
)
from repro.db.node import PrimaryNode, SecondaryNode
from repro.db.oplog import Oplog, OplogEntry
from repro.db.record import RecordForm, StoredRecord
from repro.db.recovery import ReplayReport, replay_oplog
from repro.db.sharding import ShardedCluster, ShardRouter, locality_key
from repro.db.snapshot import load_snapshot, save_snapshot

__all__ = [
    "Cluster",
    "RunResult",
    "Database",
    "PrimaryNode",
    "SecondaryNode",
    "Oplog",
    "OplogEntry",
    "RecordForm",
    "StoredRecord",
    "save_snapshot",
    "load_snapshot",
    "replay_oplog",
    "ReplayReport",
    "check_cluster",
    "check_database",
    "check_sharded_cluster",
    "ShardedCluster",
    "ShardRouter",
    "locality_key",
    "ClusterInvariantError",
    "InvariantReport",
    "InvariantViolation",
    "FailoverEvent",
    "FailoverManager",
    "NodeUnavailableError",
    "divergence_point",
]

"""The one configuration object of a deployment.

:class:`ClusterSpec` is the single frozen, keyword-only description of a
deployment, and it *is* the configuration the running system reads:
:class:`~repro.db.cluster.Cluster`, :class:`~repro.db.sharding.ShardedCluster`,
the failover manager and both node classes take the spec itself — there
is no second per-layer config object to copy it into.
:func:`repro.api.open_cluster` turns it into a single-primary cluster or
a hash-sharded one depending on ``shards``.

The module sits below the rest of :mod:`repro.db` (it imports only the
engine config, the cost table and the compressor factory), and
:mod:`repro.api` re-exports the class — import it from there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compression.block import make_block_compressor
from repro.core.config import DedupConfig
from repro.sim.costs import CostModel

#: Placement strategies :class:`~repro.db.sharding.ShardRouter` understands.
PLACEMENTS = ("hash", "prefix")

#: Default replication batching threshold (bytes of pending oplog).
DEFAULT_BATCH_BYTES = 256 * 1024


@dataclass(frozen=True, kw_only=True)
class ClusterSpec:
    """Frozen, keyword-only description of a deployment — one per bar of
    Fig. 10/12. A bad value fails here, at construction, not at first use.

    Attributes:
        dedup: dbDedup engine parameters (:class:`DedupConfig`), including
            the feature index (``dedup.index``), admission and GC knobs.
        dedup_enabled: False for the "Original"/"Snappy" baselines.
        block_compression: page compressor: 'none', 'snappy', 'zlib'.
            Anything but 'none' also charges compression CPU on the
            primary's write path.
        batch_compression: oplog-batch compressor applied before transfer
            ('none' by default) — the block-level oplog compression §1
            names as what DBMSs do today; composes with forward encoding.
        use_writeback_cache: False for the Fig. 13b ablation (write-backs
            apply immediately instead of through the lossy cache).
        oplog_batch_bytes: replication batching threshold (>= 1).
        page_size: storage page size in bytes (>= 1024).
        insert_batch_size: > 1 coalesces consecutive client inserts into
            batches of this size, admitted via the primary's batch path
            (one request overhead per batch, vectorized sketching). The
            encode outcome per record is identical to per-record inserts.
        num_secondaries: replicas per shard (>= 1).
        read_preference: 'primary' (default) or 'secondary' — route client
            reads to the replicas round-robin. Replication is
            asynchronous, so secondary reads can be stale; missing records
            fall back to the primary.
        physical_storage: use the full slotted-page/buffer-pool engine
            (:mod:`repro.storage`) instead of the accounting page store.
            Slower, physically faithful.
        failover_enabled: automatic promotion of a caught-up secondary
            when the primary stays down (per shard). Default-on is safe —
            the monitor only acts when a node actually stays unavailable,
            which only fault injection causes, and its heartbeat
            observation is passive (no clock, no randomness). False makes
            operations against a dead primary raise
            :class:`~repro.db.errors.NodeUnavailableError`. The
            monitor's timing is fixed in :mod:`repro.db.failover`.
        shards: number of independent shards (1 = plain cluster).
        placement: 'hash' (uniform) or 'prefix' (locality-preserving) —
            see :class:`~repro.db.sharding.ShardRouter`.
        costs: the simulated cost table (:class:`CostModel`).
        trace: enable sim-clock span tracing.
        sample_every_s: sampler cadence in simulated seconds.
        sample_every_ops: sampler cadence in client operations.
    """

    dedup: DedupConfig = field(default_factory=DedupConfig)
    dedup_enabled: bool = True
    block_compression: str = "none"
    batch_compression: str = "none"
    use_writeback_cache: bool = True
    oplog_batch_bytes: int = DEFAULT_BATCH_BYTES
    page_size: int = 32 * 1024
    insert_batch_size: int = 1
    num_secondaries: int = 1
    read_preference: str = "primary"
    physical_storage: bool = False
    failover_enabled: bool = True
    shards: int = 1
    placement: str = "hash"
    costs: CostModel = field(default_factory=CostModel)
    trace: bool = False
    sample_every_s: float | None = None
    sample_every_ops: int | None = None

    def __post_init__(self) -> None:
        # The factory is the one list of compressor names: an unknown
        # name raises its ValueError here.
        make_block_compressor(self.block_compression)
        make_block_compressor(self.batch_compression)
        if self.oplog_batch_bytes < 1:
            raise ValueError(
                f"oplog_batch_bytes must be >= 1, got {self.oplog_batch_bytes}"
            )
        if self.page_size < 1024:
            raise ValueError(
                f"page_size must be >= 1024, got {self.page_size}"
            )
        if self.insert_batch_size < 1:
            raise ValueError(
                f"insert_batch_size must be >= 1, got {self.insert_batch_size}"
            )
        if self.num_secondaries < 1:
            raise ValueError(
                f"num_secondaries must be >= 1, got {self.num_secondaries}"
            )
        if self.read_preference not in ("primary", "secondary"):
            raise ValueError(
                f"read_preference must be 'primary' or 'secondary', got "
                f"{self.read_preference!r}"
            )
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.placement not in PLACEMENTS:
            raise ValueError(
                f"placement must be one of {PLACEMENTS}, "
                f"got {self.placement!r}"
            )

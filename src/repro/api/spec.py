"""The one configuration object the public API accepts.

Before the API redesign, deployment knobs were duplicated across three
constructor signatures (``Cluster``, ``PrimaryNode``, ``DedupEngine``)
and every caller re-wired them by hand. :class:`ClusterSpec` is the
single consolidated, frozen, keyword-only description of a deployment;
:func:`repro.api.open_cluster` turns it into a running single-primary
:class:`~repro.db.cluster.Cluster` or hash-sharded
:class:`~repro.db.sharding.ShardedCluster` depending on ``shards``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.config import DedupConfig
from repro.db.cluster import ClusterConfig
from repro.index.spec import IndexSpec
from repro.db.failover import (
    DEFAULT_FAILOVER_TIMEOUT_S,
    DEFAULT_HEARTBEAT_INTERVAL_S,
    DEFAULT_REJOIN_DELAY_S,
)
from repro.db.replication import DEFAULT_BATCH_BYTES
from repro.db.sharding import PLACEMENTS
from repro.sim.costs import CostModel


@dataclass(frozen=True, kw_only=True)
class ClusterSpec:
    """Frozen, keyword-only description of a deployment.

    Deployment-shape fields mirror
    :class:`~repro.db.cluster.ClusterConfig` one-to-one (see that class
    for semantics); the spec adds the topology axis (``shards``,
    ``placement``), the cost model, and the observability knobs that
    previously rode as loose constructor kwargs.

    Attributes:
        dedup: dbDedup engine parameters (defaults to :class:`DedupConfig`).
        dedup_enabled: False for the no-dedup baselines.
        index: the feature-index description
            (:class:`~repro.index.spec.IndexSpec`): kind (``"cuckoo"``
            or ``"tiered"``), geometry, and the tiered memory knobs
            (``hot_bytes_budget`` / ``cold_fpp`` / ``promotion_hits``).
            None keeps ``dedup``'s index configuration (which itself
            defaults to an unbounded cuckoo index). This is the
            sanctioned way to configure the index — the flat
            ``DedupConfig`` knobs it replaces are deprecated.
        admission_mode: convenience override of
            ``dedup.admission_mode`` — ``"inline"``, ``"hybrid"`` or
            ``"governor"``; None keeps the dedup config's value.
        admission_inline_threshold: override of
            ``dedup.admission_inline_threshold`` (hybrid yield score at
            or above which a stream dedups inline).
        admission_bypass_threshold: override of
            ``dedup.admission_bypass_threshold`` (``<= 0`` disables
            permanent bypass in hybrid mode).
        admission_queue_records: override of
            ``dedup.admission_queue_records`` (deferred-queue bound).
        gc_enabled: convenience override of ``dedup.gc_enabled`` —
            True runs the online garbage collector during idle slices;
            None keeps the dedup config's value (off by default).
        gc_reclaim_threshold_bytes: override of
            ``dedup.gc_reclaim_threshold_bytes`` (reclaimable-bytes
            gate before an idle slice runs a GC batch).
        gc_max_batch_records: override of
            ``dedup.gc_max_batch_records`` (re-encodes per GC batch).
        block_compression: page compressor: 'none', 'snappy', 'zlib'.
        batch_compression: oplog-batch compressor before transfer.
        use_writeback_cache: False disables the encode write-back cache.
        oplog_batch_bytes: replication batching threshold.
        page_size: storage page size in bytes.
        insert_batch_size: client insert coalescing factor (>= 1).
        num_secondaries: replicas per shard (>= 1).
        read_preference: 'primary' or 'secondary'.
        physical_storage: use the slotted-page/buffer-pool engine.
        failover_enabled: automatic promotion of a caught-up secondary
            when the primary dies (per shard). False restores the old
            behavior: operations against a dead primary raise
            :class:`~repro.db.errors.NodeUnavailableError`.
        heartbeat_interval_s: how often the failover monitor samples
            node health (simulated seconds).
        failover_timeout_s: how long the primary must stay unresponsive
            before a secondary is promoted.
        rejoin_delay_s: grace period before a revived old primary is
            rolled back and re-admitted as a secondary.
        shards: number of independent shards (1 = plain cluster).
        placement: 'hash' (uniform) or 'prefix' (locality-preserving) —
            see :class:`~repro.db.sharding.ShardRouter`.
        costs: cost model (defaults to :class:`CostModel`).
        trace: enable sim-clock span tracing.
        sample_every_s: sampler cadence in simulated seconds.
        sample_every_ops: sampler cadence in client operations.
    """

    dedup: DedupConfig = field(default_factory=DedupConfig)
    dedup_enabled: bool = True
    index: IndexSpec | None = None
    admission_mode: str | None = None
    admission_inline_threshold: float | None = None
    admission_bypass_threshold: float | None = None
    admission_queue_records: int | None = None
    gc_enabled: bool | None = None
    gc_reclaim_threshold_bytes: int | None = None
    gc_max_batch_records: int | None = None
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
    heartbeat_interval_s: float = DEFAULT_HEARTBEAT_INTERVAL_S
    failover_timeout_s: float = DEFAULT_FAILOVER_TIMEOUT_S
    rejoin_delay_s: float = DEFAULT_REJOIN_DELAY_S
    shards: int = 1
    placement: str = "hash"
    costs: CostModel | None = None
    trace: bool = False
    sample_every_s: float | None = None
    sample_every_ops: int | None = None

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.placement not in PLACEMENTS:
            raise ValueError(
                f"placement must be one of {PLACEMENTS}, "
                f"got {self.placement!r}"
            )
        # Delegate the per-shard validation (batch size, secondaries,
        # read preference) to ClusterConfig so a bad spec fails at
        # construction, not first use.
        self.to_cluster_config()

    def to_cluster_config(self) -> ClusterConfig:
        """The per-shard :class:`ClusterConfig` this spec describes."""
        overrides = {
            name: value
            for name, value in (
                ("admission_mode", self.admission_mode),
                ("admission_inline_threshold", self.admission_inline_threshold),
                ("admission_bypass_threshold", self.admission_bypass_threshold),
                ("admission_queue_records", self.admission_queue_records),
                ("gc_enabled", self.gc_enabled),
                ("gc_reclaim_threshold_bytes", self.gc_reclaim_threshold_bytes),
                ("gc_max_batch_records", self.gc_max_batch_records),
                ("index", self.index),
            )
            if value is not None
        }
        dedup = replace(self.dedup, **overrides) if overrides else self.dedup
        return ClusterConfig(
            dedup=dedup,
            dedup_enabled=self.dedup_enabled,
            block_compression=self.block_compression,
            batch_compression=self.batch_compression,
            use_writeback_cache=self.use_writeback_cache,
            oplog_batch_bytes=self.oplog_batch_bytes,
            page_size=self.page_size,
            insert_batch_size=self.insert_batch_size,
            num_secondaries=self.num_secondaries,
            read_preference=self.read_preference,
            physical_storage=self.physical_storage,
            failover_enabled=self.failover_enabled,
            heartbeat_interval_s=self.heartbeat_interval_s,
            failover_timeout_s=self.failover_timeout_s,
            rejoin_delay_s=self.rejoin_delay_s,
        )

"""Automatic replica-set failover: detection, election, rollback, resync.

dbDedup rides its host DBMS's replica sets (§4.1 runs on MongoDB), and a
replica set is only worth the name if it survives losing its primary.
This module adds that machinery to the simulated cluster:

* **detection** — a passive heartbeat monitor on the *simulated* clock.
  :meth:`FailoverManager.tick` runs after client operations and idle
  slices; it never advances time and never consumes randomness, so a
  fault-free run with failover enabled is bit-identical to one without.
  A primary that stays unavailable for ``failover_timeout_s`` is
  declared dead.
* **election** — the most-caught-up available secondary wins (highest
  local oplog head; ties break to the lowest replica index), the same
  rule MongoDB's priority-equal elections reduce to.
* **promotion** — the winner keeps its store and local oplog and becomes
  the new primary via :meth:`PrimaryNode.from_secondary
  <repro.db.node.PrimaryNode.from_secondary>`. Its dedup feature index
  is rebuilt *deferred/incrementally* (a slice per insert, more when
  idle) — recovery work moved off the critical path, the hybrid
  inline/out-of-line idea: until the backlog drains, new writes miss
  dedup opportunities, costing compression but never bytes.
* **divergence rollback** — when the old primary rejoins, its log and
  the new primary's are compared seq-by-seq via per-entry checksums;
  everything from the first mismatch (or the shorter head) onward is an
  unreplicated suffix the rest of the set never acknowledged. It is
  truncated, and the node rebuilds its store by replaying the retained
  prefix — the lost-write window every asynchronous-replication system
  accepts, made explicit and counted.
* **catch-up resync** — the rejoined (or lagging) replica's new
  :class:`~repro.db.replication.ReplicationLink` is seeked to the
  divergence point and ordinary at-least-once shipping replays the new
  primary's history from there. No bespoke transfer path: resync *is*
  replication.

:class:`ShardedCluster <repro.db.sharding.ShardedCluster>` needs nothing
special — each shard owns a manager and fails over independently.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.db.node import PrimaryNode, SecondaryNode
from repro.db.oplog import Oplog

#: Sync rounds attempted during an immediate catch-up resync; leftovers
#: (possible only under delivery-fault injection) drain at finalize.
RESYNC_ROUNDS = 8


def divergence_point(local: Oplog, authority: Oplog) -> int | None:
    """First seq where ``local`` stops agreeing with ``authority``.

    Compares per-entry checksums over the seq range both logs retain.
    Returns the seq the local node must roll back to (== its own head
    when the logs agree and it is merely behind), or None when the logs
    have no comparable overlap (one was checkpoint-truncated past the
    other's head) — the node then needs a snapshot, not a resync.
    """
    start = max(local.truncated_before, authority.truncated_before)
    limit = min(local.next_seq, authority.next_seq)
    if local.next_seq < authority.truncated_before:
        return None  # authority cannot even ship from local's head
    for seq in range(start, limit):
        ours = local.entry_at(seq)
        theirs = authority.entry_at(seq)
        if ours is None or theirs is None or ours.checksum != theirs.checksum:
            return seq
    return limit


@dataclass(frozen=True)
class FailoverEvent:
    """One entry of the failover event log (the chaos-CI artifact).

    Attributes:
        kind: ``promote``, ``rejoin``, ``rejoin-blocked``, ``restart``,
            or ``rollback``.
        at_s: simulated time the event completed.
        node: the node acted on (stable node name).
        detail: human-readable summary.
        time_to_promote_s: outage span, on ``promote`` events.
        divergence_seq: agreed log prefix end, on rollback/rejoin events.
        rolled_back: oplog entries dropped, on rollback/rejoin events.
        rolled_back_inserts: record ids of dropped *insert* entries —
            what the rollback-completeness invariant audits for zombies.
        resync_bytes: catch-up wire bytes shipped, on rejoin events.
    """

    kind: str
    at_s: float
    node: str
    detail: str = ""
    time_to_promote_s: float | None = None
    divergence_seq: int | None = None
    rolled_back: int = 0
    rolled_back_inserts: tuple[str, ...] = ()
    resync_bytes: int = 0

    def to_line(self) -> str:
        """One log line, stable enough to diff across seeded runs."""
        parts = [f"t={self.at_s:.4f}", self.kind, f"node={self.node}"]
        if self.time_to_promote_s is not None:
            parts.append(f"time_to_promote_s={self.time_to_promote_s:.4f}")
        if self.divergence_seq is not None:
            parts.append(f"divergence_seq={self.divergence_seq}")
        if self.rolled_back:
            parts.append(f"rolled_back={self.rolled_back}")
        if self.resync_bytes:
            parts.append(f"resync_bytes={self.resync_bytes}")
        if self.detail:
            parts.append(f"({self.detail})")
        return " ".join(parts)


class FailoverManager:
    """Heartbeat monitor + election + promotion driver for one cluster.

    Owned by :class:`~repro.db.cluster.Cluster`; the cluster calls
    :meth:`tick` from its operation hooks and :meth:`settle` at the top
    of ``finalize()`` so invariant sweeps always see a completed
    topology (promotion done, rejoin done, index backlog drained). The
    knobs (``failover_enabled``, ``heartbeat_interval_s``,
    ``failover_timeout_s``, ``rejoin_delay_s``) are read from the
    cluster's :class:`~repro.db.spec.ClusterSpec`, which validated them.
    """

    def __init__(self, cluster) -> None:
        self.cluster = cluster
        self.config = cluster.config
        self.events: list[FailoverEvent] = []
        #: Promotions performed (``failovers_total``).
        self.failovers = 0
        #: Oplog entries dropped by divergence rollbacks.
        self.rollback_entries = 0
        #: Catch-up wire bytes shipped through rejoin resyncs.
        self.resync_bytes = 0
        #: Downed secondaries revived by the supervisor.
        self.supervised_restarts = 0
        #: Client operations that had to wait out a promotion.
        self.stalled_ops = 0
        self.last_time_to_promote_s: float | None = None
        #: Demoted old primary waiting out ``rejoin_delay_s``.
        self.awaiting_rejoin: PrimaryNode | None = None
        self._rejoin_due_s: float | None = None
        self._primary_down_at: float | None = None
        self._secondary_down_at: dict[str, float] = {}
        self._last_tick_s = float("-inf")

    # -- heartbeat loop ------------------------------------------------------

    def tick(self) -> None:
        """One passive heartbeat observation (safe to call every op).

        Reads the simulated clock but never advances it, and uses no
        randomness — a fault-free run is byte-identical with or without
        failover enabled. At most one observation per
        ``heartbeat_interval_s`` does any work.
        """
        if not self.config.failover_enabled:
            return
        now = self.cluster.clock.now
        if now - self._last_tick_s < self.config.heartbeat_interval_s:
            return
        self._last_tick_s = now
        self._observe_secondaries(now)
        self._observe_primary(now)
        if (
            self.awaiting_rejoin is not None
            and self._rejoin_due_s is not None
            and now >= self._rejoin_due_s
        ):
            self._rejoin(now)

    def settle(self) -> None:
        """Force-complete every pending transition (finalize-time).

        Revives downed secondaries, promotes immediately if the primary
        is dead, performs any pending rejoin without waiting out the
        delay, and drains the promoted node's index backlog — so drains,
        invariant sweeps and convergence checks operate on a quiescent,
        fully-formed replica set.
        """
        if not self.config.failover_enabled:
            return
        now = self.cluster.clock.now
        for secondary in list(self.cluster.secondaries):
            if not secondary.is_available:
                self._restart_secondary(secondary, now)
        if not self.cluster.primary.is_available:
            self._promote(now)
        if self.awaiting_rejoin is not None:
            self._rejoin(now)
        primary = self.cluster.primary
        if primary.is_available and hasattr(primary, "drain_index_backlog"):
            primary.drain_index_backlog()

    def event_log(self) -> str:
        """The failover event log as text (uploaded by chaos CI)."""
        return "\n".join(event.to_line() for event in self.events)

    # -- observation ---------------------------------------------------------

    def _observe_primary(self, now: float) -> None:
        if self.cluster.primary.is_available:
            self._primary_down_at = None
            return
        if self._primary_down_at is None:
            self._primary_down_at = now
            return
        if now - self._primary_down_at >= self.config.failover_timeout_s:
            self._promote(now)

    def _observe_secondaries(self, now: float) -> None:
        for secondary in list(self.cluster.secondaries):
            name = secondary.node_name
            if secondary.is_available:
                self._secondary_down_at.pop(name, None)
                continue
            down_at = self._secondary_down_at.setdefault(name, now)
            if now - down_at >= self.config.failover_timeout_s:
                self._restart_secondary(secondary, now)

    def _restart_secondary(self, secondary: SecondaryNode, now: float) -> None:
        """Supervised revival: replay the replica's local log in place."""
        secondary.restart()
        self.supervised_restarts += 1
        self._secondary_down_at.pop(secondary.node_name, None)
        self.events.append(
            FailoverEvent(
                kind="restart",
                at_s=now,
                node=secondary.node_name,
                detail="supervised secondary restart from local oplog",
            )
        )

    # -- promotion -----------------------------------------------------------

    def _promote(self, now: float) -> bool:
        """Elect and promote the most-caught-up available secondary."""
        cluster = self.cluster
        candidates = [
            (index, secondary)
            for index, secondary in enumerate(cluster.secondaries)
            if secondary.is_available
        ]
        if not candidates:
            return False  # nothing to elect yet; supervisor may revive one
        index, winner = max(
            candidates, key=lambda pair: (pair[1].oplog.next_seq, -pair[0])
        )
        old = cluster.primary
        outage = now - self._primary_down_at if self._primary_down_at else 0.0
        with cluster.tracer.span(
            "failover", old=old.node_name, new=winner.node_name
        ):
            cluster.secondaries.pop(index)
            cluster.links.pop(index)
            new_primary = PrimaryNode.from_secondary(winner)
            cluster.primary = new_primary
            cluster.links = [
                self._relink(secondary, now)
                for secondary in cluster.secondaries
            ]
        self.failovers += 1
        self.last_time_to_promote_s = outage
        self._primary_down_at = None
        self.awaiting_rejoin = old
        self._rejoin_due_s = now + self.config.rejoin_delay_s
        self.events.append(
            FailoverEvent(
                kind="promote",
                at_s=now,
                node=winner.node_name,
                detail=(
                    f"replaces {old.node_name}; deferred index backlog="
                    f"{getattr(new_primary, 'index_backlog_len', 0)}"
                ),
                time_to_promote_s=outage,
            )
        )
        return True

    def _relink(self, secondary: SecondaryNode, now: float):
        """Point one surviving secondary at the new primary.

        The common case is a clean prefix (the secondary simply lags):
        its new link starts at its own head and catch-up is plain
        shipping. A checksum mismatch means this replica applied history
        the winner never had (decode-fallback skew or reordering) — it
        rolls back to the agreed prefix first, same routine as a
        rejoining old primary.
        """
        cluster = self.cluster
        primary = cluster.primary
        point = divergence_point(secondary.oplog, primary.oplog)
        if point is None:  # pragma: no cover — live replicas never truncate
            point = min(secondary.oplog.next_seq, primary.oplog.next_seq)
        if point < secondary.oplog.next_seq:
            with cluster.tracer.span("rollback", node=secondary.node_name):
                dropped = secondary.rollback_to(point)
            self.rollback_entries += len(dropped)
            self.events.append(
                FailoverEvent(
                    kind="rollback",
                    at_s=now,
                    node=secondary.node_name,
                    detail="divergent replica realigned to new primary",
                    divergence_seq=point,
                    rolled_back=len(dropped),
                    rolled_back_inserts=tuple(
                        entry.record_id
                        for entry in dropped
                        if entry.op == "insert"
                    ),
                )
            )
        link = cluster._make_link(secondary)
        link.seek(point)
        return link

    # -- rejoin --------------------------------------------------------------

    def _rejoin(self, now: float) -> bool:
        """Bring the demoted old primary back as a rolled-back secondary."""
        old = self.awaiting_rejoin
        if old is None:
            return False
        cluster = self.cluster
        primary = cluster.primary
        point = (
            divergence_point(old.oplog, primary.oplog)
            if old.oplog.truncated_before == 0
            else None
        )
        if point is None:
            # The documented restart()/rejoin contract: history truncated
            # at a checkpoint cannot be rebuilt from the log alone — the
            # node stays out until re-seeded from a checkpoint snapshot.
            self.awaiting_rejoin = None
            self._rejoin_due_s = None
            self.events.append(
                FailoverEvent(
                    kind="rejoin-blocked",
                    at_s=now,
                    node=old.node_name,
                    detail=(
                        "oplog truncated at a checkpoint; rejoin needs "
                        "the checkpoint snapshot"
                    ),
                )
            )
            return False
        old_head = old.oplog.next_seq
        with cluster.tracer.span("failover", phase="rejoin", node=old.node_name):
            with cluster.tracer.span("rollback", node=old.node_name):
                dropped = old.oplog.truncate_from(point)
                rejoined = SecondaryNode.from_demoted_primary(old)
            self.rollback_entries += len(dropped)
            cluster.secondaries.append(rejoined)
            link = cluster._make_link(rejoined)
            link.seek(point)
            cluster.links.append(link)
            resync = 0
            with cluster.tracer.span("resync", node=rejoined.node_name):
                for _ in range(RESYNC_ROUNDS):
                    resync += link.sync()
                    if link.cursor >= primary.oplog.next_seq:
                        break
            self.resync_bytes += resync
        self.awaiting_rejoin = None
        self._rejoin_due_s = None
        self.events.append(
            FailoverEvent(
                kind="rejoin",
                at_s=now,
                node=rejoined.node_name,
                detail=(
                    f"rolled back unreplicated suffix "
                    f"[{point}, {old_head}) and resynced"
                ),
                divergence_seq=point,
                rolled_back=len(dropped),
                rolled_back_inserts=tuple(
                    entry.record_id for entry in dropped if entry.op == "insert"
                ),
                resync_bytes=resync,
            )
        )
        return True


__all__ = ["FailoverEvent", "FailoverManager", "divergence_point"]

"""Replication link: ships oplog batches from primary to secondary (§4.1).

"When the size of unsynchronized oplog entries reaches a threshold, the
primary sends them in a batch to the secondary node." The link owns that
threshold and the network accounting Fig. 11 is measured from.
"""

from __future__ import annotations

from repro.compression.block import BlockCompressor
from repro.db.node import PrimaryNode, SecondaryNode
from repro.db.spec import DEFAULT_BATCH_BYTES
from repro.obs.tracing import NULL_TRACER, Tracer
from repro.sim.faults import DeliveryFault
from repro.sim.network import SimNetwork

#: Delivery attempts per sync before giving up and leaving the batch
#: pending (it is resent by the next sync — the cursor only advances on
#: confirmed delivery, so shipping is at-least-once and loss-free).
DEFAULT_MAX_ATTEMPTS = 5

#: Base backoff between delivery retries; doubles per attempt.
DEFAULT_RETRY_BACKOFF_S = 0.01


class ReplicationLink:
    """Asynchronous primary→secondary oplog shipping.

    An optional ``batch_compressor`` block-compresses each batch before it
    crosses the wire — the oplog-message compression today's DBMSs already
    do (§1), which the ablation benches compare and compose with dbDedup's
    forward encoding.
    """

    def __init__(
        self,
        primary: PrimaryNode,
        secondary: SecondaryNode,
        network: SimNetwork,
        batch_bytes: int = DEFAULT_BATCH_BYTES,
        batch_compressor: BlockCompressor | None = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        retry_backoff_s: float = DEFAULT_RETRY_BACKOFF_S,
        tracer: Tracer | None = None,
    ) -> None:
        if batch_bytes < 1:
            raise ValueError(f"batch_bytes must be >= 1, got {batch_bytes}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.primary = primary
        self.secondary = secondary
        self.network = network
        self.batch_bytes = batch_bytes
        self.batch_compressor = batch_compressor
        self.max_attempts = max_attempts
        self.retry_backoff_s = retry_backoff_s
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.batches_shipped = 0
        #: Wire bytes before batch compression (what dedup alone achieves).
        self.uncompressed_bytes = 0
        #: Delivery attempts that failed (each is retried or resent).
        self.delivery_failures = 0
        #: Syncs that exhausted their attempts; the batch stayed pending.
        self.failed_syncs = 0
        #: Successful syncs that had to resend after a failed one.
        self.resends = 0
        self._last_sync_failed = False
        # Per-link oplog cursor: several links can fan the same log out to
        # several secondaries independently.
        self._cursor = 0

    @property
    def cursor(self) -> int:
        """Absolute oplog seq this link has shipped up to (exclusive)."""
        return self._cursor

    def seek(self, cursor: int) -> None:
        """Position the cursor explicitly (failover resync / re-link).

        A promoted primary rebuilds its links with each one's cursor at
        the divergence point agreed with that secondary, so catch-up
        reuses the ordinary at-least-once shipping path from there.
        """
        if cursor < 0:
            raise ValueError(f"cursor must be >= 0, got {cursor}")
        self._cursor = cursor

    def maybe_sync(self) -> bool:
        """Ship a batch if enough unsynchronized oplog has accumulated."""
        if self.primary.oplog.bytes_since(self._cursor) < self.batch_bytes:
            return False
        self.sync()
        return True

    def sync(self) -> int:
        """Ship everything pending; returns the batch's delivered wire bytes.

        Delivery is retried with exponential backoff when the network
        drops the message (fault injection). The cursor advances only
        after confirmed delivery, so a batch that exhausts its attempts
        simply stays pending and is resent wholesale by the next sync —
        at-least-once shipping, never data loss. A crashed secondary is
        never shipped to: the batch stays pending (cursor untouched)
        until the node restarts or failover replaces the link.
        """
        if not getattr(self.secondary, "is_available", True):
            return 0
        batch = self.primary.oplog.entries_since(self._cursor)
        if not batch:
            return 0
        raw_bytes = sum(entry.wire_size for entry in batch)
        wire_bytes = raw_bytes
        if self.batch_compressor is not None:
            image = b"".join(entry.payload for entry in batch)
            headers = len(batch) * 32
            wire_bytes = len(self.batch_compressor.compress(image)) + headers
        with self.tracer.span(
            "replicate", entries=len(batch), wire_bytes=wire_bytes
        ):
            delivered = False
            with self.tracer.span("oplog_ship") as ship:
                for attempt in range(self.max_attempts):
                    try:
                        self.network.transfer(wire_bytes)
                        delivered = True
                        break
                    except DeliveryFault:
                        self.delivery_failures += 1
                        self.network.clock.advance(
                            self.retry_backoff_s * (2**attempt)
                        )
                if not delivered:
                    ship.annotate("delivery_failed", True)
            if not delivered:
                self.failed_syncs += 1
                self._last_sync_failed = True
                return 0
            if self._last_sync_failed:
                self.resends += 1
                self._last_sync_failed = False
            self._cursor = batch[-1].seq + 1
            self.uncompressed_bytes += raw_bytes
            with self.tracer.span("replica_apply"):
                self.secondary.apply_batch(batch, self.primary)
            self.batches_shipped += 1
            return wire_bytes

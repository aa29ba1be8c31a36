"""Secondary-node re-encoder (§4.1, Fig. 8).

The secondary receives *forward-encoded* oplog entries. For each one it

1. decodes the new record by applying the forward delta to the locally
   stored base record (source cache first, database on miss), then
2. re-derives the same backward/hop write-backs the primary derived, so
   both replicas converge to byte-identical storage.

Determinism comes from sharing :class:`~repro.core.planner.WritebackPlanner`
with the primary: same configuration + same ordered record stream ⇒ same
chains ⇒ same deltas.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.writeback import WriteBackEntry
from repro.core.config import DedupConfig
from repro.core.engine import RecordProvider
from repro.core.planner import CpuMeter, WritebackPlanner
from repro.delta.decode import apply_payload
from repro.sim.costs import CostModel


@dataclass(frozen=True)
class ReencodeOutcome:
    """Result of applying one replicated entry on the secondary.

    Attributes:
        record_id: the new record.
        content: its reconstructed raw content (to store raw).
        writebacks: backward/hop re-encodings, identical to the primary's.
        cpu_seconds: simulated CPU spent decoding and re-encoding.
    """

    record_id: str
    content: bytes
    writebacks: tuple[WriteBackEntry, ...]
    cpu_seconds: float


class SecondaryReencoder:
    """Applies forward-encoded oplog entries on a secondary node."""

    def __init__(
        self, config: DedupConfig | None = None, costs: CostModel | None = None
    ) -> None:
        self.config = config if config is not None else DedupConfig()
        self.costs = costs if costs is not None else CostModel()
        self.planner = WritebackPlanner(self.config)
        self.decode_failures = 0

    def apply_raw(self, record_id: str, content: bytes) -> ReencodeOutcome:
        """Entry carried an unencoded record; cache it as a future base."""
        self.planner.source_cache.admit(record_id, content)
        return ReencodeOutcome(record_id, content, (), 0.0)

    def apply_encoded(
        self,
        record_id: str,
        base_id: str,
        forward_payload: bytes,
        provider: RecordProvider,
    ) -> ReencodeOutcome | None:
        """Decode a forward-encoded entry and plan matching write-backs.

        Returns None when the base record cannot be found locally — the
        caller must then fall back to asking the primary for the raw record
        (§4.1 footnote 4).
        """
        meter = CpuMeter(self.costs)
        base_content = self.planner.fetch(base_id, provider)
        if base_content is None:
            self.decode_failures += 1
            return None
        meter.charge_decode(len(base_content))
        content = apply_payload(base_content, forward_payload)
        writebacks, _ = self.planner.plan(
            record_id, base_id, content, base_content, forward_payload, provider, meter
        )
        return ReencodeOutcome(
            record_id=record_id,
            content=content,
            writebacks=tuple(writebacks),
            cpu_seconds=meter.seconds,
        )

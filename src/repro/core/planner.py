"""Shared write-back planning used by primary engine and secondary re-encoder.

Both ends of the replication link must derive *identical* backward/hop
write-backs from the same forward-encoded record stream (§4.1: "generates
the same backward-encoded delta ... These steps ensure that the secondary
stores the same data as the primary node"). Centralizing the logic here is
what guarantees that: both sides run this planner with the same
configuration over the same ordered stream, so their chain registries and
encodings evolve in lock-step. The forward delta enters as the wire
payload the oplog carries, and Algorithm 2 reads it as such
(:func:`~repro.delta.reencode.delta_reencode`): primary and secondary run
the same function on the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.source_cache import SourceRecordCache
from repro.cache.writeback import WriteBackEntry
from repro.core.config import DedupConfig
from repro.delta.dbdelta import DeltaCompressor
from repro.delta.reencode import delta_reencode
from repro.encoding.chain import ChainRegistry, ReencodeAction
from repro.encoding.policies import EncodingPolicy, make_policy
from repro.sim.costs import CostModel


@dataclass
class CpuMeter:
    """Accumulates simulated CPU seconds for one operation."""

    costs: CostModel
    seconds: float = 0.0

    def charge_chunking(self, nbytes: int) -> None:
        """Charge chunking/sketching CPU for ``nbytes``."""
        self.seconds += nbytes * self.costs.cpu_chunk_byte_s

    def charge_delta(self, nbytes: int) -> None:
        """Charge delta-compression CPU for ``nbytes``."""
        self.seconds += nbytes * self.costs.cpu_delta_byte_s

    def charge_reencode(self, nbytes: int) -> None:
        """Charge memory-speed re-encode CPU for ``nbytes``."""
        self.seconds += nbytes * self.costs.cpu_reencode_byte_s

    def charge_decode(self, nbytes: int) -> None:
        """Charge delta-decode CPU for ``nbytes``."""
        self.seconds += nbytes * self.costs.cpu_decode_byte_s

    def charge_index_maintenance(self, nbytes: int) -> None:
        """Charge tier demotion/promotion CPU for ``nbytes`` moved."""
        self.seconds += nbytes * self.costs.cpu_index_maintain_byte_s


class WritebackPlanner:
    """Chain bookkeeping + backward-delta generation for one node."""

    def __init__(self, config: DedupConfig) -> None:
        self.config = config
        self.compressor = DeltaCompressor(anchor_interval=config.anchor_interval)
        self.source_cache = SourceRecordCache(config.source_cache_bytes)
        self.chains = ChainRegistry()
        self.policy: EncodingPolicy = make_policy(
            config.encoding if config.encoding != "forward" else "backward",
            config.hop_distance,
        )
        #: Planned re-encodings skipped because the delta would not have
        #: shrunk the stored form (``saving <= 0``). Each skip can leave
        #: a decode chain longer than the hop policy's nominal bound, so
        #: the invariant checker gates its hop-bound check on this.
        self.unprofitable_skips = 0
        #: Chain extensions from a non-tail source (Fig. 5 forks). The
        #: orphaned old tail stays raw off the hop lattice, so this also
        #: gates the hop-bound invariant.
        self.overlapped_encodings = 0

    def fetch(self, record_id: str, provider) -> bytes | None:
        """Record content via the source cache, falling back to ``provider``."""
        content = self.source_cache.get(record_id)
        if content is not None:
            return content
        content = provider.fetch_content(record_id)
        if content is not None:
            self.source_cache.admit(record_id, content)
        return content

    def plan(
        self,
        record_id: str,
        source_id: str,
        content: bytes,
        source_content: bytes,
        forward_payload: bytes,
        provider,
        meter: CpuMeter,
    ) -> tuple[list[WriteBackEntry], bool]:
        """Extend the source's chain with the new record; emit write-backs.

        ``forward_payload`` is the wire-format delta ``source_content`` →
        ``content`` — the bytes the oplog carries, so the primary and the
        secondary run this on identical input. Returns ``(writebacks,
        overlapped)``. In ``'forward'`` encoding mode
        (network-only dedup) storage stays raw and no write-backs are
        produced, but the chain is still tracked for cache maintenance.
        """
        chain_id, position, overlapped = self.chains.extend(source_id, record_id)
        if overlapped:
            self.overlapped_encodings += 1
        if self.config.encoding == "forward":
            self._refresh_cache(source_id, record_id, content, overlapped, None)
            return [], overlapped

        if overlapped:
            # Fig. 5: only the selected source re-encodes; the orphaned old
            # tail stays raw (the accepted compression loss).
            actions = [ReencodeAction(source_id, record_id)]
        else:
            records = self.chains.records_of_chain(chain_id)
            actions = self.policy.plan_extend(records, position)

        writebacks: list[WriteBackEntry] = []
        hop = self.config.hop_distance if self.config.encoding == "hop" else None
        for action in actions:
            if action.target_id == source_id:
                # Adjacent pair: Algorithm 2, memory-speed transformation.
                meter.charge_reencode(len(source_content))
                payload = delta_reencode(source_content, forward_payload)
            else:
                target_content = self.fetch(action.target_id, provider)
                if target_content is None:
                    continue
                meter.charge_delta(len(target_content) + len(content))
                payload = self.compressor.compress(content, target_content)
                if hop is not None:
                    self._retire_hop_base(action.target_id, position, hop)
            saving = provider.stored_size(action.target_id) - len(payload)
            if saving <= 0:
                # A delta bigger than the stored form helps nobody.
                self.unprofitable_skips += 1
                continue
            writebacks.append(
                WriteBackEntry(
                    record_id=action.target_id,
                    base_id=action.base_id,
                    payload=payload,
                    space_saving=saving,
                )
            )
        self._refresh_cache(source_id, record_id, content, overlapped, hop)
        return writebacks, overlapped

    def _refresh_cache(
        self,
        source_id: str,
        record_id: str,
        content: bytes,
        overlapped: bool,
        hop: int | None,
    ) -> None:
        """§3.3.1 cache maintenance on chain growth.

        The new record supersedes the source's cache slot — except when the
        source is a hop base, which must stay cached until its hop
        re-encoding arrives ("dbDedup additionally caches the latest hop
        bases in each hop level").
        """
        if hop is not None and not overlapped:
            try:
                _, source_position = self.chains.position_of(source_id)
            except KeyError:
                source_position = -1
            if source_position >= 0 and source_position % hop == 0:
                self.source_cache.admit(record_id, content)
                return
        self.source_cache.replace_tail(source_id, record_id, content)

    def _retire_hop_base(self, target_id: str, new_position: int, hop: int) -> None:
        """Drop a just-re-encoded hop base from the cache, unless a higher
        hop level will need it again."""
        try:
            _, target_position = self.chains.position_of(target_id)
        except KeyError:
            return
        span = new_position - target_position
        higher = span * hop
        if target_position % higher != 0:
            self.source_cache.invalidate(target_id)

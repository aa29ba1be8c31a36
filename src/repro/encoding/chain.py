"""Encoding-chain bookkeeping (§3.2.1).

Chains arise from similarity, not from declared versions: when a new record
selects a source, it joins (or forks) the source's chain. The registry
answers "what position is this record at, and is it the tail?" — the facts
encoding policies need — while the database itself owns the actual record
payloads and base pointers.

Overlapped encoding (Fig. 5) is the case where the selected source is *not*
its chain's tail; the new record then forks a fresh chain seeded by the
source, and the old chain keeps whatever structure it had. The paper
measures this to be rare (>95 % of updates build on the latest version).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class ReencodeAction:
    """Order to (re)encode ``target_id``'s stored form against ``base_id``."""

    target_id: str
    base_id: str


@dataclass
class _Chain:
    chain_id: int
    records: list[str] = field(default_factory=list)

    @property
    def tail(self) -> str:
        return self.records[-1]

    def __len__(self) -> int:
        return len(self.records)


class ChainRegistry:
    """Tracks which chain each record belongs to and at which position."""

    def __init__(self) -> None:
        self._chains: dict[int, _Chain] = {}
        self._membership: dict[str, tuple[int, int]] = {}
        self._next_chain_id = 0

    def __contains__(self, record_id: str) -> bool:
        return record_id in self._membership

    def start_chain(self, record_id: str) -> int:
        """Open a new single-record chain; returns its chain id."""
        chain_id = self._next_chain_id
        self._next_chain_id += 1
        self._chains[chain_id] = _Chain(chain_id, [record_id])
        self._membership[record_id] = (chain_id, 0)
        return chain_id

    def position_of(self, record_id: str) -> tuple[int, int]:
        """Return ``(chain_id, position)`` of a known record.

        Raises:
            KeyError: if the record has never been chained.
        """
        return self._membership[record_id]

    def is_tail(self, record_id: str) -> bool:
        """True if ``record_id`` is the newest record of its chain."""
        entry = self._membership.get(record_id)
        if entry is None:
            return False
        chain_id, _ = entry
        return self._chains[chain_id].tail == record_id

    def chain_length(self, chain_id: int) -> int:
        """Number of records currently in the chain."""
        return len(self._chains[chain_id])

    def records_of_chain(self, chain_id: int) -> list[str]:
        """Record ids in write order (oldest first)."""
        return list(self._chains[chain_id].records)

    def extend(self, source_id: str, new_id: str) -> tuple[int, int, bool]:
        """Attach ``new_id`` to ``source_id``'s chain.

        Returns:
            ``(chain_id, new_position, overlapped)``. If the source is its
            chain's tail the chain grows linearly; otherwise (overlapped
            encoding, Fig. 5) a fresh chain ``[source, new]`` forks off and
            ``overlapped`` is True. A source never seen before implicitly
            starts a chain first.
        """
        if source_id not in self._membership:
            self.start_chain(source_id)
        chain_id, _ = self._membership[source_id]
        chain = self._chains[chain_id]
        if chain.tail == source_id:
            chain.records.append(new_id)
            position = len(chain.records) - 1
            self._membership[new_id] = (chain_id, position)
            return chain_id, position, False
        # Overlapped: fork. The source conceptually restarts at position 0.
        fork_id = self._next_chain_id
        self._next_chain_id += 1
        self._chains[fork_id] = _Chain(fork_id, [source_id, new_id])
        self._membership[source_id] = (fork_id, 0)
        self._membership[new_id] = (fork_id, 1)
        return fork_id, 1, True

    def forget(self, record_id: str) -> None:
        """Drop a record from chain bookkeeping (used by garbage collection)."""
        entry = self._membership.pop(record_id, None)
        if entry is None:
            return
        chain_id, _ = entry
        chain = self._chains.get(chain_id)
        if chain and record_id in chain.records:
            chain.records.remove(record_id)
            for position, member in enumerate(chain.records):
                self._membership[member] = (chain_id, position)
            if not chain.records:
                del self._chains[chain_id]

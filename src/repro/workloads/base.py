"""Trace model shared by all workload generators."""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterator
from dataclasses import dataclass


@dataclass(frozen=True)
class Operation:
    """One client operation in a trace.

    Attributes:
        kind: 'insert', 'read', 'update', 'delete', or 'idle'.
        database: logical database name (the dedup partition key).
        record_id: target record ('' for idle).
        content: payload for writes, None otherwise.
        idle_seconds: quiet time for 'idle' operations.
    """

    kind: str
    database: str = ""
    record_id: str = ""
    content: bytes | None = None
    idle_seconds: float = 0.0


class Workload(ABC):
    """A reproducible dataset + trace generator.

    Subclasses synthesize records until roughly ``target_bytes`` of raw
    insert payload have been produced. ``insert_trace`` is the load used by
    the compression experiments ("load the records as fast as possible");
    ``mixed_trace`` interleaves reads per the paper's per-dataset ratios
    for the performance experiments.
    """

    #: Paper dataset name, e.g. 'wikipedia'.
    name: str = ""

    def __init__(self, seed: int = 1, target_bytes: int = 2_000_000) -> None:
        if target_bytes < 10_000:
            raise ValueError(f"target_bytes too small: {target_bytes}")
        self.seed = seed
        self.target_bytes = target_bytes

    @abstractmethod
    def insert_trace(self) -> Iterator[Operation]:
        """Insert-only trace in creation-time order."""

    @abstractmethod
    def mixed_trace(self) -> Iterator[Operation]:
        """Inserts interleaved with reads per the dataset's R/W ratio."""

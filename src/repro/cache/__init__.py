"""Caches specialized for delta-encoded storage (§3.3)."""

from repro.cache.source_cache import SourceRecordCache
from repro.cache.writeback import LossyWriteBackCache, WriteBackEntry

__all__ = [
    "SourceRecordCache",
    "LossyWriteBackCache",
    "WriteBackEntry",
]

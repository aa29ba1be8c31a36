"""CPU/disk/network cost table (calibrated to the paper's testbed class).

Every figure is a *rate* on commodity 2016 hardware: HDD storage
(~100 MB/s sequential, ~5 ms seek), gigabit-class WAN-ish replication
links, and single-core software rates in the range the paper itself
reports (e.g. Fig. 15 puts delta compression at 30–60 MB/s). Absolute
values only set the scale; the experiments compare configurations under
the *same* table.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CostModel:
    """Simulated service times. All rates in seconds or seconds/byte."""

    #: Positioning cost charged per disk request (HDD seek + rotation).
    disk_seek_s: float = 0.005
    #: Sequential disk transfer: 100 MB/s.
    disk_byte_s: float = 1.0 / (100 * 1024 * 1024)
    #: Replication link: 1 Gbit/s ≈ 119 MiB/s.
    network_byte_s: float = 1.0 / (119 * 1024 * 1024)
    #: Per-message network round-trip overhead.
    network_rtt_s: float = 0.001
    #: Chunking + feature extraction: ~400 MB/s streaming.
    cpu_chunk_byte_s: float = 1.0 / (400 * 1024 * 1024)
    #: Delta compression: ~40 MB/s (Fig. 15's midpoint).
    cpu_delta_byte_s: float = 1.0 / (40 * 1024 * 1024)
    #: Delta re-encode runs "at memory speed": ~2 GB/s.
    cpu_reencode_byte_s: float = 1.0 / (2 * 1024 * 1024 * 1024)
    #: Delta decode: ~400 MB/s.
    cpu_decode_byte_s: float = 1.0 / (400 * 1024 * 1024)
    #: Block compression (Snappy-class): ~250 MB/s.
    cpu_compress_byte_s: float = 1.0 / (250 * 1024 * 1024)
    #: Budgeted-index maintenance (demoting/promoting entries between the
    #: hot and cold tiers): ~200 MB/s of entry bytes moved — hash-heavy
    #: pointer shuffling, cheaper than delta work, dearer than streaming.
    cpu_index_maintain_byte_s: float = 1.0 / (200 * 1024 * 1024)
    #: GC planning scan: refcount/tombstone bookkeeping over resident
    #: metadata, ~1 GB/s — cheaper than any content work.
    cpu_gc_scan_byte_s: float = 1.0 / (1024 * 1024 * 1024)
    #: Page compaction migration: memcpy-class moves with slot fixups,
    #: ~500 MB/s.
    cpu_compaction_byte_s: float = 1.0 / (500 * 1024 * 1024)
    #: Fixed request-handling overhead per client operation.
    request_overhead_s: float = 0.0002

    def disk_time(self, nbytes: int) -> float:
        """Service time of one disk request of ``nbytes``."""
        return self.disk_seek_s + nbytes * self.disk_byte_s

    def network_time(self, nbytes: int) -> float:
        """Transfer time of one message of ``nbytes``."""
        return self.network_rtt_s + nbytes * self.network_byte_s

#!/usr/bin/env python3
"""Tuning dbDedup on a marginal workload — and watching it police itself.

Forum posts dedup far less than wikis (paper: 1.3-1.8x). This example
sweeps the two main knobs (chunk size, anchor interval) on the message-
board workload, then demonstrates the two §3.4 self-governing mechanisms:

* the adaptive size filter skipping small posts, and
* the governor disabling dedup outright on a database with no redundancy.

Run:  python examples/forum_tuning.py
"""

import random

from repro import ClusterSpec, DedupConfig, MessageBoardsWorkload, open_cluster
from repro.bench.report import render_table

TARGET_BYTES = 500_000
SEED = 31


def sweep_knobs() -> None:
    rows = []
    for chunk_size in (1024, 256, 64):
        for anchor_interval in (64, 16):
            spec = ClusterSpec(
                dedup=DedupConfig(
                    chunk_size=chunk_size, anchor_interval=anchor_interval
                )
            )
            client = open_cluster(spec)
            workload = MessageBoardsWorkload(seed=SEED, target_bytes=TARGET_BYTES)
            result = client.run(workload.insert_trace())
            rows.append(
                (
                    f"chunk={chunk_size}",
                    f"anchor={anchor_interval}",
                    result.storage_compression_ratio,
                    result.network_compression_ratio,
                    result.index_memory_bytes / 1024.0,
                )
            )
    print(
        render_table(
            "Message boards: chunk size x anchor interval",
            ["chunk", "anchor", "storage ratio", "network ratio", "index KB"],
            rows,
        )
    )


def show_size_filter() -> None:
    client = open_cluster(
        ClusterSpec(dedup=DedupConfig(chunk_size=64, size_filter_interval=200))
    )
    workload = MessageBoardsWorkload(seed=SEED, target_bytes=TARGET_BYTES)
    client.run(workload.insert_trace())
    engine = client.cluster.primary.engine
    print()
    print(
        f"size filter: learned cut-off "
        f"{engine.size_filter.threshold('messageboards')} B, "
        f"skipped {engine.stats.records_filtered} of "
        f"{engine.stats.records_seen} posts"
    )


def show_governor() -> None:
    # A database of pure random blobs: no redundancy whatsoever.
    client = open_cluster(
        ClusterSpec(dedup=DedupConfig(chunk_size=64, governor_window=200))
    )
    rng = random.Random(SEED)
    for index in range(260):
        blob = bytes(rng.randrange(256) for _ in range(1500))
        client.insert("blobstore", f"blob/{index}", blob)
    engine = client.cluster.primary.engine
    print()
    print(
        f"governor: dedup enabled for 'blobstore' after 260 inserts? "
        f"{engine.admission.is_enabled('blobstore')} "
        f"(bypassed {engine.stats.records_bypassed} records after disabling)"
    )


if __name__ == "__main__":
    sweep_knobs()
    show_size_filter()
    show_governor()

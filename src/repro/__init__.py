"""dbDedup: similarity-based online deduplication for databases.

A full reproduction of Xu, Pavlo, Sengupta & Ganger, "Online Deduplication
for Databases", SIGMOD 2017. The package contains the dedup engine itself
(:mod:`repro.core`), every substrate it needs — delta compression, content-
defined chunking, feature indexes, specialized caches, a document DBMS with
replication, a discrete-event cost model — plus the paper's baselines and
workload generators.

Quick start (the supported entry point is :mod:`repro.api`)::

    from repro import ClusterSpec, DedupConfig, WikipediaWorkload, open_cluster

    client = open_cluster(ClusterSpec(dedup=DedupConfig(chunk_size=1024)))
    workload = WikipediaWorkload(seed=7, target_bytes=1_000_000)
    result = client.run(workload.insert_trace())
    print(f"{result.storage_compression_ratio:.1f}x storage, "
          f"{result.network_compression_ratio:.1f}x network")
"""

from repro.api import ClusterSpec, DedupClient, open_cluster
from repro.baselines import TradDedupEngine
from repro.core import (
    AdmissionController,
    DedupConfig,
    DedupEngine,
    DedupGovernor,
    DedupStats,
    SecondaryReencoder,
)
from repro.db import Cluster, Database, RunResult
from repro.delta import (
    DeltaCompressor,
    apply_delta,
    apply_payload,
    delta_reencode,
    xdelta_compress,
)
from repro.workloads import (
    EnronWorkload,
    MessageBoardsWorkload,
    Operation,
    StackExchangeWorkload,
    WikipediaWorkload,
    make_workload,
)

__version__ = "1.0.0"

__all__ = [
    "ClusterSpec",
    "DedupClient",
    "open_cluster",
    "AdmissionController",
    "DedupConfig",
    "DedupEngine",
    "DedupGovernor",
    "DedupStats",
    "SecondaryReencoder",
    "TradDedupEngine",
    "Cluster",
    "Database",
    "RunResult",
    "DeltaCompressor",
    "apply_delta",
    "apply_payload",
    "delta_reencode",
    "xdelta_compress",
    "Operation",
    "WikipediaWorkload",
    "EnronWorkload",
    "StackExchangeWorkload",
    "MessageBoardsWorkload",
    "make_workload",
    "__version__",
]

"""Public client API: describe a deployment, open it, operate on it.

This package is the supported entry point of the reproduction::

    from repro.api import ClusterSpec, open_cluster

    client = open_cluster(ClusterSpec(shards=4, placement="prefix"))
    client.insert("wiki", "wiki/7/1", b"...")
    print(client.stats()["storage_compression_ratio"])

Everything under :mod:`repro.db`, :mod:`repro.core` etc. is internal;
see ``docs/API.md``.
"""

from repro.api.client import DedupClient, open_cluster
from repro.db.errors import NodeUnavailableError
from repro.db.spec import ClusterSpec
from repro.index.spec import IndexSpec

__all__ = [
    "ClusterSpec",
    "DedupClient",
    "IndexSpec",
    "NodeUnavailableError",
    "open_cluster",
]

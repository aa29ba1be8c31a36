"""Client-facing failover behavior: transparency and typed errors.

The contract :class:`~repro.api.DedupClient` offers: with failover
enabled an outage is absorbed — operations stall in simulated time until
a secondary is promoted, then proceed; with it disabled the client
raises :class:`~repro.api.NodeUnavailableError`, typed and marked
retriable, with the remediation spelled out in the message.
"""

from __future__ import annotations

import pytest

from repro.api import ClusterSpec, NodeUnavailableError, open_cluster


class TestTransparency:
    def test_insert_survives_primary_crash(self):
        client = open_cluster(
            ClusterSpec(num_secondaries=2, oplog_batch_bytes=1)
        )
        client.insert("db", "before", b"first" * 50)
        client.cluster.primary.crash()
        latency = client.insert("db", "after", b"second" * 50)
        assert latency > 0
        assert client.cluster.failover.failovers == 1
        assert client.read("db", "before") == b"first" * 50
        assert client.read("db", "after") == b"second" * 50

    def test_read_survives_primary_crash(self):
        client = open_cluster(
            ClusterSpec(num_secondaries=1, oplog_batch_bytes=1)
        )
        client.insert("db", "r1", b"content" * 20)
        client.cluster.primary.crash()
        assert client.read("db", "r1") == b"content" * 20

    def test_stalled_ops_counted(self):
        client = open_cluster(ClusterSpec(oplog_batch_bytes=1))
        client.cluster.primary.crash()
        client.insert("db", "r1", b"x" * 40)
        assert client.cluster.failover.stalled_ops == 1


class TestTypedErrors:
    def test_disabled_failover_maps_to_retriable_error(self):
        client = open_cluster(ClusterSpec(failover_enabled=False))
        client.cluster.primary.crash()
        with pytest.raises(NodeUnavailableError) as caught:
            client.insert("db", "r1", b"x")
        assert caught.value.retriable is True
        assert caught.value.node_name == "primary"
        assert "safe to retry" in str(caught.value)
        assert "failover_enabled" in str(caught.value)

    def test_every_crud_method_maps(self):
        client = open_cluster(ClusterSpec(failover_enabled=False))
        client.insert("db", "r1", b"x")
        client.cluster.primary.crash()
        calls = [
            lambda: client.insert("db", "r2", b"y"),
            lambda: client.insert_many([("db", "r3", b"z")]),
            lambda: client.read("db", "r1"),
            lambda: client.update("db", "r1", b"y"),
            lambda: client.delete("db", "r1"),
        ]
        for call in calls:
            with pytest.raises(NodeUnavailableError, match="safe to retry"):
                call()


class TestSpecKnobs:
    def test_disabled_knob_reaches_the_manager(self):
        client = open_cluster(ClusterSpec(failover_enabled=False))
        assert client.cluster.failover.config.failover_enabled is False

    def test_sharded_topology_gets_per_shard_managers(self):
        client = open_cluster(ClusterSpec(shards=2))
        managers = [shard.failover for shard in client.cluster.shards]
        assert len(managers) == 2
        assert managers[0] is not managers[1]
        assert all(m.config is client.spec for m in managers)

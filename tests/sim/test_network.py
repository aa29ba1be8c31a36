"""Simulated network link accounting."""

import pytest

from repro.sim.clock import SimClock
from repro.sim.costs import CostModel
from repro.sim.network import SimNetwork


class TestNetwork:
    def test_transfer_accounts_bytes(self):
        network = SimNetwork(SimClock())
        network.transfer(1000)
        network.transfer(500)
        assert network.bytes_sent == 1500
        assert network.messages == 2

    def test_transfer_time_includes_rtt(self):
        costs = CostModel()
        network = SimNetwork(SimClock(), costs)
        assert network.transfer(0) == pytest.approx(costs.network_rtt_s)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            SimNetwork(SimClock()).transfer(-5)

    def test_time_proportional_to_size(self):
        network = SimNetwork(SimClock())
        small = network.transfer(1024)
        large = network.transfer(1024 * 1024)
        assert large > small


class TestDeliveryAccounting:
    """Attempted vs delivered bytes must diverge when messages drop.

    Regression: Fig. 11's network numbers read ``bytes_delivered``; a
    dropped-and-resent batch must not inflate them with the failed
    attempt's bytes.
    """

    def test_clean_transfers_count_both(self):
        network = SimNetwork(SimClock())
        network.transfer(1000)
        assert network.bytes_sent == network.bytes_delivered == 1000
        assert network.messages == network.messages_delivered == 1
        assert network.messages_dropped == 0

    def test_dropped_transfer_counts_sent_not_delivered(self):
        from repro.sim.faults import DeliveryFault

        network = SimNetwork(SimClock())

        def drop_first(message_index, nbytes):
            if message_index == 1:
                raise DeliveryFault("dropped")

        network.interceptor = drop_first
        with pytest.raises(DeliveryFault):
            network.transfer(700)
        network.transfer(700)  # the resend
        assert network.bytes_sent == 1400      # sender paid twice
        assert network.bytes_delivered == 700  # receiver saw it once
        assert network.messages == 2
        assert network.messages_delivered == 1
        assert network.messages_dropped == 1

    def test_replication_resends_do_not_inflate_delivered_bytes(self):
        """End to end: a dropping link re-ships batches; the cluster's
        Fig. 11 accounting only counts the copies that landed."""
        from repro.api import ClusterSpec
        from repro.db.cluster import Cluster
        from repro.db.invariants import check_cluster
        from repro.sim.faults import DropBatches, FaultPlan
        from repro.workloads.base import Operation

        def run(rules):
            cluster = Cluster(ClusterSpec(oplog_batch_bytes=2048))
            plan = FaultPlan(seed=3, rules=rules)
            plan.install(cluster)
            content = bytes(range(256)) * 4
            result = cluster.run(
                Operation("insert", "db", f"r{index}",
                          content + index.to_bytes(2, "little"))
                for index in range(60)
            )
            assert check_cluster(cluster).ok
            return cluster, result

        clean_cluster, clean = run([])
        # Drop the first five attempts: the first sync exhausts its
        # retries (failed sync), the next sync resends the whole batch.
        faulty_cluster, faulty = run([DropBatches(every=1, limit=5)])
        assert faulty_cluster.link.failed_syncs > 0
        assert faulty_cluster.link.resends > 0
        # Attempts include every dropped shipment; deliveries do not.
        assert (
            faulty_cluster.network.bytes_sent
            > faulty_cluster.network.bytes_delivered
        )
        assert faulty.network_bytes == faulty_cluster.network.bytes_delivered
        # Identical payload stream ⇒ identical delivered-byte accounting.
        assert faulty.network_bytes == clean.network_bytes

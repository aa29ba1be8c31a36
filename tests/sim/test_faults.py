"""Unit tests for the seeded fault-injection plan."""

import gc
import weakref
from types import SimpleNamespace

import pytest

from repro.api import ClusterSpec, open_cluster
from repro.db.node import PrimaryNode
from repro.sim.faults import (
    MAX_EVENTS,
    CorruptPageReads,
    CrashNode,
    DeliveryFault,
    DropBatches,
    FaultPlan,
    TransientIOError,
    TransientIOErrors,
)


class TestRuleValidation:
    def test_drop_batches_needs_a_trigger(self):
        with pytest.raises(ValueError):
            DropBatches()

    def test_drop_batches_every_must_be_positive(self):
        with pytest.raises(ValueError):
            DropBatches(every=0)

    def test_crash_node_rejects_unknown_node(self):
        with pytest.raises(ValueError):
            CrashNode(node="tertiary")

    def test_crash_node_accepts_indexed_replica_addresses(self):
        assert CrashNode(node="secondary:0").node == "secondary:0"
        assert CrashNode(node="secondary:12").node == "secondary:12"

    def test_crash_node_rejects_malformed_replica_addresses(self):
        for bad in ("secondary:", "secondary:x", "secondary:-1", "primary:0"):
            with pytest.raises(ValueError):
                CrashNode(node=bad)

    def test_crash_node_rejects_nonpositive_trigger(self):
        with pytest.raises(ValueError):
            CrashNode(after_appends=0)

    def test_rules_are_frozen(self):
        rule = DropBatches(every=2)
        with pytest.raises(AttributeError):
            rule.every = 3


class TestDeterminism:
    def test_same_seed_same_decisions(self):
        def decisions(seed):
            plan = FaultPlan(seed=seed, rules=[DropBatches(probability=0.5)])
            out = []
            for index in range(1, 200):
                try:
                    plan.on_transfer(index, 100)
                    out.append(False)
                except DeliveryFault:
                    out.append(True)
            return out, plan.events

        first = decisions(31)
        second = decisions(31)
        assert first == second
        assert decisions(32) != first

    def test_repr_round_trips_every_rule_type(self):
        plan = FaultPlan(
            seed=12,
            rules=[
                DropBatches(every=3, limit=2),
                TransientIOErrors(probability=0.1, kinds=("read",), node="primary"),
                CorruptPageReads(probability=0.2, sticky=True),
                CrashNode(node="secondary", after_appends=9, restart=False),
                CrashNode(node="secondary:1", after_appends=17, restart=False),
            ],
        )
        rebuilt = eval(  # noqa: S307 - round-tripping our own repr
            repr(plan),
            {
                "FaultPlan": FaultPlan,
                "DropBatches": DropBatches,
                "TransientIOErrors": TransientIOErrors,
                "CorruptPageReads": CorruptPageReads,
                "CrashNode": CrashNode,
            },
        )
        assert rebuilt.seed == plan.seed
        assert rebuilt.rules == plan.rules


class TestDropArithmetic:
    def test_every_nth_drops_exact_messages(self):
        plan = FaultPlan(seed=0, rules=[DropBatches(every=3)])
        dropped = []
        for index in range(1, 13):
            try:
                plan.on_transfer(index, 10)
            except DeliveryFault:
                dropped.append(index)
        assert dropped == [3, 6, 9, 12]

    def test_limit_caps_injections(self):
        plan = FaultPlan(seed=0, rules=[DropBatches(every=1, limit=2)])
        dropped = 0
        for index in range(1, 20):
            try:
                plan.on_transfer(index, 10)
            except DeliveryFault:
                dropped += 1
        assert dropped == 2
        assert plan.injected == 2


class TestSuspendResume:
    def test_suspend_stops_injection_and_reports_prior_state(self):
        plan = FaultPlan(seed=0, rules=[DropBatches(every=1)])
        assert plan.suspend() is True
        assert plan.suspend() is False  # already suspended
        plan.on_transfer(1, 10)  # no raise while suspended
        assert plan.injected == 0
        plan.resume()
        with pytest.raises(DeliveryFault):
            plan.on_transfer(2, 10)


class TestEventLogCap:
    def test_events_bounded_but_injected_keeps_counting(self):
        plan = FaultPlan(seed=0, rules=[DropBatches(every=1)])
        for index in range(1, MAX_EVENTS + 100):
            with pytest.raises(DeliveryFault):
                plan.on_transfer(index, 1)
        assert plan.injected == MAX_EVENTS + 99
        assert len(plan.events) == MAX_EVENTS


class TestPageReadHook:
    def _fake(self, payload=b"x" * 64):
        db = SimpleNamespace(node_role="primary")
        record = SimpleNamespace(record_id="r0", payload=payload)
        return db, record

    def test_transient_corruption_leaves_storage_intact(self):
        plan = FaultPlan(
            seed=1, rules=[CorruptPageReads(probability=1.0, sticky=False)]
        )
        db, record = self._fake()
        stored = record.payload
        returned = plan.on_page_read(db, record, stored)
        assert returned != stored
        assert record.payload == stored  # storage untouched

    def test_sticky_corruption_rewrites_storage(self):
        plan = FaultPlan(
            seed=1, rules=[CorruptPageReads(probability=1.0, sticky=True)]
        )
        db, record = self._fake()
        original = record.payload
        returned = plan.on_page_read(db, record, original)
        assert returned != original
        assert record.payload == returned  # flip persisted

    def test_node_filter_skips_other_roles(self):
        plan = FaultPlan(
            seed=1,
            rules=[CorruptPageReads(probability=1.0, node="secondary")],
        )
        db, record = self._fake()
        assert plan.on_page_read(db, record, record.payload) == record.payload
        assert plan.injected == 0

    def test_empty_payload_passes_through(self):
        plan = FaultPlan(seed=1, rules=[CorruptPageReads(probability=1.0)])
        db, record = self._fake(payload=b"")
        assert plan.on_page_read(db, record, b"") == b""


class TestDiskHook:
    def test_kind_and_limit_filters(self):
        plan = FaultPlan(
            seed=2,
            rules=[
                TransientIOErrors(probability=1.0, kinds=("write",), limit=2)
            ],
        )
        db = SimpleNamespace(node_role="primary")
        interceptor = plan._disk_interceptor(db)
        interceptor("read", 100)  # wrong kind: no raise
        with pytest.raises(TransientIOError):
            interceptor("write", 100)
        with pytest.raises(TransientIOError):
            interceptor("write", 100)
        interceptor("write", 100)  # budget spent
        assert plan.injected == 2


class TestInstallUninstall:
    def test_install_wires_and_uninstall_unwires(self):
        cluster = open_cluster(ClusterSpec()).cluster
        plan = FaultPlan(seed=3, rules=[DropBatches(every=2)])
        plan.install(cluster)
        assert cluster.fault_plan is plan
        assert cluster.network.interceptor == plan.on_transfer
        for node in (cluster.primary, cluster.secondary):
            assert node.db.fault_injector is plan
            assert node.db.disk.interceptor is not None
        plan.uninstall(cluster)
        assert cluster.fault_plan is None
        assert cluster.network.interceptor is None
        for node in (cluster.primary, cluster.secondary):
            assert node.db.fault_injector is None
            assert node.db.disk.interceptor is None

    def test_uninstall_is_a_noop_for_foreign_plans(self):
        cluster = open_cluster(ClusterSpec()).cluster
        installed = FaultPlan(seed=4, rules=[DropBatches(every=2)])
        other = FaultPlan(seed=5, rules=[DropBatches(every=3)])
        installed.install(cluster)
        other.uninstall(cluster)
        assert cluster.fault_plan is installed
        assert cluster.network.interceptor == installed.on_transfer


class TestHooksFollowRecovery:
    """A recovery moves the plan's hooks onto the store it builds."""

    def test_role_scoped_disk_rule_reaches_restarted_then_promoted_node(self):
        cluster = open_cluster(ClusterSpec()).cluster
        plan = FaultPlan(
            seed=8,
            rules=[
                TransientIOErrors(
                    probability=1.0, kinds=("write",), node="primary", limit=3
                )
            ],
        )
        plan.install(cluster)
        secondary = cluster.secondary
        secondary.crash()
        secondary.restart()
        promoted = PrimaryNode.from_secondary(secondary)
        promoted.insert("db", "r0", b"payload " * 64)
        assert plan.injected == 3
        assert promoted.db.io_retries == 3

    @pytest.mark.parametrize("role", ["primary", "secondary"])
    def test_restart_releases_the_dead_store(self, role):
        from repro.workloads.base import Operation

        cluster = open_cluster(ClusterSpec(oplog_batch_bytes=1)).cluster
        plan = FaultPlan(seed=9, rules=[TransientIOErrors(probability=0.0)])
        plan.install(cluster)
        cluster.execute(Operation("insert", "db", "r0", b"payload " * 64))
        node = getattr(cluster, role)
        dead = weakref.ref(node.db)
        node.crash()
        node.restart()
        gc.collect()
        assert dead() is None
        assert node.db.fault_injector is plan
        assert node.db.fetch_content("r0") == b"payload " * 64


class TestCrashHook:
    def test_crash_fires_once_at_threshold(self):
        from repro.workloads.base import Operation

        cluster = open_cluster(ClusterSpec()).cluster
        plan = FaultPlan(
            seed=6, rules=[CrashNode(node="primary", after_appends=3)]
        )
        plan.install(cluster)
        for index in range(8):
            cluster.execute(
                Operation("insert", "db", f"r{index}", b"payload %d" % index)
            )
        assert cluster.primary.crashes == 1
        assert any(event.startswith("crash") for event in plan.events)

    def test_indexed_address_crashes_that_replica_only(self):
        from repro.workloads.base import Operation

        cluster = open_cluster(
            ClusterSpec(num_secondaries=3, oplog_batch_bytes=1)
        ).cluster
        plan = FaultPlan(
            seed=6, rules=[CrashNode(node="secondary:1", after_appends=2)]
        )
        plan.install(cluster)
        for index in range(6):
            cluster.execute(
                Operation("insert", "db", f"r{index}", b"payload %d" % index)
            )
        assert [node.crashes for node in cluster.secondaries] == [0, 1, 0]

    def test_out_of_range_address_stays_pending(self):
        from repro.workloads.base import Operation

        cluster = open_cluster(ClusterSpec(oplog_batch_bytes=1)).cluster
        plan = FaultPlan(
            seed=6, rules=[CrashNode(node="secondary:5", after_appends=1)]
        )
        plan.install(cluster)
        cluster.execute(Operation("insert", "db", "r0", b"payload"))
        assert cluster.secondaries[0].crashes == 0
        assert not plan.events

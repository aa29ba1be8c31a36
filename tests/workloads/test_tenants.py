"""Open-loop multi-tenant harness: arrivals, composition, the driver."""

import itertools

import pytest

from repro.api import ClusterSpec, open_cluster
from repro.core.config import DedupConfig
from repro.db.sharding import ShardRouter
from repro.workloads.tenants import (
    ArrivalProcess,
    OpenLoopDriver,
    TenantSpec,
    compose_tenants,
    derive_seed,
    parse_tenants,
    tenant_operations,
)


def _take(iterator, n):
    return list(itertools.islice(iterator, n))


class TestParseTenants:
    def test_workload_and_rate(self):
        specs = parse_tenants("wikipedia,oltp:120")
        assert [spec.name for spec in specs] == ["wikipedia", "oltp"]
        assert specs[1].rate_ops_s == 120.0

    def test_duplicate_workloads_get_suffixes(self):
        specs = parse_tenants("oltp,oltp")
        assert [spec.name for spec in specs] == ["oltp", "oltp2"]

    def test_target_bytes_override(self):
        specs = parse_tenants("oltp", target_bytes=50_000)
        assert specs[0].target_bytes == 50_000

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            parse_tenants(" , ")


class TestDeriveSeed:
    def test_deterministic_and_name_sensitive(self):
        assert derive_seed(7, "arrivals/a") == derive_seed(7, "arrivals/a")
        assert derive_seed(7, "arrivals/a") != derive_seed(7, "arrivals/b")
        assert derive_seed(7, "arrivals/a") != derive_seed(8, "arrivals/a")


class TestArrivalProcess:
    SPEC = TenantSpec(name="t", workload="oltp", rate_ops_s=100.0)

    def test_deterministic(self):
        first = _take(ArrivalProcess(self.SPEC, 7).times(), 200)
        second = _take(ArrivalProcess(self.SPEC, 7).times(), 200)
        assert first == second

    def test_strictly_increasing(self):
        times = _take(ArrivalProcess(self.SPEC, 7).times(), 500)
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_rate_scale_compresses_time(self):
        base = _take(ArrivalProcess(self.SPEC, 7).times(), 300)
        fast = _take(ArrivalProcess(self.SPEC, 7, rate_scale=2.0).times(), 300)
        assert fast[-1] < base[-1]

    def test_mean_rate_near_nominal(self):
        times = _take(ArrivalProcess(self.SPEC, 7).times(), 2000)
        mean_rate = len(times) / times[-1]
        # Diurnal modulation averages out; bursts push the mean up a bit.
        assert 0.7 * 100.0 < mean_rate < 2.0 * 100.0


class TestTenantOperations:
    def test_ops_rewritten_to_tenant_namespace(self):
        spec = TenantSpec(name="acme", workload="oltp", target_bytes=20_000)
        ops = _take(tenant_operations(spec, 7), 50)
        assert ops
        for op in ops:
            assert op.kind != "idle"
            assert op.database == "acme"
            assert op.record_id.startswith("acme/")


class TestComposeTenants:
    SPECS = [
        TenantSpec(name="a", workload="oltp", rate_ops_s=80.0,
                   target_bytes=20_000),
        TenantSpec(name="b", workload="oltp", rate_ops_s=40.0,
                   target_bytes=20_000),
    ]

    def test_sorted_by_arrival_time(self):
        schedule = compose_tenants(self.SPECS, 7)
        times = [item.at_s for item in schedule]
        assert times == sorted(times)
        assert {item.tenant for item in schedule} == {"a", "b"}

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            compose_tenants([self.SPECS[0], self.SPECS[0]], 7)

    def test_deterministic(self):
        first = compose_tenants(self.SPECS, 7)
        second = compose_tenants(self.SPECS, 7)
        assert [item.sort_key for item in first] == [
            item.sort_key for item in second
        ]


def _run_driver(cpu_scale):
    specs = [
        TenantSpec(name="wikipedia", workload="wikipedia",
                   rate_ops_s=150.0, target_bytes=30_000),
    ]
    schedule = compose_tenants(specs, 7)
    client = open_cluster(
        ClusterSpec(dedup=DedupConfig(chunk_size=64))
    )
    driver = OpenLoopDriver(client.cluster, cpu_scale=cpu_scale)
    count = driver.run(schedule)
    assert count == len(schedule)
    return driver


class TestOpenLoopDriver:
    def test_sojourn_at_least_service(self):
        driver = _run_driver(cpu_scale=0.0)
        sojourn = driver.registry.get("op_sojourn_seconds")
        service = driver.registry.get("op_service_seconds")
        for key, child in sojourn._children.items():
            assert child.sum >= service._children[key].sum - 1e-9

    def test_arrivals_counted(self):
        driver = _run_driver(cpu_scale=0.0)
        assert driver.registry.total("openloop_arrivals_total") > 0

    def test_zero_scale_never_stalls(self):
        driver = _run_driver(cpu_scale=0.0)
        assert driver.registry.total(
            "openloop_cpu_stall_seconds_total"
        ) == 0.0

    def test_contention_scale_creates_stalls(self):
        contended = _run_driver(cpu_scale=50_000.0)
        stall = contended.registry.total("openloop_cpu_stall_seconds_total")
        assert stall > 0.0
        free = _run_driver(cpu_scale=0.0)
        assert contended.cluster.clock.now > free.cluster.clock.now

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            OpenLoopDriver(object(), cpu_scale=-1.0)

    def test_quantile_helper(self):
        driver = _run_driver(cpu_scale=0.0)
        p50 = driver.quantile("op_sojourn_seconds", "insert", "wikipedia", 0.5)
        assert p50 is not None and p50 > 0.0
        assert driver.quantile(
            "op_sojourn_seconds", "insert", "nobody", 0.5
        ) is None


class TestOpenLoopShardRouting:
    def test_each_op_is_routed_once(self):
        schedule = compose_tenants(
            parse_tenants("wikipedia,oltp", target_bytes=60_000), 7
        )
        client = open_cluster(ClusterSpec(shards=2))
        OpenLoopDriver(client.cluster).run(schedule)
        router = client.cluster.router
        reference = ShardRouter(2, router.placement)
        for item in schedule:
            reference.route(item.op)
        assert router.counts == reference.counts
        assert router.cross_shard_misses == reference.cross_shard_misses
        assert sum(router.counts) == client.stats()["inserts"]
        assert client.check_invariants().ok

"""Hash-sharded topology: routing, execution, observability, faults."""

import pytest

from repro.api import ClusterSpec, open_cluster
from repro.db.invariants import ClusterInvariantError, check_cluster
from repro.db.sharding import ShardedCluster, ShardRouter, locality_key
from repro.obs.export import metrics_document, validate_metrics_document
from repro.sim.faults import CorruptPageReads, DropBatches, FaultPlan
from repro.workloads import WikipediaWorkload
from repro.workloads.base import Operation


def sharded(**overrides) -> ShardedCluster:
    defaults = dict(shards=4, insert_batch_size=4)
    defaults.update(overrides)
    return open_cluster(ClusterSpec(**defaults)).cluster


class TestLocalityKey:
    def test_strips_last_segment(self):
        assert locality_key("wiki/7/41") == "wiki/7"
        assert locality_key("mail/123") == "mail"

    def test_id_without_separator_is_its_own_key(self):
        assert locality_key("solo") == "solo"


class TestShardRouter:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ShardRouter(0)
        with pytest.raises(ValueError):
            ShardRouter(2, placement="random")

    def test_placement_is_deterministic(self):
        first = ShardRouter(8)
        second = ShardRouter(8)
        ids = [f"wiki/{a}/{r}" for a in range(20) for r in range(5)]
        assert [first.shard_of(i) for i in ids] == [
            second.shard_of(i) for i in ids
        ]

    def test_hash_placement_spreads_entities(self):
        router = ShardRouter(4, placement="hash")
        shards = {router.shard_of(f"wiki/7/{rev}") for rev in range(40)}
        assert len(shards) > 1  # revisions of one article scatter

    def test_prefix_placement_pins_entities(self):
        router = ShardRouter(4, placement="prefix")
        shards = {router.shard_of(f"wiki/7/{rev}") for rev in range(40)}
        assert len(shards) == 1  # revisions of one article stay together

    def test_hash_placement_balances_load(self):
        router = ShardRouter(4, placement="hash")
        for index in range(2000):
            router.route(Operation("insert", "db", f"doc/{index}", b"x"))
        assert sum(router.counts) == 2000
        assert min(router.counts) > 0
        assert max(router.counts) / (2000 / 4) < 1.3

    def test_cross_shard_miss_accounting(self):
        router = ShardRouter(4, placement="hash")
        # Find an article whose revisions land on different shards.
        for article in range(50):
            ids = [f"wiki/{article}/{rev}" for rev in range(6)]
            if len({router.shard_of(i) for i in ids}) > 1:
                break
        before = router.cross_shard_misses
        for record_id in ids:
            router.route(Operation("insert", "db", record_id, b"x"))
        assert router.cross_shard_misses > before
        assert router.entities_tracked >= 1

    def test_prefix_placement_never_misses(self):
        router = ShardRouter(4, placement="prefix")
        for article in range(10):
            for rev in range(6):
                router.route(
                    Operation("insert", "db", f"wiki/{article}/{rev}", b"x")
                )
        assert router.cross_shard_misses == 0

    def test_reads_do_not_count_as_routed_inserts(self):
        router = ShardRouter(2)
        router.route(Operation("read", "db", "doc/1"))
        assert sum(router.counts) == 0


class TestShardedExecution:
    def test_records_land_on_their_routed_shard(self):
        cluster = sharded()
        workload = WikipediaWorkload(seed=9, target_bytes=120_000)
        cluster.run(workload.insert_trace())
        for index, shard in enumerate(cluster.shards):
            for record_id in shard.primary.db.records:
                assert cluster.router.shard_of(record_id) == index

    def test_run_counts_and_convergence(self):
        cluster = sharded()
        workload = WikipediaWorkload(seed=9, target_bytes=120_000)
        result = cluster.run(workload.insert_trace())
        assert result.inserts == sum(cluster.router.counts)
        assert result.operations == result.inserts
        assert cluster.replicas_converged()

    def test_shards_share_one_clock(self):
        cluster = sharded()
        clocks = {id(shard.clock) for shard in cluster.shards}
        assert clocks == {id(cluster.clock)}

    def test_batch_advances_clock_by_slowest_shard(self):
        cluster = sharded(shards=2)
        ops = [
            Operation("insert", "db", f"doc/{i}", bytes(200) * (i + 1))
            for i in range(8)
        ]
        before = cluster.clock.now
        latency = cluster.execute_insert_batch(ops)
        assert cluster.clock.now == pytest.approx(before + latency)

    def test_mixed_trace_reads_route_home(self):
        cluster = sharded()
        workload = WikipediaWorkload(seed=9, target_bytes=120_000)
        result = cluster.run(workload.mixed_trace())
        assert result.reads > 0
        assert sum(s.reads for s in cluster.shards) == result.reads

    def test_summary_stats_aggregates(self):
        cluster = sharded()
        workload = WikipediaWorkload(seed=9, target_bytes=120_000)
        cluster.run(workload.insert_trace())
        stats = cluster.summary_stats()
        assert stats["shards"] == 4
        assert len(stats["per_shard"]) == 4
        assert stats["records"] == sum(
            s["records"] for s in stats["per_shard"]
        )
        assert stats["cross_shard_misses"] == cluster.router.cross_shard_misses

    def test_checkpoint_truncates_every_shard(self, tmp_path):
        cluster = sharded()
        workload = WikipediaWorkload(seed=9, target_bytes=120_000)
        cluster.run(workload.insert_trace())
        assert cluster.checkpoint(tmp_path / "ckpt") > 0

    def test_scrub_reports_per_shard_nodes(self):
        cluster = sharded(shards=2)
        repaired = cluster.scrub()
        assert set(repaired) == {
            "shard0/primary", "shard0/secondary0",
            "shard1/primary", "shard1/secondary0",
        }


class TestShardedObservability:
    def test_merged_metrics_document_is_valid(self):
        cluster = sharded()
        workload = WikipediaWorkload(seed=9, target_bytes=120_000)
        cluster.run(workload.insert_trace())
        document = metrics_document(
            cluster.registry, None, meta={"test": "sharding"}
        )
        validate_metrics_document(document)
        families = document["metrics"]
        assert "shard" in families["dedup_records_seen_total"]["labels"]
        shards_seen = {
            row["labels"]["shard"]
            for row in families["dedup_records_seen_total"]["values"]
        }
        assert shards_seen == {"0", "1", "2", "3"}

    def test_router_counters_exported(self):
        cluster = sharded()
        workload = WikipediaWorkload(seed=9, target_bytes=120_000)
        cluster.run(workload.insert_trace())
        families = cluster.registry.snapshot()
        routed = sum(
            row["value"]
            for row in families["router_records_routed_total"]["values"]
        )
        assert routed == sum(cluster.router.counts)
        (miss_row,) = families["router_cross_shard_misses_total"]["values"]
        assert miss_row["value"] == cluster.router.cross_shard_misses

    def test_shared_tracer_annotates_shards(self):
        cluster = sharded(trace=True)
        cluster.execute_insert_batch([
            Operation("insert", "db", f"doc/{i}", b"x" * 300)
            for i in range(8)
        ])
        batch_spans = [
            span for span in cluster.tracer.roots
            if span.name == "op:insert_batch"
        ]
        assert len({span.annotations["shard"] for span in batch_spans}) > 1


class TestShardedInvariants:
    def test_clean_run_passes(self):
        cluster = sharded()
        workload = WikipediaWorkload(seed=9, target_bytes=120_000)
        cluster.run(workload.insert_trace())
        report = check_cluster(cluster)
        assert report.ok
        assert report.nodes_checked == 8
        assert report.convergence_checked

    def test_misplaced_record_detected(self):
        cluster = sharded()
        workload = WikipediaWorkload(seed=9, target_bytes=60_000)
        cluster.run(workload.insert_trace())
        # Teleport one record onto the wrong shard.
        donor = next(s for s in cluster.shards if s.primary.db.records)
        victim_id = next(iter(donor.primary.db.records))
        home = cluster.router.shard_of(victim_id)
        wrong = cluster.shards[(home + 1) % len(cluster.shards)]
        wrong.primary.insert("wiki", victim_id, b"smuggled")
        with pytest.raises(ClusterInvariantError) as err:
            check_cluster(cluster)
        assert any(
            v.check == "placement" for v in err.value.report.violations
        )

    def test_per_shard_violations_carry_shard_prefix(self):
        cluster = sharded(shards=2)
        workload = WikipediaWorkload(seed=9, target_bytes=60_000)
        cluster.run(workload.insert_trace())
        target = cluster.shards[1]
        victim = next(iter(target.secondary.db.records))
        del target.secondary.db.records[victim]
        report = check_cluster(cluster, strict=False)
        assert not report.ok
        assert all(
            violation.node.startswith("shard1/")
            for violation in report.violations
        )


class TestShardedFaults:
    def test_per_shard_fault_plans(self):
        cluster = sharded(shards=2)
        plan = FaultPlan(
            seed=3,
            rules=[
                DropBatches(probability=0.5),
                CorruptPageReads(probability=0.2, sticky=True),
            ],
        )
        plan.install(cluster.shards[0])
        assert cluster.shards[0].fault_plan is plan
        assert cluster.shards[1].fault_plan is None
        workload = WikipediaWorkload(seed=9, target_bytes=60_000)
        cluster.run(workload.insert_trace())
        assert plan.injected > 0
        # Recovery machinery + drain leaves the topology clean.
        report = check_cluster(cluster)
        assert report.ok

    def test_unfaulted_shards_stay_untouched(self):
        cluster = sharded(shards=2)
        FaultPlan(seed=3, rules=[DropBatches(probability=0.5)]).install(
            cluster.shards[0]
        )
        assert cluster.shards[1].fault_plan is None

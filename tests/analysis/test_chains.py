"""Chain profiling of live databases."""

import pytest

from repro.analysis.chains import profile_chains
from repro.core.config import DedupConfig
from repro.api import ClusterSpec, open_cluster
from repro.db.database import Database
from repro.workloads.wikipedia import WikipediaWorkload


class TestProfileChains:
    def test_empty_database_rejected(self):
        with pytest.raises(ValueError):
            profile_chains(Database())

    def test_all_raw_database(self):
        db = Database()
        db.insert("d", "a", b"one")
        db.insert("d", "b", b"two")
        profile = profile_chains(db)
        assert profile.raw_records == 2
        assert profile.delta_records == 0
        assert profile.worst_decode_cost == 0
        assert profile.raw_fraction == 1.0

    def test_encoded_cluster_profile(self):
        cluster = open_cluster(ClusterSpec(dedup=DedupConfig(chunk_size=64))).cluster
        workload = WikipediaWorkload(seed=15, target_bytes=200_000)
        cluster.run(workload.insert_trace())
        profile = profile_chains(cluster.primary.db)
        assert profile.delta_records > profile.raw_records
        assert profile.worst_decode_cost >= profile.p90_decode_cost
        assert profile.chains == profile.raw_records
        assert profile.raw_fraction < 0.3
        assert "decode mean" in profile.render()

    def test_hop_bounds_decode_vs_backward(self):
        from itertools import islice

        def run(encoding):
            cluster = open_cluster(
                ClusterSpec(
                    dedup=DedupConfig(
                        chunk_size=64, encoding=encoding, hop_distance=4
                    )
                )
            ).cluster
            workload = WikipediaWorkload(
                seed=15, target_bytes=10**9, num_articles=1,
                median_article_bytes=3000,
            )
            cluster.run(islice(workload.insert_trace(), 40))
            return profile_chains(cluster.primary.db)

        backward = run("backward")
        hop = run("hop")
        assert hop.worst_decode_cost < backward.worst_decode_cost
        assert hop.mean_decode_cost < backward.mean_decode_cost

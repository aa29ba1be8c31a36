"""CLI: argument handling and command output."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.workload == "wikipedia"
        assert args.encoding == "hop"
        assert not args.no_dedup
        assert args.metrics_out is None
        assert args.trace_out is None
        assert args.sample_every is None

    @pytest.mark.parametrize("command", [
        ["run"],
        ["trace-replay", "some.trace"],
        ["experiment", "fig11"],
    ])
    def test_observability_flags_round_trip(self, command):
        args = build_parser().parse_args(command + [
            "--metrics-out", "m.json",
            "--trace-out", "t.json",
            "--sample-every", "10s",
        ])
        assert args.metrics_out == "m.json"
        assert args.trace_out == "t.json"
        assert args.sample_every == "10s"

    def test_check_metrics_requires_path(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["check-metrics"])
        args = build_parser().parse_args(["check-metrics", "m.json"])
        assert args.path == "m.json"


class TestCommands:
    def test_workloads_lists_all(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("wikipedia", "enron", "stackexchange", "messageboards"):
            assert name in out

    def test_run_prints_summary(self, capsys):
        assert main([
            "run", "--workload", "enron", "--target-bytes", "120000",
        ]) == 0
        out = capsys.readouterr().out
        assert "replicas converged: True" in out
        assert "stored (dedup)" in out

    def test_run_baseline_mode(self, capsys):
        assert main([
            "run", "--workload", "enron", "--target-bytes", "120000",
            "--no-dedup", "--block-compression", "zlib",
        ]) == 0
        out = capsys.readouterr().out
        assert "(1.00x)" in out  # dedup ratio is 1.0 without the engine

    def test_experiment_table2(self, capsys):
        assert main(["experiment", "table2"]) == 0
        out = capsys.readouterr().out
        assert "version-jumping" in out
        assert "hop" in out

    def test_experiment_fig15(self, capsys):
        assert main(["experiment", "fig15"]) == 0
        out = capsys.readouterr().out
        assert "xDelta" in out

    def test_trace_record_and_replay(self, capsys, tmp_path):
        path = str(tmp_path / "t.trace")
        assert main([
            "trace-record", path, "--workload", "enron",
            "--target-bytes", "60000",
        ]) == 0
        assert main(["trace-replay", path]) == 0
        out = capsys.readouterr().out
        assert "converged: True" in out

    def test_workloads_includes_extras(self, capsys):
        main(["workloads"])
        assert "oltp" in capsys.readouterr().out

    def test_run_check_invariants(self, capsys):
        assert main([
            "run", "--workload", "enron", "--target-bytes", "120000",
            "--check-invariants",
        ]) == 0
        out = capsys.readouterr().out
        assert "cluster invariants OK" in out

    def test_trace_replay_check_invariants(self, capsys, tmp_path):
        path = str(tmp_path / "t.trace")
        assert main([
            "trace-record", path, "--workload", "enron",
            "--target-bytes", "60000", "--trace", "mixed",
        ]) == 0
        assert main(["trace-replay", path, "--check-invariants"]) == 0
        out = capsys.readouterr().out
        assert "cluster invariants OK" in out

    def test_run_exports_observability_documents(self, capsys, tmp_path):
        import json

        metrics_path = tmp_path / "metrics.json"
        trace_path = tmp_path / "trace.json"
        assert main([
            "run", "--workload", "enron", "--target-bytes", "120000",
            "--metrics-out", str(metrics_path),
            "--trace-out", str(trace_path),
            "--sample-every", "50ops",
        ]) == 0
        out = capsys.readouterr().out
        assert "wrote metrics to" in out
        assert "source cache:" in out
        assert "write-back cache:" in out
        metrics = json.loads(metrics_path.read_text())
        assert metrics["schema"] == "repro.metrics/v1"
        assert metrics["series"]["samples"]
        trace = json.loads(trace_path.read_text())
        assert trace["schema"] == "repro.trace/v1"
        assert trace["roots"]

    def test_check_metrics_accepts_exported_run(self, capsys, tmp_path):
        metrics_path = tmp_path / "metrics.json"
        assert main([
            "run", "--workload", "enron", "--target-bytes", "60000",
            "--metrics-out", str(metrics_path),
        ]) == 0
        assert main(["check-metrics", str(metrics_path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_check_metrics_rejects_bad_documents(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "bogus/v9"}')
        assert main(["check-metrics", str(bad)]) == 1
        assert "PROBLEM" in capsys.readouterr().out
        assert main(["check-metrics", str(tmp_path / "missing.json")]) == 1

    def test_experiment_exports_metrics_bundle(self, capsys, tmp_path):
        import json

        metrics_path = tmp_path / "bundle.json"
        assert main([
            "experiment", "fig13b",
            "--metrics-out", str(metrics_path),
        ]) == 0
        bundle = json.loads(metrics_path.read_text())
        assert bundle["schema"] == "repro.metrics-set/v1"
        assert bundle["runs"]
        assert all(run["meta"]["label"] for run in bundle["runs"])
        assert main(["check-metrics", str(metrics_path)]) == 0

    def test_check_invariants_reports_violations(self, capsys, monkeypatch):
        from repro.db.cluster import Cluster

        original = Cluster.run

        def sabotage(self, trace, timeline_bucket_s=None):
            result = original(self, trace, timeline_bucket_s)
            # Lose a replicated record behind the checker's back.
            victim = next(iter(self.secondary.db.records))
            del self.secondary.db.records[victim]
            return result

        monkeypatch.setattr(Cluster, "run", sabotage)
        assert main([
            "run", "--workload", "enron", "--target-bytes", "60000",
            "--check-invariants",
        ]) == 1
        out = capsys.readouterr().out
        assert "cluster invariants FAILED" in out
        assert "convergence" in out


class TestShardedCommands:
    def test_run_with_shards_prints_per_shard_summary(self, capsys):
        assert main([
            "run", "--workload", "wikipedia", "--target-bytes", "120000",
            "--shards", "4", "--batch-size", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "shards:             4 (placement: hash)" in out
        assert "replicas converged: True" in out
        assert "cross-shard misses:" in out
        assert "shard 3:" in out

    def test_run_sharded_invariant_sweep(self, capsys):
        assert main([
            "run", "--workload", "wikipedia", "--target-bytes", "80000",
            "--shards", "2", "--placement", "prefix", "--check-invariants",
        ]) == 0
        out = capsys.readouterr().out
        assert "cluster invariants OK" in out

    def test_run_sharded_metrics_export_validates(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        assert main([
            "run", "--workload", "wikipedia", "--target-bytes", "80000",
            "--shards", "2", "--metrics-out", str(metrics_path),
        ]) == 0
        assert main(["check-metrics", str(metrics_path)]) == 0
        import json

        document = json.loads(metrics_path.read_text())
        assert "shard" in document["metrics"]["dedup_records_seen_total"]["labels"]

    def test_shard_scaling_experiment(self, capsys):
        assert main([
            "experiment", "shard-scaling", "--target-bytes", "80000",
            "--shard-counts", "1,2", "--check-invariants",
        ]) == 0
        out = capsys.readouterr().out
        assert "dedup ratio vs shard count" in out
        assert "prefix" in out

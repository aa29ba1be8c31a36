"""RunResult measurement helpers."""

import pytest

from repro.db.cluster import RunResult


def make_result(latencies):
    return RunResult(
        operations=len(latencies),
        inserts=len(latencies),
        reads=0,
        duration_s=sum(latencies),
        latencies_s=list(latencies),
        logical_bytes=1000,
        stored_bytes=500,
        physical_bytes=250,
        network_bytes=400,
        index_memory_bytes=64,
    )


class TestRunResult:
    def test_ratios(self):
        result = make_result([0.01])
        assert result.storage_compression_ratio == 2.0
        assert result.physical_compression_ratio == 4.0
        assert result.network_compression_ratio == 2.5

    def test_throughput(self):
        result = make_result([0.5, 0.5])
        assert result.throughput_ops == pytest.approx(2.0)

    def test_zero_division_guards(self):
        result = RunResult(
            operations=0, inserts=0, reads=0, duration_s=0.0, latencies_s=[],
            logical_bytes=0, stored_bytes=0, physical_bytes=0,
            network_bytes=0, index_memory_bytes=0,
        )
        assert result.throughput_ops == 0.0
        assert result.storage_compression_ratio == 1.0
        assert result.network_compression_ratio == 1.0

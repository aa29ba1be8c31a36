"""Encoding-scheme experiments: Fig. 14 and Table 2.

A single long version chain (one article, hundreds of revisions) is driven
through the full cluster under each encoding scheme; the three panels of
Fig. 14 — compression ratio normalized to standard backward encoding,
worst-case source retrievals, and write-back count — are read directly off
the database state afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.report import render_table
from repro.core.config import DedupConfig
from repro.db.cluster import Cluster
from repro.db.spec import ClusterSpec
from repro.encoding.analysis import (
    EncodingCosts,
    backward_costs,
    hop_costs,
    version_jumping_costs,
)
from repro.workloads.wikipedia import WikipediaWorkload


@dataclass(frozen=True)
class EncodingRunRow:
    """One (scheme, hop distance) point of Fig. 14."""

    scheme: str
    hop_distance: int
    compression_ratio: float
    normalized_ratio: float  # vs standard backward encoding
    worst_case_retrievals: int
    writebacks: int


@dataclass
class HopEncodingResult:
    backward_ratio: float
    backward_retrievals: int
    backward_writebacks: int
    rows: list[EncodingRunRow]

    def rows_for(self, scheme: str) -> list[EncodingRunRow]:
        """All rows of one scheme, in sweep order."""
        return [row for row in self.rows if row.scheme == scheme]

    def render(self) -> str:
        """Render this result as an aligned text table/summary."""
        header = (
            f"(backward encoding: ratio {self.backward_ratio:.2f}x, "
            f"worst-case retrievals {self.backward_retrievals}, "
            f"writebacks {self.backward_writebacks})"
        )
        table = render_table(
            "Fig. 14: hop encoding vs version jumping " + header,
            ["scheme", "H", "ratio", "vs backward", "worst retrievals", "writebacks"],
            [
                (
                    row.scheme,
                    row.hop_distance,
                    row.compression_ratio,
                    row.normalized_ratio,
                    row.worst_case_retrievals,
                    row.writebacks,
                )
                for row in self.rows
            ],
        )
        return table


def _run_chain(
    encoding: str, hop_distance: int, revisions: int, seed: int
) -> tuple[float, int, int]:
    """Drive one long chain; returns (ratio, worst retrievals, writebacks)."""
    dedup = DedupConfig(
        chunk_size=64,
        encoding=encoding,
        hop_distance=hop_distance,
        size_filter_enabled=False,
    )
    cluster = Cluster(ClusterSpec(dedup=dedup))
    workload = WikipediaWorkload(
        seed=seed,
        target_bytes=10_000_000_000,  # bounded by num_articles/revision cap below
        num_articles=1,
        median_article_bytes=3000,
    )
    trace = workload.insert_trace()
    count = 0
    for op in trace:
        cluster.execute(op)
        count += 1
        if count >= revisions:
            break
    cluster.finalize()
    db = cluster.primary.db
    ratio = db.logical_raw_bytes / db.stored_bytes if db.stored_bytes else 1.0
    worst = max(
        db.decode_cost(record_id)
        for record_id, record in db.records.items()
        if not record.deleted
    )
    return ratio, worst, db.writebacks_applied


def fig14(
    hop_distances: tuple[int, ...] = (4, 8, 12, 16, 20, 24, 28, 32),
    revisions: int = 200,
    seed: int = 7,
) -> HopEncodingResult:
    """Fig. 14: sweep hop distance for hop encoding and version jumping."""
    backward_ratio, backward_worst, backward_wb = _run_chain(
        "backward", 16, revisions, seed
    )
    rows = []
    for scheme, encoding in (("hop", "hop"), ("version-jumping", "version-jumping")):
        for h in hop_distances:
            ratio, worst, writebacks = _run_chain(encoding, h, revisions, seed)
            rows.append(
                EncodingRunRow(
                    scheme=scheme,
                    hop_distance=h,
                    compression_ratio=ratio,
                    normalized_ratio=ratio / backward_ratio,
                    worst_case_retrievals=worst,
                    writebacks=writebacks,
                )
            )
    return HopEncodingResult(
        backward_ratio=backward_ratio,
        backward_retrievals=backward_worst,
        backward_writebacks=backward_wb,
        rows=rows,
    )


@dataclass
class Table2Result:
    """Analytic (Table 2) vs formula inputs for a chain configuration."""

    chain_length: int
    hop_distance: int
    base_size: float
    delta_size: float
    backward: EncodingCosts
    version_jumping: EncodingCosts
    hop: EncodingCosts

    def render(self) -> str:
        """Render this result as an aligned text table/summary."""
        return render_table(
            f"Table 2: encoding scheme cost model "
            f"(N={self.chain_length}, H={self.hop_distance}, "
            f"Sb={self.base_size:.0f}, Sd={self.delta_size:.0f})",
            ["scheme", "storage bytes", "worst retrievals", "writebacks"],
            [
                (costs.scheme, costs.storage_bytes, costs.worst_case_retrievals,
                 costs.writebacks)
                for costs in (self.backward, self.version_jumping, self.hop)
            ],
        )


def table2(
    chain_length: int = 200,
    hop_distance: int = 16,
    base_size: float = 6000.0,
    delta_size: float = 300.0,
) -> Table2Result:
    """Table 2: the closed-form trade-off summary."""
    return Table2Result(
        chain_length=chain_length,
        hop_distance=hop_distance,
        base_size=base_size,
        delta_size=delta_size,
        backward=backward_costs(chain_length, base_size, delta_size),
        version_jumping=version_jumping_costs(
            chain_length, hop_distance, base_size, delta_size
        ),
        hop=hop_costs(chain_length, hop_distance, base_size, delta_size),
    )

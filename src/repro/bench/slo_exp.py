"""SLO sweep: max sustainable open-loop arrival rate per topology.

For each scenario in a (shards × admission mode) matrix, the experiment
replays the same multi-tenant open-loop schedule
(:mod:`repro.workloads.tenants`) and asks the production question the
closed-loop experiments cannot: *at what arrival rate does the tail
blow past the SLO?* A probe at rate scale ``s`` keeps every tenant's
work fixed but compresses its arrivals by ``s``; the scenario is
*sustainable* at ``s`` when the overall sojourn p99 (completion −
arrival, queueing included) stays within the target. A geometric
expansion followed by bisection brackets the largest sustainable scale,
reported as ``max_sustainable_rate_ops_s = s · Σ tenant base rates``.

The result renders as a table and exports as a versioned
``repro.slo/v1`` bundle (validated by ``check-metrics``): per-tenant
p50/p99/p999 sojourn, per-tenant dedup ratio, first-class event counts
(admission deferrals, backpressure stalls, failover stalls), and — per
shard count with both modes present — an inline-vs-hybrid comparison
of the *deferred* tenant's insert sojourn p99, the measurable form of
"deferring a low-yield stream takes its sketching tax off its own
arrival path".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.api import ClusterSpec, open_cluster
from repro.bench.report import render_table
from repro.core.config import DedupConfig
from repro.sim.costs import CostModel
from repro.obs.export import SLO_SCHEMA_VERSION, metrics_document
from repro.util.stats import histogram_quantile
from repro.workloads.tenants import (
    OpenLoopDriver,
    TenantSpec,
    compose_tenants,
)

#: Admission modes swept by default (inline first: the baseline the
#: comparison section is anchored on).
DEFAULT_MODES = ("inline", "hybrid")

#: Quantiles every tenant row reports, as (json key, q) pairs.
QUANTILES = (("p50_s", 0.50), ("p99_s", 0.99), ("p999_s", 0.999))

#: Default chunking-CPU scale for the sweep's cost model. The stock
#: :class:`~repro.sim.costs.CostModel` charges chunking + feature
#: extraction at a dedicated core's ~400 MB/s, which makes the
#: admission-path CPU tax invisible next to millisecond disk seeks. The
#: sweep instead models the HPDedup premise — a primary whose core is
#: shared with query processing, compaction and replication — by
#: multiplying ``cpu_chunk_byte_s`` (the per-byte cost *every* incoming
#: stream pays, yield or no yield) by this factor. Delta compression
#: keeps its paper-calibrated rate: it runs only on admitted duplicates
#: and earns its cost in network savings. This is exactly the knob that
#: makes admission policy measurable: deferring a low-yield stream
#: moves its (now expensive) sketching out of dense arrival windows.
DEFAULT_CPU_SCALE = 2000.0


@dataclass(frozen=True)
class SloScenario:
    """One topology point of the sweep matrix."""

    shards: int
    admission_mode: str

    @property
    def label(self) -> str:
        """Human-readable scenario key, e.g. ``shards=2/hybrid``."""
        return f"shards={self.shards}/{self.admission_mode}"


@dataclass
class SloResult:
    """Full sweep outcome: one probe row per scenario, plus comparisons."""

    seed: int
    tenants: tuple[TenantSpec, ...]
    slo_p99_s: float
    cpu_scale: float = DEFAULT_CPU_SCALE
    scenarios: list[dict] = field(default_factory=list)
    comparisons: list[dict] = field(default_factory=list)

    @property
    def base_rate_ops_s(self) -> float:
        """Sum of every tenant's base arrival rate."""
        return sum(spec.rate_ops_s for spec in self.tenants)

    def render(self) -> str:
        """Aligned monospace table of the sweep."""
        tenant_names = [spec.name for spec in self.tenants]
        rows = []
        for scenario in self.scenarios:
            per_tenant = scenario["tenants"]
            rows.append(
                (
                    scenario["label"],
                    _fmt_rate(scenario["max_sustainable_rate_ops_s"]),
                    *(
                        _fmt_q(per_tenant[name]["p99_s"])
                        for name in tenant_names
                    ),
                    int(scenario["events"].get("admission_defer", 0)),
                    int(scenario["events"].get("backpressure_stall", 0)),
                    int(scenario["events"].get("failover_stall", 0)),
                    f"{scenario['dedup_ratio']:.2f}x",
                )
            )
        table = render_table(
            f"SLO sweep — open-loop sojourn p99 <= {self.slo_p99_s * 1e3:.0f}"
            f" ms (seed={self.seed}, base rate "
            f"{self.base_rate_ops_s:.0f} ops/s)",
            ["scenario", "max rate",
             *(f"{name} p99" for name in tenant_names),
             "defers", "bp stalls", "fo stalls", "dedup"],
            rows,
        )
        for row in self.comparisons:
            who = row["tenant"] or "all tenants"
            table += (
                f"\ninsert sojourn p99 ({who}) shards={row['shards']}: "
                f"inline={_fmt_q(row['inline_insert_p99_s'])} vs "
                f"hybrid={_fmt_q(row['hybrid_insert_p99_s'])} "
                f"({row['improvement_pct']:+.1f}% better with defer)"
            )
        return table

    def document(self) -> dict:
        """The JSON-ready ``repro.slo/v1`` bundle."""
        return {
            "schema": SLO_SCHEMA_VERSION,
            "meta": {
                "seed": self.seed,
                "slo_p99_s": self.slo_p99_s,
                "cpu_scale": self.cpu_scale,
                "base_rate_ops_s": self.base_rate_ops_s,
                "tenants": [
                    {
                        "name": spec.name,
                        "workload": spec.workload,
                        "rate_ops_s": spec.rate_ops_s,
                        "target_bytes": spec.target_bytes,
                    }
                    for spec in self.tenants
                ],
            },
            "scenarios": self.scenarios,
            "comparisons": self.comparisons,
        }


def _fmt_rate(rate: float | None) -> str:
    return f"{rate:.0f} ops/s" if rate is not None else "n/a"


def _fmt_q(value: float | None) -> str:
    if value is None:
        return "inf"
    if value < 1.0:
        return f"{value * 1e3:.2f} ms"
    return f"{value:.3f} s"


def _json_quantile(value: float) -> float | None:
    """JSON-safe quantile: ``inf`` (overflow bucket) becomes ``null``."""
    return None if not math.isfinite(value) else value


def _merged_quantiles(driver: OpenLoopDriver, tenant: str) -> dict:
    """One tenant's sojourn quantiles, merged across op kinds.

    The histogram children are keyed ``(op, tenant)`` with identical
    bucket bounds, so the per-tenant distribution is the element-wise
    sum of the matching children's bucket counts.
    """
    family = driver.registry.get("op_sojourn_seconds")
    bounds: tuple[float, ...] = ()
    merged: list[int] = []
    ops = 0
    for key, child in sorted(family._children.items()):
        if key[1] != tenant:
            continue
        bounds = child.bounds
        if not merged:
            merged = list(child.bucket_counts)
        else:
            merged = [a + b for a, b in zip(merged, child.bucket_counts)]
        ops += child.count
    row: dict = {"ops": ops}
    for json_key, q in QUANTILES:
        row[json_key] = (
            _json_quantile(histogram_quantile(bounds, merged, q))
            if ops
            else None
        )
    return row


def _snapshot_family(snapshot: dict, name: str) -> list[dict]:
    family = snapshot.get(name)
    if not isinstance(family, dict):
        return []
    return family.get("values", [])


def _tenant_dedup_ratios(snapshot: dict, tenants: list[str]) -> dict:
    """Per-tenant network dedup ratio: raw bytes in / oplog bytes out.

    Rows carry a ``scope`` label (the logical database == tenant name)
    and, on sharded topologies, a ``shard`` label the sum folds away.
    """
    bytes_in: dict[str, float] = {}
    bytes_out: dict[str, float] = {}
    for out, name in (
        (bytes_in, "dedup_bytes_in_total"),
        (bytes_out, "dedup_oplog_bytes_out_total"),
    ):
        for row in _snapshot_family(snapshot, name):
            scope = row["labels"].get("scope", "")
            out[scope] = out.get(scope, 0.0) + float(row["value"])
    return {
        tenant: (
            bytes_in.get(tenant, 0.0) / bytes_out[tenant]
            if bytes_out.get(tenant)
            else 1.0
        )
        for tenant in tenants
    }


def _deferred_tenant(snapshot: dict) -> str | None:
    """The tenant with the most ``admission_defer`` events, if any.

    This is the stream whose encode work the governor moved off the
    arrival path — the one whose inline tail the comparison section
    tracks across admission modes.
    """
    defers: dict[str, float] = {}
    for row in _snapshot_family(snapshot, "slo_events_total"):
        if row["labels"].get("event") != "admission_defer":
            continue
        tenant = row["labels"].get("tenant", "")
        defers[tenant] = defers.get(tenant, 0.0) + float(row["value"])
    if not defers:
        return None
    return max(sorted(defers), key=lambda name: defers[name])


def _event_counts(snapshot: dict) -> dict[str, float]:
    """Fold ``slo_events_total`` by event kind (tenant + shard away)."""
    events: dict[str, float] = {}
    for row in _snapshot_family(snapshot, "slo_events_total"):
        event = row["labels"].get("event", "")
        events[event] = events.get(event, 0.0) + float(row["value"])
    return events


def _kind_quantile(
    driver: OpenLoopDriver, family_name: str, op: str, q: float
) -> float | None:
    """One op kind's quantile across every tenant, from one family."""
    family = driver.registry.get(family_name)
    bounds: tuple[float, ...] = ()
    merged: list[int] = []
    total = 0
    for key, child in sorted(family._children.items()):
        if key[0] != op:
            continue
        bounds = child.bounds
        if not merged:
            merged = list(child.bucket_counts)
        else:
            merged = [a + b for a, b in zip(merged, child.bucket_counts)]
        total += child.count
    if not total:
        return None
    return _json_quantile(histogram_quantile(bounds, merged, q))


def _build_client(
    scenario: SloScenario, chunk_size: int, window: int, cpu_scale: float
):
    base = CostModel()
    costs = replace(
        base, cpu_chunk_byte_s=base.cpu_chunk_byte_s * cpu_scale
    )
    spec = ClusterSpec(
        dedup=DedupConfig(
            chunk_size=chunk_size,
            governor_window=window,
            admission_mode=scenario.admission_mode,
        ),
        shards=scenario.shards,
        placement="prefix",
        costs=costs,
    )
    return open_cluster(spec)


def run_probe(
    tenants: list[TenantSpec],
    scenario: SloScenario,
    seed: int,
    rate_scale: float,
    slo_p99_s: float,
    chunk_size: int = 64,
    window: int = 128,
    cpu_scale: float = DEFAULT_CPU_SCALE,
    embed_metrics: bool = False,
) -> dict:
    """One open-loop replay of the tenant schedule at ``rate_scale``.

    Returns the probe row: the topology of the spec that ran, per-tenant
    quantiles/ops, event counts, dedup ratios, the sustainability
    verdict, and (optionally) the full embedded metrics document of the
    cluster.
    """
    schedule = compose_tenants(tenants, seed, rate_scale)
    client = _build_client(scenario, chunk_size, window, cpu_scale)
    driver = OpenLoopDriver(client.cluster)
    operations = driver.run(schedule)

    tenant_names = [spec.name for spec in tenants]
    snapshot = client.registry.snapshot()
    ratios = _tenant_dedup_ratios(snapshot, tenant_names)
    tenant_rows = {}
    for name in tenant_names:
        row = _merged_quantiles(driver, name)
        row["dedup_ratio"] = ratios[name]
        insert_p99 = driver.quantile(
            "op_sojourn_seconds", "insert", name, 0.99
        )
        row["insert_p99_s"] = (
            None if insert_p99 is None else _json_quantile(insert_p99)
        )
        tenant_rows[name] = row

    overall = _merged_overall_quantile(driver, 0.99)
    sustainable = overall is not None and overall <= slo_p99_s
    spec = client.spec
    probe = {
        "topology": {
            "shards": spec.shards,
            "admission_mode": spec.dedup.admission_mode,
            "placement": spec.placement,
            "num_secondaries": spec.num_secondaries,
        },
        "rate_scale": rate_scale,
        "rate_ops_s": rate_scale * sum(s.rate_ops_s for s in tenants),
        "operations": operations,
        "duration_s": client.clock.now,
        "overall_p99_s": overall,
        "sustainable": sustainable,
        "tenants": tenant_rows,
        "events": _event_counts(snapshot),
        "deferred_tenant": _deferred_tenant(snapshot),
        "dedup_ratio": client.stats()["storage_compression_ratio"],
        "insert_p99_s": _kind_quantile(
            driver, "op_sojourn_seconds", "insert", 0.99
        ),
        "insert_service_p99_s": _kind_quantile(
            driver, "op_service_seconds", "insert", 0.99
        ),
        "cpu_stall_s": driver.registry.total(
            "openloop_cpu_stall_seconds_total"
        ),
    }
    if embed_metrics:
        probe["metrics"] = metrics_document(
            client.registry,
            getattr(client.cluster, "sampler", None),
            meta={"label": scenario.label, "rate_scale": rate_scale},
        )
    return probe


def _merged_overall_quantile(
    driver: OpenLoopDriver, q: float
) -> float | None:
    """Sojourn quantile over every tenant and op kind together."""
    family = driver.registry.get("op_sojourn_seconds")
    bounds: tuple[float, ...] = ()
    merged: list[int] = []
    total = 0
    for _key, child in sorted(family._children.items()):
        bounds = child.bounds
        if not merged:
            merged = list(child.bucket_counts)
        else:
            merged = [a + b for a, b in zip(merged, child.bucket_counts)]
        total += child.count
    if not total:
        return None
    value = histogram_quantile(bounds, merged, q)
    return None if not math.isfinite(value) else value


def find_max_rate(
    tenants: list[TenantSpec],
    scenario: SloScenario,
    seed: int,
    slo_p99_s: float,
    base_probe: dict,
    chunk_size: int = 64,
    window: int = 128,
    cpu_scale: float = DEFAULT_CPU_SCALE,
    doublings: int = 3,
    bisections: int = 4,
) -> tuple[float | None, list[dict]]:
    """Bracket the largest sustainable rate scale for one scenario.

    Starting from the scale-1.0 ``base_probe``: geometric expansion
    (doubling while sustainable, halving while not) finds a bracket,
    then ``bisections`` rounds tighten it. Returns
    ``(max_rate_ops_s or None, probe rows)`` — None when even the
    smallest probed scale blows the SLO.
    """

    def probe(scale: float) -> dict:
        return run_probe(
            tenants, scenario, seed, scale, slo_p99_s,
            chunk_size=chunk_size, window=window, cpu_scale=cpu_scale,
        )

    probes: list[dict] = []
    base_rate = sum(spec.rate_ops_s for spec in tenants)
    low: float | None = None  # largest known-sustainable scale
    high: float | None = None  # smallest known-unsustainable scale
    if base_probe["sustainable"]:
        low = 1.0
        scale = 1.0
        for _ in range(doublings):
            scale *= 2.0
            row = probe(scale)
            probes.append(row)
            if row["sustainable"]:
                low = scale
            else:
                high = scale
                break
    else:
        high = 1.0
        scale = 1.0
        for _ in range(doublings):
            scale /= 2.0
            row = probe(scale)
            probes.append(row)
            if row["sustainable"]:
                low = scale
                break
            high = scale
    if low is None:
        return None, probes
    if high is None:
        # Sustainable at every probed scale; report the largest probed.
        return low * base_rate, probes
    for _ in range(bisections):
        mid = (low + high) / 2.0
        row = probe(mid)
        probes.append(row)
        if row["sustainable"]:
            low = mid
        else:
            high = mid
    return low * base_rate, probes


def slo_experiment(
    tenants: list[TenantSpec],
    seed: int = 7,
    shard_counts: tuple[int, ...] = (1, 2),
    admission_modes: tuple[str, ...] = DEFAULT_MODES,
    slo_p99_s: float = 0.060,
    chunk_size: int = 64,
    window: int = 128,
    cpu_scale: float = DEFAULT_CPU_SCALE,
    rate_search: bool = True,
    doublings: int = 3,
    bisections: int = 4,
) -> SloResult:
    """The full sweep: every (shards × admission mode) scenario.

    Each scenario contributes one row built from its base (scale 1.0)
    probe — which also embeds the full metrics document for
    ``check-metrics`` reconciliation — plus, when ``rate_search`` is on,
    the bracketed max sustainable rate. Scenario pairs sharing a shard
    count with both ``inline`` and ``hybrid`` present land in the
    comparison section: the deferred tenant's insert sojourn p99 side
    by side, the direct measurement of deferred admission taking
    low-yield sketching off that stream's arrival path.
    """
    result = SloResult(
        seed=seed, tenants=tuple(tenants), slo_p99_s=slo_p99_s,
        cpu_scale=cpu_scale,
    )
    by_key: dict[tuple[int, str], dict] = {}
    for shards in shard_counts:
        for mode in admission_modes:
            scenario = SloScenario(shards=shards, admission_mode=mode)
            base = run_probe(
                tenants, scenario, seed, 1.0, slo_p99_s,
                chunk_size=chunk_size, window=window,
                cpu_scale=cpu_scale, embed_metrics=True,
            )
            max_rate: float | None = base["rate_ops_s"] if base[
                "sustainable"
            ] else None
            search_probes: list[dict] = []
            if rate_search:
                max_rate, search_probes = find_max_rate(
                    tenants, scenario, seed, slo_p99_s, base,
                    chunk_size=chunk_size, window=window,
                    cpu_scale=cpu_scale,
                    doublings=doublings, bisections=bisections,
                )
            row = {
                "label": scenario.label,
                "topology": base["topology"],
                "base_rate_ops_s": base["rate_ops_s"],
                "max_sustainable_rate_ops_s": max_rate,
                "tenants": base["tenants"],
                "events": base["events"],
                "dedup_ratio": base["dedup_ratio"],
                "overall_p99_s": base["overall_p99_s"],
                "insert_p99_s": base["insert_p99_s"],
                "insert_service_p99_s": base["insert_service_p99_s"],
                "cpu_stall_s": base["cpu_stall_s"],
                "deferred_tenant": base["deferred_tenant"],
                "search_probes": [
                    {
                        key: value
                        for key, value in probe.items()
                        if key not in ("metrics", "topology")
                    }
                    for probe in search_probes
                ],
                "metrics": base.get("metrics"),
            }
            result.scenarios.append(row)
            by_key[(shards, mode)] = row
    for shards in shard_counts:
        inline = by_key.get((shards, "inline"))
        hybrid = by_key.get((shards, "hybrid"))
        if inline is None or hybrid is None:
            continue
        # Track the stream whose work `defer` actually moved: its
        # inline-mode insert tail includes the sketching tax it pays
        # for zero yield; hybrid admission takes that off its path.
        tenant = hybrid["deferred_tenant"]
        if tenant is not None and tenant in inline["tenants"]:
            a = inline["tenants"][tenant]["insert_p99_s"]
            b = hybrid["tenants"][tenant]["insert_p99_s"]
        else:
            a = inline["insert_p99_s"]
            b = hybrid["insert_p99_s"]
        improvement = (
            100.0 * (a - b) / a if a and b is not None else 0.0
        )
        result.comparisons.append(
            {
                "shards": shards,
                "tenant": tenant,
                "inline_insert_p99_s": a,
                "hybrid_insert_p99_s": b,
                "inline_cpu_stall_s": inline["cpu_stall_s"],
                "hybrid_cpu_stall_s": hybrid["cpu_stall_s"],
                "improvement_pct": improvement,
            }
        )
    return result

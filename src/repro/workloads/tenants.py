"""Open-loop multi-tenant traffic: seeded arrivals against the sim clock.

Every experiment before this module was *closed-loop*: the next operation
started the instant the previous one finished, so queueing delay could
not exist and "latency" meant service time only. Production load is
open-loop — clients arrive when they arrive, and an overloaded system
accumulates a queue whose waiting time dominates the tail. This module
supplies the missing half:

* :class:`TenantSpec` — one tenant: a workload mix plus an arrival
  process (Poisson base rate, diurnal sine modulation, burst windows);
* :class:`ArrivalProcess` — the seeded non-homogeneous Poisson sampler
  (Lewis–Shedler thinning), deterministic per ``(seed, tenant)``;
* :func:`compose_tenants` — merge N tenants' timed operations into one
  arrival-ordered schedule;
* :class:`OpenLoopDriver` — replay the schedule against a cluster,
  idling the simulation up to each arrival and recording *sojourn* time
  (completion − arrival = queueing + service) in its own histograms.

All randomness flows through named, seeded ``random.Random`` instances
derived via :func:`derive_seed` (murmur3 of the stream name — stable
across PYTHONHASHSEED), so two same-seed runs are byte-identical.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.hashing.murmur import murmur3_32
from repro.obs.registry import OP_LATENCY_BUCKETS_S, MetricsRegistry
from repro.workloads.base import Operation

#: Tenant label carried by operations with no tenant context.
DEFAULT_TENANT_RATE_OPS_S = 60.0


def derive_seed(base: int, name: str) -> int:
    """A child seed for the named RNG stream, stable across processes.

    Hashing the stream *name* with murmur3 (rather than Python's
    randomized ``hash``) keeps derived seeds identical across
    PYTHONHASHSEED values — the property the byte-identical-bundle
    determinism test pins down.
    """
    return murmur3_32(name.encode("utf-8"), base & 0xFFFFFFFF)


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: a workload mix plus an arrival-process shape.

    Attributes:
        name: tenant label (becomes the logical database / dedup
            partition and the ``tenant`` metric label).
        workload: source workload name (``wikipedia``/``enron``/
            ``stackexchange``/``messageboards``/``oltp``).
        rate_ops_s: base Poisson arrival rate, operations per simulated
            second.
        diurnal_amplitude: relative amplitude of the sine modulation
            (0 disables it; 0.3 means the rate swings ±30%).
        diurnal_period_s: period of one simulated "day".
        burst_factor: rate multiplier inside a burst window (1 disables
            bursts).
        burst_duration_s: length of each burst window.
        mean_burst_gap_s: mean (exponential) gap between burst windows.
        target_bytes: raw bytes of workload trace to generate.
    """

    name: str
    workload: str
    rate_ops_s: float = DEFAULT_TENANT_RATE_OPS_S
    diurnal_amplitude: float = 0.3
    diurnal_period_s: float = 600.0
    burst_factor: float = 3.0
    burst_duration_s: float = 5.0
    mean_burst_gap_s: float = 120.0
    target_bytes: int = 200_000

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.rate_ops_s <= 0:
            raise ValueError(f"rate_ops_s must be > 0, got {self.rate_ops_s}")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError(
                f"diurnal_amplitude must be in [0, 1), got "
                f"{self.diurnal_amplitude}"
            )
        if self.burst_factor < 1.0:
            raise ValueError(
                f"burst_factor must be >= 1, got {self.burst_factor}"
            )
        if self.burst_duration_s <= 0 or self.mean_burst_gap_s <= 0:
            raise ValueError("burst duration and gap must be > 0")


@dataclass(frozen=True)
class TimedOperation:
    """One operation with its open-loop arrival time.

    ``seq`` is the per-tenant sequence number; the global schedule is
    ordered by ``(at_s, tenant, seq)`` so ties break deterministically.
    """

    at_s: float
    tenant: str
    seq: int
    op: Operation

    @property
    def sort_key(self) -> tuple[float, str, int]:
        """Total order of the merged schedule."""
        return (self.at_s, self.tenant, self.seq)


class ArrivalProcess:
    """Seeded non-homogeneous Poisson arrivals for one tenant.

    The instantaneous rate is::

        rate(t) = base · (1 + A·sin(2πt/P)) · boost(t)

    where ``boost(t)`` is ``burst_factor`` inside lazily generated burst
    windows (exponential inter-burst gaps) and 1 elsewhere. Sampling
    uses Lewis–Shedler thinning: candidate arrivals at the envelope rate
    ``λmax = base·(1+A)·burst_factor`` are accepted with probability
    ``rate(t)/λmax``. Candidates are generated in increasing ``t``, so
    the lazy burst schedule only ever advances.
    """

    def __init__(
        self, spec: TenantSpec, base_seed: int, rate_scale: float = 1.0
    ) -> None:
        if rate_scale <= 0:
            raise ValueError(f"rate_scale must be > 0, got {rate_scale}")
        self.spec = spec
        self.rate_ops_s = spec.rate_ops_s * rate_scale
        self._rng = random.Random(
            derive_seed(base_seed, f"arrivals/{spec.name}")
        )
        self._burst_rng = random.Random(
            derive_seed(base_seed, f"bursts/{spec.name}")
        )
        self._burst_start = math.inf
        self._burst_end = 0.0
        self._schedule_next_burst(after=0.0)

    def _schedule_next_burst(self, after: float) -> None:
        if self.spec.burst_factor <= 1.0:
            self._burst_start = math.inf
            self._burst_end = math.inf
            return
        gap = self._burst_rng.expovariate(1.0 / self.spec.mean_burst_gap_s)
        self._burst_start = after + gap
        self._burst_end = self._burst_start + self.spec.burst_duration_s

    def _boost(self, t: float) -> float:
        while t >= self._burst_end:
            self._schedule_next_burst(after=self._burst_end)
        if t >= self._burst_start:
            return self.spec.burst_factor
        return 1.0

    def rate_at(self, t: float) -> float:
        """The instantaneous arrival rate at simulated time ``t``.

        Monotone-``t`` calls only (the lazy burst schedule advances).
        """
        spec = self.spec
        diurnal = 1.0 + spec.diurnal_amplitude * math.sin(
            2.0 * math.pi * t / spec.diurnal_period_s
        )
        return self.rate_ops_s * diurnal * self._boost(t)

    def times(self) -> Iterator[float]:
        """Yield arrival times in increasing order, forever."""
        spec = self.spec
        lam_max = (
            self.rate_ops_s * (1.0 + spec.diurnal_amplitude)
            * spec.burst_factor
        )
        t = 0.0
        while True:
            t += self._rng.expovariate(lam_max)
            if self._rng.random() * lam_max <= self.rate_at(t):
                yield t


def tenant_operations(
    spec: TenantSpec, base_seed: int
) -> list[Operation]:
    """The tenant's trace, rewritten into its own namespace.

    Operations come from the workload's mixed trace with idles removed
    (the open loop supplies its own gaps — a closed-loop idle would
    double-count quiet time). Records are rewritten to
    ``database=tenant`` and ``record_id="tenant/<original>"``: each
    tenant dedups in its own partition and record ids cannot collide
    across tenants, while the id *prefix* keeps locality-preserving
    placement meaningful.
    """
    from repro.workloads import make_workload

    workload = make_workload(
        spec.workload,
        seed=derive_seed(base_seed, f"workload/{spec.name}"),
        target_bytes=spec.target_bytes,
    )
    ops = []
    for op in workload.mixed_trace():
        if op.kind == "idle":
            continue
        ops.append(
            Operation(
                kind=op.kind,
                database=spec.name,
                record_id=f"{spec.name}/{op.record_id}",
                content=op.content,
            )
        )
    return ops


def compose_tenants(
    specs: Sequence[TenantSpec],
    base_seed: int,
    rate_scale: float = 1.0,
) -> list[TimedOperation]:
    """Merge every tenant's timed trace into one arrival-ordered schedule.

    Each tenant's operations (fixed work, from its workload trace) are
    assigned arrival times from its own seeded process; ``rate_scale``
    multiplies every tenant's rate uniformly — the knob the sustainable-
    rate search turns (same work, compressed arrivals).
    """
    names = [spec.name for spec in specs]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate tenant names in {names}")

    def timed(spec: TenantSpec) -> Iterator[TimedOperation]:
        ops = tenant_operations(spec, base_seed)
        arrivals = ArrivalProcess(spec, base_seed, rate_scale)
        for seq, (at_s, op) in enumerate(zip(arrivals.times(), ops)):
            yield TimedOperation(at_s=at_s, tenant=spec.name, seq=seq, op=op)

    streams = [timed(spec) for spec in specs]
    return list(
        heapq.merge(*streams, key=lambda item: item.sort_key)
    )


class OpenLoopDriver:
    """Replay a timed schedule against a cluster, measuring sojourn time.

    The driver owns a *private* metrics registry (separate from the
    cluster's, which on sharded topologies is a per-shard merge): per
    tenant and op kind it records

    * ``op_sojourn_seconds`` — completion − arrival, the client-
      experienced latency including queueing delay and encode-CPU
      stalls;
    * ``op_service_seconds`` — the cluster's service time alone;
    * ``openloop_arrivals_total`` / ``openloop_queued_ops_total`` —
      arrivals, and how many found the system still busy;
    * ``openloop_cpu_stall_seconds_total`` — time operations waited for
      their shard's encode-CPU backlog to clear.

    **CPU contention model.** The cluster charges dedup encode as
    ``background_cpu_seconds`` — off the client's critical path, which
    is dbDedup's design and correct closed-loop. Open-loop it cannot be
    free: each shard's primary is one machine, and background encode
    occupies it between requests. The driver therefore keeps a per-shard
    *CPU backlog* — background seconds generated but not yet executed.
    Idle gaps between arrivals pay the backlog down (that is exactly
    what "encode in the background" means); an operation arriving while
    its shard still owes CPU waits for the backlog first. This is the
    mechanism that makes admission ``defer`` measurable: deferring a
    low-yield stream moves its encode CPU out of dense arrival windows
    and into the gaps, flattening the sojourn tail.

    The model lives entirely in this driver — closed-loop experiments
    and their baselines are untouched.

    ``cpu_scale`` calibrates the machine. The ``CostModel`` charges
    encode at a dedicated modern core's throughput (~400 MB/s gear
    sketching), which makes encode CPU invisible next to millisecond
    disk seeks. Open-loop we model the HPDedup premise instead — a
    primary whose CPU is *shared* with query processing, compaction and
    replication, so each background-encode second occupies the machine
    ``cpu_scale`` times longer than the dedicated-core charge. The scale
    multiplies accrued backlog only; the cluster's own CPU accounting
    (``admission_*_cpu_seconds_total`` etc.) stays in dedicated-core
    units so closed-loop numbers remain comparable across experiments.
    """

    def __init__(self, cluster, cpu_scale: float = 1.0) -> None:
        if cpu_scale < 0:
            raise ValueError(f"cpu_scale must be >= 0, got {cpu_scale}")
        self.cluster = cluster
        self.cpu_scale = float(cpu_scale)
        #: Per-shard machines: a plain cluster is its own single shard.
        self._shards = list(cluster.shards)
        self._router = getattr(cluster, "router", None)
        self._cpu_levels = [
            shard.primary.background_cpu_seconds for shard in self._shards
        ]
        self._cpu_backlogs = [0.0] * len(self._shards)
        self.registry = MetricsRegistry()
        labels = ("op", "tenant")
        self._sojourn = self.registry.histogram(
            "op_sojourn_seconds",
            "Open-loop completion minus arrival time (queueing + service)",
            labels, buckets=OP_LATENCY_BUCKETS_S,
        )
        self._service = self.registry.histogram(
            "op_service_seconds",
            "Open-loop service time alone (the cluster-reported latency)",
            labels, buckets=OP_LATENCY_BUCKETS_S,
        )
        self._arrivals = self.registry.counter(
            "openloop_arrivals_total",
            "Operations that arrived, per tenant", ("tenant",),
        )
        self._queued = self.registry.counter(
            "openloop_queued_ops_total",
            "Arrivals that found the system still busy", ("tenant",),
        )
        self._cpu_stalls = self.registry.counter(
            "openloop_cpu_stall_seconds_total",
            "Seconds operations waited on encode-CPU backlog, per tenant",
            ("tenant",),
        )

    def _shard_of(self, op: Operation) -> int:
        if self._router is None:
            return 0
        # The pure placement lookup: the cluster's own ``execute`` routes
        # the op (and counts it) once more.
        return self._router.shard_of(op.record_id)

    def _accrue_cpu(self) -> None:
        """Fold newly charged background CPU into each shard's backlog."""
        for index, shard in enumerate(self._shards):
            level = shard.primary.background_cpu_seconds
            delta = level - self._cpu_levels[index]
            if delta > 0:
                self._cpu_backlogs[index] += delta * self.cpu_scale
            # A promotion swaps the primary object; resync the level
            # either way so a lower counter never yields a negative
            # delta forever after.
            self._cpu_levels[index] = level

    def _pay_backlogs(self, elapsed: float) -> None:
        """All shard machines work in parallel for ``elapsed`` seconds."""
        for index in range(len(self._cpu_backlogs)):
            backlog = self._cpu_backlogs[index]
            if backlog > 0:
                self._cpu_backlogs[index] = max(0.0, backlog - elapsed)

    def run(self, schedule: Iterable[TimedOperation]) -> int:
        """Execute the schedule; returns the number of operations run."""
        cluster = self.cluster
        clock = cluster.clock
        count = 0
        for item in schedule:
            self._arrivals.labels(item.tenant).inc()
            gap = item.at_s - clock.now
            if gap > 0:
                cluster.execute(Operation(kind="idle", idle_seconds=gap))
                # Deferred-dedup drains during the gap charged new CPU;
                # fold it in, then let the gap pay every backlog down.
                self._accrue_cpu()
                self._pay_backlogs(gap)
            else:
                self._queued.labels(item.tenant).inc()
            shard = self._shard_of(item.op)
            stall = self._cpu_backlogs[shard]
            if stall > 0:
                # The op waits for its machine to finish owed encode
                # work; the other machines keep working meanwhile.
                clock.advance(stall)
                self._cpu_backlogs[shard] = 0.0
                self._cpu_stalls.labels(item.tenant).inc(stall)
                self._pay_backlogs(stall)
            start = clock.now
            service = cluster.execute(item.op)
            # Other machines keep working during this op's service time;
            # only then does the op's own encode CPU join its backlog
            # (the background encode starts after the insert returns).
            self._pay_backlogs(clock.now - start)
            self._accrue_cpu()
            sojourn = clock.now - item.at_s
            if sojourn < service:
                sojourn = service  # float-slice rounding guard
            self._sojourn.labels(item.op.kind, item.tenant).observe(sojourn)
            self._service.labels(item.op.kind, item.tenant).observe(service)
            count += 1
        cluster.finalize()
        return count

    def quantile(
        self, family: str, op: str, tenant: str, q: float
    ) -> float | None:
        """One histogram child's interpolated quantile, None when empty
        and ``math.inf`` is passed through (overflow bucket)."""
        child = self.registry.get(family).labels(op, tenant)
        if child.count == 0:
            return None
        return child.quantile(q)


def parse_tenants(
    spec: str, target_bytes: int | None = None
) -> list[TenantSpec]:
    """Parse a ``--tenants`` value into tenant specs.

    Comma-separated ``workload[:rate_ops_s]`` entries, e.g.
    ``"wikipedia,oltp:120"``. The tenant name is the workload name,
    suffixed with an index when the same workload appears twice
    (``"wikipedia,wikipedia"`` → ``wikipedia``, ``wikipedia2``).
    ``target_bytes`` overrides every tenant's corpus size.
    """
    specs: list[TenantSpec] = []
    seen: dict[str, int] = {}
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        workload, _, rate_text = entry.partition(":")
        rate = DEFAULT_TENANT_RATE_OPS_S
        if rate_text:
            rate = float(rate_text)
        count = seen.get(workload, 0) + 1
        seen[workload] = count
        name = workload if count == 1 else f"{workload}{count}"
        kwargs: dict = {}
        if target_bytes is not None:
            kwargs["target_bytes"] = target_bytes
        specs.append(
            TenantSpec(
                name=name, workload=workload, rate_ops_s=rate, **kwargs
            )
        )
    if not specs:
        raise ValueError(f"no tenants in {spec!r}")
    return specs

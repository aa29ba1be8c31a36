"""Sim-clock-aware tracing: spans with simulated cost attribution.

A :class:`Tracer` stamps :class:`Span` objects against whatever clock the
cluster runs on — the shared :class:`~repro.sim.clock.SimClock` inside
the simulator, wall time outside it. Spans nest on a stack (the
simulator is single-threaded by construction), so one insert produces a
tree::

    op:insert
    ├── stage:sketch            cpu_s=…
    ├── stage:index_lookup
    ├── stage:source_select
    ├── stage:forward_delta     cpu_s=…
    ├── stage:writeback_plan
    └── stage:accounting

    replicate
    ├── oplog_ship              network_s=…
    └── replica_apply           cpu_s=… disk_s=…

Simulated durations alone would under-report — the sim clock only moves
when the cluster advances it between operations — so components *attach
costs* to the active span as they consume simulated resources:
``cpu_s`` from :class:`~repro.core.planner.CpuMeter` charges, ``disk_s``
from :meth:`Database._disk_request`, ``network_s`` from
:meth:`SimNetwork.transfer`. The exported tree therefore shows where
each operation's simulated time went, not just when it happened.

Components that may run untraced hold :data:`NULL_TRACER` (a disabled
singleton) so hot paths never branch on ``tracer is None``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator

#: Cost kinds spans accumulate, in display order.
COST_KINDS = ("cpu_s", "disk_s", "network_s")


class Span:
    """One timed region with attached simulated costs and annotations."""

    __slots__ = (
        "name",
        "start_s",
        "end_s",
        "costs",
        "annotations",
        "children",
    )

    def __init__(self, name: str, start_s: float) -> None:
        self.name = name
        self.start_s = start_s
        self.end_s: float | None = None
        self.costs: dict[str, float] = {}
        self.annotations: dict[str, object] = {}
        self.children: list[Span] = []

    def add_cost(self, kind: str, seconds: float) -> None:
        """Attribute ``seconds`` of simulated ``kind`` time to this span."""
        self.costs[kind] = self.costs.get(kind, 0.0) + seconds

    def annotate(self, key: str, value: object) -> None:
        """Attach one key/value annotation (drop reasons, sizes, ids)."""
        self.annotations[key] = value

    @property
    def duration_s(self) -> float:
        """Clock time between start and end (0.0 while still open)."""
        return 0.0 if self.end_s is None else self.end_s - self.start_s

    def total_costs(self) -> dict[str, float]:
        """Costs of this span plus its whole subtree, summed per kind."""
        totals = dict(self.costs)
        for child in self.children:
            for kind, seconds in child.total_costs().items():
                totals[kind] = totals.get(kind, 0.0) + seconds
        return totals

    def walk(self) -> Iterator["Span"]:
        """This span, then every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> "Span | None":
        """First span in the subtree with ``name`` (depth-first)."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def to_dict(self) -> dict:
        """JSON-ready form of the span subtree."""
        body: dict = {
            "name": self.name,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
        }
        if self.costs:
            body["costs"] = {k: self.costs[k] for k in sorted(self.costs)}
        if self.annotations:
            body["annotations"] = dict(self.annotations)
        if self.children:
            body["children"] = [child.to_dict() for child in self.children]
        return body

    def __repr__(self) -> str:
        return f"Span({self.name!r}, costs={self.costs})"


class _NoopSpan(Span):
    """Shared inert span returned when tracing is off or suppressed."""

    def __init__(self) -> None:
        super().__init__("noop", 0.0)

    def add_cost(self, kind: str, seconds: float) -> None:
        """Discard."""

    def annotate(self, key: str, value: object) -> None:
        """Discard."""


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Builds span trees against a simulated (or wall) clock.

    Args:
        clock: object with a ``now`` float property (a ``SimClock``);
            None falls back to ``time.monotonic()``.
        enabled: a disabled tracer hands out :data:`NOOP_SPAN` and
            records nothing — the hot-path cost is one attribute check.
        max_roots: cap on retained root spans, bounding trace memory for
            long runs; once reached, new roots (and their entire
            subtrees) are suppressed.
    """

    def __init__(
        self,
        clock=None,
        enabled: bool = True,
        max_roots: int = 100_000,
    ) -> None:
        self.clock = clock
        self.enabled = enabled
        self.max_roots = max_roots
        self.roots: list[Span] = []
        self.dropped_roots = 0
        self._stack: list[Span] = []
        # Depth of open spans under a suppressed (over-cap) root; their
        # children must not leak back in as fresh roots.
        self._suppressed = 0

    def now(self) -> float:
        """Current time on the tracer's clock."""
        return self.clock.now if self.clock is not None else time.monotonic()

    @property
    def current(self) -> Span:
        """The innermost open span (NOOP when none)."""
        return self._stack[-1] if self._stack else NOOP_SPAN

    def start_span(self, name: str, **annotations: object) -> Span:
        """Open a span nested under the current one (or a new root)."""
        if not self.enabled:
            return NOOP_SPAN
        if self._suppressed:
            self._suppressed += 1
            return NOOP_SPAN
        if not self._stack and len(self.roots) >= self.max_roots:
            self._suppressed = 1
            self.dropped_roots += 1
            return NOOP_SPAN
        span = Span(name, self.now())
        if annotations:
            span.annotations.update(annotations)
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        return span

    def end_span(self, span: Span) -> None:
        """Close ``span`` (and anything left open inside it)."""
        if span is NOOP_SPAN:
            if self._suppressed:
                self._suppressed -= 1
            return
        now = self.now()
        while self._stack:
            top = self._stack.pop()
            top.end_s = now
            if top is span:
                return
        # Already closed (e.g. by an enclosing span's cleanup): no-op.

    @contextmanager
    def span(self, name: str, **annotations: object) -> Iterator[Span]:
        """``with tracer.span("replicate") as s: ...``"""
        span = self.start_span(name, **annotations)
        try:
            yield span
        finally:
            self.end_span(span)

    def add_cost(self, kind: str, seconds: float) -> None:
        """Attribute simulated cost to the innermost open span."""
        if self._stack:
            self._stack[-1].add_cost(kind, seconds)

    def annotate(self, key: str, value: object) -> None:
        """Annotate the innermost open span."""
        if self._stack:
            self._stack[-1].annotate(key, value)


#: Module-wide disabled tracer for components constructed without tracing.
NULL_TRACER = Tracer(enabled=False)


class TracingObserver:
    """Pipeline observer that opens a ``stage:<name>`` span per stage.

    Duck-types :class:`repro.core.pipeline.PipelineObserver` (same hook
    names) without importing it, keeping ``repro.obs`` import-free of
    ``repro.core``. The encode body calls the hooks around each of its
    steps; the per-stage simulated CPU it reports is attached to the
    stage's span as ``cpu_s``; drops are annotated with their reason.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._open: dict[str, Span] = {}

    def on_stage_start(self, stage: str, ctx) -> None:
        """Open the stage's span under the current operation span."""
        self._open[stage] = self.tracer.start_span(
            f"stage:{stage}", record_id=ctx.record_id
        )

    def on_stage_end(self, stage: str, ctx, cpu_seconds: float) -> None:
        """Attach the stage's simulated CPU and close its span."""
        span = self._open.pop(stage, None)
        if span is None:
            return
        if cpu_seconds:
            span.add_cost("cpu_s", cpu_seconds)
        self.tracer.end_span(span)

    def on_drop(self, stage: str, ctx, reason: str) -> None:
        """Record why the record left the dedup path at this stage."""
        span = self._open.get(stage)
        if span is not None:
            span.annotate("drop_reason", reason)

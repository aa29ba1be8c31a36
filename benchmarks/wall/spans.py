"""Wall-clock spans around the public methods of every dbDedup layer.

Nothing under ``src/`` knows about this file. :func:`install` replaces
the methods named in :data:`LAYERS` with timing wrappers (``setattr`` on
the class, so instances built afterwards and before are both covered)
and :meth:`SpanRecorder.uninstall` puts the originals back. A wrapper
appends ``(span name, start, end)`` to three flat arrays when the call
returns; the driver is one thread, so spans nest properly and the
parent of each span, the operation it belongs to and every layer's
self time are rebuilt from that post-order log after the run
(:meth:`SpanRecorder.spans`) instead of being tracked while the clock
is running.

A method that no longer exists is skipped and listed in
``SpanRecorder.missing``; a layer none of whose methods exist reports
``None`` rather than a misleading zero.
"""

from __future__ import annotations

import importlib
import inspect
import json
from array import array
from dataclasses import dataclass
from time import perf_counter

from repro.core.pipeline import PipelineObserver

#: layer -> [(module, class, methods)]. ``index`` and ``storage`` name
#: no class here: the class in use depends on the deployment spec, so
#: :func:`install` takes them from a live cluster.
LAYERS: dict[str, list[tuple[str, str, tuple[str, ...]]]] = {
    "api": [("repro.api.client", "DedupClient",
             ("insert", "insert_many", "read", "update", "delete", "finalize"))],
    "db.cluster": [("repro.db.cluster", "Cluster",
                    ("execute", "execute_insert_batch", "client_read", "finalize"))],
    "db.node": [("repro.db.node", "PrimaryNode",
                 ("insert", "insert_batch", "read", "update", "delete"))],
    "db.database": [("repro.db.database", "Database",
                     ("insert", "insert_many", "read", "update", "delete",
                      "fetch_content", "apply_writeback",
                      "flush_writebacks_if_idle", "drain_writebacks"))],
    "db.oplog": [("repro.db.oplog", "Oplog",
                  ("append", "bytes_since", "take_unsynced", "entries_since"))],
    "db.replication": [("repro.db.replication", "ReplicationLink",
                        ("maybe_sync", "sync"))],
    "db.secondary": [("repro.db.node", "SecondaryNode", ("apply_batch",))],
    "core.engine": [("repro.core.engine", "DedupEngine",
                     ("encode", "encode_batch", "drain_deferred"))],
    "core.reencoder": [("repro.core.reencoder", "SecondaryReencoder",
                        ("apply_raw", "apply_encoded"))],
    "core.selector": [("repro.core.selector", "SourceSelector", ("select",))],
    "sketch": [("repro.sketch.features", "SketchExtractor",
                ("sketch", "sketch_many"))],
    "chunking": [("repro.chunking.cdc", "ContentDefinedChunker",
                  ("boundaries", "boundaries_many"))],
    "index": [],
    "delta.encode": [("repro.delta.dbdelta", "DeltaCompressor", ("compress",))],
    # Not ``peek``: a bare dict lookup made ~9 times per read, which a
    # 0.4 us wrapper would more than double; its time stays with the
    # chain walk in db.database.
    "cache.source": [("repro.cache.source_cache", "SourceRecordCache",
                      ("get", "admit", "replace_tail", "keep_hop_base",
                       "invalidate"))],
    "cache.writeback": [("repro.cache.writeback", "LossyWriteBackCache",
                         ("put", "invalidate", "flush_most_valuable", "drain"))],
    "storage": [],
    "sim.disk": [("repro.sim.disk", "SimDisk", ("submit",))],
    "sim.network": [("repro.sim.network", "SimNetwork", ("transfer",))],
}

INDEX_METHODS = ("lookup_and_insert", "lookup", "insert", "remove_record")
STORAGE_METHODS = ("place", "update", "remove")


@dataclass(frozen=True)
class Span:
    """One timed call: what the ``--trace-out`` file holds, one per line."""

    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    op_id: int


class StageClock(PipelineObserver):
    """Inclusive wall time of each encode-pipeline stage.

    Registered through the public ``DedupPipeline.add_observer``. The
    batch lane sketches in ``Stage.prepare_batch``, which observers do
    not see, so :func:`install` also routes that call through
    :meth:`timed_prepare`.
    """

    def __init__(self) -> None:
        self.wall_s: dict[str, float] = {}
        self._started = 0.0

    def on_stage_start(self, stage, ctx) -> None:
        self._started = perf_counter()

    def on_stage_end(self, stage, ctx, cpu_seconds) -> None:
        spent = perf_counter() - self._started
        self.wall_s[stage] = self.wall_s.get(stage, 0.0) + spent

    def timed_prepare(self, stage_name: str, prepare):
        def timed(stage, contexts):
            started = perf_counter()
            try:
                return prepare(stage, contexts)
            finally:
                spent = perf_counter() - started
                self.wall_s[stage_name] = self.wall_s.get(stage_name, 0.0) + spent
        return timed


class SpanRecorder:
    """The wrappers' shared log, and the analysis of it."""

    def __init__(self) -> None:
        self.names: list[tuple[str, str]] = []  # span id -> (layer, Class.method)
        self.missing: list[str] = []
        self.stages = StageClock()
        self._ids = array("i")
        self._starts = array("d")
        self._ends = array("d")
        self._patched: list[tuple[type, str, object, bool]] = []

    # -- installing -----------------------------------------------------------

    def wrap(self, layer: str, cls: type, method: str) -> None:
        original = getattr(cls, method, None)
        if not inspect.isfunction(original):
            self.missing.append(f"{layer}:{cls.__name__}.{method}")
            return
        span_id = len(self.names)
        self.names.append((layer, f"{cls.__name__}.{method}"))
        log_id, log_start, log_end = (
            self._ids.append, self._starts.append, self._ends.append
        )

        def timed(*args, **kwargs):
            started = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                ended = perf_counter()
                log_id(span_id)
                log_start(started)
                log_end(ended)

        self._patch(cls, method, timed)

    def _patch(self, cls: type, name: str, replacement) -> None:
        own = name in cls.__dict__
        self._patched.append((cls, name, cls.__dict__.get(name), own))
        setattr(cls, name, replacement)

    def uninstall(self) -> None:
        """Put every original method back (idempotent)."""
        for cls, name, original, own in reversed(self._patched):
            if own:
                setattr(cls, name, original)
            else:
                delattr(cls, name)
        self._patched.clear()

    def reset(self) -> None:
        """Forget what was logged so far (set-up calls)."""
        del self._ids[:], self._starts[:], self._ends[:]
        self.stages.wall_s.clear()

    def watch_pipeline(self, pipeline) -> None:
        """Clock the stages of one engine's pipeline."""
        pipeline.add_observer(self.stages)
        for stage in pipeline.stages:
            cls = type(stage)
            if "prepare_batch" in cls.__dict__:
                self._patch(
                    cls, "prepare_batch",
                    self.stages.timed_prepare(stage.name, cls.__dict__["prepare_batch"]),
                )

    # -- analysis -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ids)

    def _parents(self) -> list[int]:
        """Log index of each span's parent, -1 for a root.

        The log is post-order: a span's children are the already-logged
        spans that started after it did and nobody has claimed yet.
        """
        parents = [-1] * len(self._ids)
        pending: list[int] = []
        for log_index, start in enumerate(self._starts):
            while pending and self._starts[pending[-1]] >= start:
                parents[pending.pop()] = log_index
            pending.append(log_index)
        return parents

    def layer_totals(self) -> dict[str, dict | None]:
        """``{layer: {"self_s", "calls", "methods"}}``; None for a layer
        with no wrapped method left."""
        self_s = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        ids, starts, ends = self._ids, self._starts, self._ends
        for log_index, parent in enumerate(self._parents()):
            duration = ends[log_index] - starts[log_index]
            self_s[ids[log_index]] += duration
            calls[ids[log_index]] += 1
            if parent >= 0:
                self_s[ids[parent]] -= duration
        totals: dict[str, dict | None] = dict.fromkeys(LAYERS)
        for span_id, (layer, name) in enumerate(self.names):
            total = totals[layer] or {"self_s": 0.0, "calls": 0, "methods": {}}
            total["self_s"] += self_s[span_id]
            total["calls"] += calls[span_id]
            if calls[span_id]:
                total["methods"][name] = {
                    "self_s": self_s[span_id], "calls": calls[span_id]
                }
            totals[layer] = total
        return totals

    def spans(self) -> list[Span]:
        """Every span in start order with its parent index and op id.

        The op id is the index of the root (client API) span the call
        ran under; spans of one client request share it.
        """
        parents = self._parents()
        order = sorted(range(len(self._ids)), key=self._starts.__getitem__)
        position = {log_index: i for i, log_index in enumerate(order)}
        out: list[Span] = []
        roots = 0
        for log_index in order:  # a parent starts, so comes, before its children
            parent = parents[log_index]
            if parent < 0:
                op_id, roots = roots, roots + 1
            else:
                op_id = out[position[parent]].op_id
            layer, name = self.names[self._ids[log_index]]
            out.append(Span(
                name=name, layer=layer,
                start=self._starts[log_index], end=self._ends[log_index],
                parent=position[parent] if parent >= 0 else None,
                op_id=op_id,
            ))
        return out

    def write(self, path) -> int:
        """One JSON object per span, in start order; returns the count."""
        spans = self.spans()
        with open(path, "w", encoding="utf-8") as out:
            for span in spans:
                out.write(json.dumps(span.__dict__) + "\n")
        return len(spans)


def install(index_cls: type, storage_cls: type) -> SpanRecorder:
    """Wrap every layer's methods; the caller must ``uninstall()``."""
    recorder = SpanRecorder()
    for layer, targets in LAYERS.items():
        for module_name, class_name, methods in targets:
            try:
                cls = getattr(importlib.import_module(module_name), class_name, None)
            except ModuleNotFoundError:
                cls = None
            for method in methods:
                if cls is None:
                    recorder.missing.append(f"{layer}:{class_name}.{method}")
                else:
                    recorder.wrap(layer, cls, method)
    for method in INDEX_METHODS:
        recorder.wrap("index", index_cls, method)
    for method in STORAGE_METHODS:
        recorder.wrap("storage", storage_cls, method)
    return recorder

"""Exporters: Prometheus text, versioned JSON documents, validators.

Two document kinds leave the process:

* the **metrics document** (``repro.metrics/v1``) — every family's
  snapshot, optional time series from a
  :class:`~repro.obs.sampler.TimeSeriesSampler`, and free-form metadata;
* the **trace document** (``repro.trace/v1``) — the tracer's root span
  trees with per-span simulated cost attribution.

Both carry their schema tag in a top-level ``schema`` field so readers
(CI, notebooks, the ``check-metrics`` subcommand) can refuse documents
they do not understand. :func:`validate_metrics_document` is a
structural validator — dependency-light by design, no jsonschema — and
:func:`check_reconciliation` asserts the accounting identities the
simulator promises (stage in == out + drops, records seen == deduped +
unique, bytes delivered ≤ bytes sent).
"""

from __future__ import annotations

import json
from typing import Mapping

from repro.obs.registry import KINDS, MetricsRegistry
from repro.obs.sampler import TimeSeriesSampler
from repro.obs.tracing import Tracer

#: Version tag of the metrics JSON document layout.
SCHEMA_VERSION = "repro.metrics/v1"

#: Version tag of the trace JSON document layout.
TRACE_SCHEMA_VERSION = "repro.trace/v1"

#: Version tag of a multi-run metrics bundle (``experiment`` runs build
#: several clusters; each contributes one full metrics document).
METRICS_SET_SCHEMA_VERSION = "repro.metrics-set/v1"

#: Version tag of a multi-run trace bundle.
TRACE_SET_SCHEMA_VERSION = "repro.trace-set/v1"

#: Version tag of the SLO report bundle produced by ``experiment slo``:
#: per-tenant tail latencies, first-class event counts, and the max
#: sustainable arrival rate per topology scenario.
SLO_SCHEMA_VERSION = "repro.slo/v1"


# -- documents ------------------------------------------------------------------


def metrics_document(
    registry: MetricsRegistry,
    sampler: TimeSeriesSampler | None = None,
    meta: Mapping[str, object] | None = None,
) -> dict:
    """The full JSON-ready metrics document for one registry."""
    return {
        "schema": SCHEMA_VERSION,
        "meta": dict(meta) if meta else {},
        "metrics": registry.snapshot(),
        "series": sampler.to_dict() if sampler is not None else None,
    }


def trace_document(tracer: Tracer) -> dict:
    """The JSON-ready trace document for one tracer."""
    return {
        "schema": TRACE_SCHEMA_VERSION,
        "clock": "sim" if tracer.clock is not None else "wall",
        "dropped_roots": tracer.dropped_roots,
        "roots": [span.to_dict() for span in tracer.roots],
    }


def write_metrics_json(
    path: str,
    registry: MetricsRegistry,
    sampler: TimeSeriesSampler | None = None,
    meta: Mapping[str, object] | None = None,
) -> dict:
    """Write the metrics document to ``path``; returns the document."""
    document = metrics_document(registry, sampler, meta)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return document


def write_trace_json(path: str, tracer: Tracer) -> dict:
    """Write the trace document to ``path``; returns the document."""
    document = trace_document(tracer)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return document


def metrics_set_document(
    runs, meta: Mapping[str, object] | None = None
) -> dict:
    """Bundle several runs' metrics into one document.

    Args:
        runs: iterable of ``(label, registry, sampler_or_None)``.
        meta: bundle-level metadata (experiment id, workload, ...).
    """
    return {
        "schema": METRICS_SET_SCHEMA_VERSION,
        "meta": dict(meta) if meta else {},
        "runs": [
            metrics_document(registry, sampler, meta={"label": label})
            for label, registry, sampler in runs
        ],
    }


def trace_set_document(runs) -> dict:
    """Bundle several runs' traces; ``runs`` is ``(label, tracer)`` pairs."""
    return {
        "schema": TRACE_SET_SCHEMA_VERSION,
        "runs": [
            dict(trace_document(tracer), label=label)
            for label, tracer in runs
        ],
    }


def write_json(path: str, document: dict) -> dict:
    """Write any prepared document to ``path``; returns it unchanged."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return document


def check_metrics_payload(payload: object) -> list[str]:
    """Validate + reconcile a metrics document *or* a metrics-set bundle.

    The entry point behind the ``check-metrics`` subcommand: dispatches
    on the ``schema`` tag, prefixing problems from bundled runs with
    their index and label. Empty list means the payload is sound.
    """
    if (
        isinstance(payload, dict)
        and payload.get("schema") == METRICS_SET_SCHEMA_VERSION
    ):
        runs = payload.get("runs")
        if not isinstance(runs, list):
            return ["'runs' missing or not a list"]
        problems: list[str] = []
        for index, document in enumerate(runs):
            label = ""
            if isinstance(document, dict):
                label = str(
                    document.get("meta", {}).get("label", "")
                    if isinstance(document.get("meta"), dict)
                    else ""
                )
            where = f"runs[{index}]" + (f" ({label})" if label else "")
            found = validate_metrics_document(document)
            if not found:
                found = check_reconciliation(document)
            problems.extend(f"{where}: {problem}" for problem in found)
        return problems
    if (
        isinstance(payload, dict)
        and payload.get("schema") == SLO_SCHEMA_VERSION
    ):
        return validate_slo_document(payload)
    problems = validate_metrics_document(payload)
    if problems:
        return problems
    return check_reconciliation(payload)


# -- Prometheus text format -----------------------------------------------------


def _fmt_value(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _fmt_labels(names: tuple[str, ...] | list[str], values) -> str:
    if not names:
        return ""
    parts = ", ".join(
        f'{name}="{value}"' for name, value in zip(names, values)
    )
    return "{" + parts + "}"


def to_prometheus_text(registry: MetricsRegistry) -> str:
    """Render every family in the Prometheus exposition text format."""
    lines: list[str] = []
    for family in registry.families():
        if family.help:
            lines.append(f"# HELP {family.name} {family.help}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        if family.kind == "histogram":
            snapshot = family.snapshot()
            for row in snapshot["values"]:
                labels = row["labels"]
                names = list(labels) + ["le"]
                cumulative = 0
                for bound, count in zip(
                    list(family.buckets) + ["+Inf"],
                    row["bucket_counts"],
                ):
                    cumulative += count
                    values = list(labels.values()) + [
                        bound if bound == "+Inf" else _fmt_value(bound)
                    ]
                    lines.append(
                        f"{family.name}_bucket"
                        f"{_fmt_labels(names, values)} {cumulative}"
                    )
                label_text = _fmt_labels(
                    list(labels), list(labels.values())
                )
                lines.append(
                    f"{family.name}_sum{label_text} {_fmt_value(row['sum'])}"
                )
                lines.append(
                    f"{family.name}_count{label_text} {row['count']}"
                )
        else:
            for label_values, value in family.items():
                lines.append(
                    f"{family.name}"
                    f"{_fmt_labels(family.label_names, label_values)}"
                    f" {_fmt_value(value)}"
                )
    return "\n".join(lines) + "\n"


# -- validation -----------------------------------------------------------------


def validate_metrics_document(document: object) -> list[str]:
    """Structural validation of a metrics document.

    Returns a list of human-readable problems; an empty list means the
    document conforms to :data:`SCHEMA_VERSION`.
    """
    errors: list[str] = []
    if not isinstance(document, dict):
        return ["document is not a JSON object"]
    schema = document.get("schema")
    if schema != SCHEMA_VERSION:
        errors.append(
            f"schema is {schema!r}, expected {SCHEMA_VERSION!r}"
        )
    for key in ("meta", "metrics"):
        if not isinstance(document.get(key), dict):
            errors.append(f"{key!r} missing or not an object")
    series = document.get("series")
    if series is not None:
        if not isinstance(series, dict):
            errors.append("'series' must be null or an object")
        elif not isinstance(series.get("samples"), list):
            errors.append("'series.samples' missing or not a list")
        else:
            for i, row in enumerate(series["samples"]):
                if not isinstance(row, dict) or not isinstance(
                    row.get("values"), dict
                ):
                    errors.append(f"series.samples[{i}] malformed")
        # events rows are optional (documents predating repro.slo/v1
        # omit the key entirely), but when present must be well-formed.
        if isinstance(series, dict) and "events" in series:
            events = series["events"]
            if not isinstance(events, list):
                errors.append("'series.events' must be a list")
            else:
                for i, row in enumerate(events):
                    if not isinstance(row, dict) or not isinstance(
                        row.get("event"), str
                    ):
                        errors.append(f"series.events[{i}] malformed")
    metrics = document.get("metrics")
    if not isinstance(metrics, dict):
        return errors
    for name, family in metrics.items():
        where = f"metrics[{name!r}]"
        if not isinstance(family, dict):
            errors.append(f"{where} is not an object")
            continue
        kind = family.get("kind")
        if kind not in KINDS:
            errors.append(f"{where}.kind is {kind!r}")
            continue
        labels = family.get("labels")
        if not isinstance(labels, list) or not all(
            isinstance(label, str) for label in labels
        ):
            errors.append(f"{where}.labels must be a list of strings")
            continue
        values = family.get("values")
        if not isinstance(values, list):
            errors.append(f"{where}.values must be a list")
            continue
        for i, row in enumerate(values):
            spot = f"{where}.values[{i}]"
            if not isinstance(row, dict):
                errors.append(f"{spot} is not an object")
                continue
            row_labels = row.get("labels")
            if not isinstance(row_labels, dict) or sorted(
                row_labels
            ) != sorted(labels):
                errors.append(
                    f"{spot}.labels do not match family labels {labels}"
                )
            if kind == "histogram":
                buckets = family.get("buckets")
                counts = row.get("bucket_counts")
                if not isinstance(buckets, list):
                    errors.append(f"{where}.buckets must be a list")
                elif not isinstance(counts, list) or len(counts) != len(
                    buckets
                ) + 1:
                    errors.append(
                        f"{spot}.bucket_counts must have "
                        f"len(buckets)+1 entries"
                    )
                if not isinstance(row.get("sum"), (int, float)):
                    errors.append(f"{spot}.sum must be numeric")
                if not isinstance(row.get("count"), int):
                    errors.append(f"{spot}.count must be an integer")
            else:
                if not isinstance(row.get("value"), (int, float)):
                    errors.append(f"{spot}.value must be numeric")
    return errors


_SLO_QUANTILE_KEYS = ("p50_s", "p99_s", "p999_s")


def validate_slo_document(document: object) -> list[str]:
    """Structural validation of a ``repro.slo/v1`` bundle.

    Checks the scenario rows (topology, rates, per-tenant quantiles,
    event counts) and — when a scenario embeds a full metrics document —
    re-runs :func:`validate_metrics_document` plus
    :func:`check_reconciliation` on it, prefixing any problems with the
    scenario label. Quantiles may be ``null``: that is the JSON spelling
    of "rank fell in the overflow bucket" (``math.inf`` has no portable
    JSON encoding) or "tenant issued no ops of that kind".

    Returns a list of human-readable problems; empty means the bundle
    conforms.
    """
    errors: list[str] = []
    if not isinstance(document, dict):
        return ["document is not a JSON object"]
    schema = document.get("schema")
    if schema != SLO_SCHEMA_VERSION:
        errors.append(f"schema is {schema!r}, expected {SLO_SCHEMA_VERSION!r}")
    if not isinstance(document.get("meta"), dict):
        errors.append("'meta' missing or not an object")
    scenarios = document.get("scenarios")
    if not isinstance(scenarios, list) or not scenarios:
        errors.append("'scenarios' missing, not a list, or empty")
        return errors
    for index, scenario in enumerate(scenarios):
        where = f"scenarios[{index}]"
        if not isinstance(scenario, dict):
            errors.append(f"{where} is not an object")
            continue
        label = scenario.get("label")
        if isinstance(label, str) and label:
            where = f"scenarios[{index}] ({label})"
        else:
            errors.append(f"{where}.label missing or empty")
        topology = scenario.get("topology")
        if not isinstance(topology, dict):
            errors.append(f"{where}.topology missing or not an object")
        elif not isinstance(topology.get("shards"), int):
            errors.append(f"{where}.topology.shards must be an integer")
        if not isinstance(scenario.get("base_rate_ops_s"), (int, float)):
            errors.append(f"{where}.base_rate_ops_s must be numeric")
        sustainable = scenario.get("max_sustainable_rate_ops_s")
        if sustainable is not None and not isinstance(
            sustainable, (int, float)
        ):
            errors.append(
                f"{where}.max_sustainable_rate_ops_s must be numeric or null"
            )
        events = scenario.get("events")
        if not isinstance(events, dict) or not all(
            isinstance(value, (int, float)) for value in events.values()
        ):
            errors.append(
                f"{where}.events must map event names to numeric counts"
            )
        tenants = scenario.get("tenants")
        if not isinstance(tenants, dict) or not tenants:
            errors.append(f"{where}.tenants missing, not an object, or empty")
        else:
            for name, row in tenants.items():
                spot = f"{where}.tenants[{name!r}]"
                if not isinstance(row, dict):
                    errors.append(f"{spot} is not an object")
                    continue
                if not isinstance(row.get("ops"), int):
                    errors.append(f"{spot}.ops must be an integer")
                for key in _SLO_QUANTILE_KEYS:
                    value = row.get(key, "absent")
                    if value is not None and not isinstance(
                        value, (int, float)
                    ):
                        errors.append(f"{spot}.{key} must be numeric or null")
        metrics = scenario.get("metrics")
        if metrics is not None:
            found = validate_metrics_document(metrics)
            if not found:
                found = check_reconciliation(metrics)
            errors.extend(f"{where}: {problem}" for problem in found)
    comparisons = document.get("comparisons")
    if comparisons is not None and not isinstance(comparisons, list):
        errors.append("'comparisons' must be null or a list")
    return errors


# -- reconciliation identities --------------------------------------------------


def _scalar_groups(
    metrics: dict, name: str, fields: tuple[str, ...]
) -> dict[tuple[str, ...], float]:
    """Fold one scalar family into ``{key: sum}`` keyed by ``fields``.

    ``fields`` are label names; rows are summed over any labels not
    named. A ``shard`` label (present in merged sharded-cluster
    documents) is appended to every key automatically, so each
    accounting identity is checked per shard — shards are independent
    pipelines and their counters must balance individually.
    """
    family = metrics.get(name)
    if not isinstance(family, dict):
        return {}
    sharded = "shard" in family.get("labels", [])
    out: dict[tuple[str, ...], float] = {}
    for row in family.get("values", []):
        row_labels = row["labels"]
        key = tuple(str(row_labels.get(field, "")) for field in fields)
        if sharded:
            key += (str(row_labels.get("shard", "")),)
        out[key] = out.get(key, 0.0) + float(row["value"])
    return out


def check_reconciliation(document: dict) -> list[str]:
    """Accounting identities the simulator promises, checked on a document.

    Verified (each only when its families are present):

    * per stage and scope: ``records_in == records_out + drops``;
    * per scope: ``records_seen == records_deduped + records_unique``;
    * per scope: ``records_unique == sum(drops)`` (every non-deduped
      record left the pipeline through exactly one drop reason);
    * network: ``bytes_delivered <= bytes_sent``;
    * failover: ``rollback_entries_total <= oplog_appends_total`` — a
      divergence rollback can only discard entries some node appended
      (the appends counter is monotonic across truncations);
    * admission: per shard, defer decisions ==
      ``outofline_dedup_records_total + deferred_queue_depth +
      deferred_discarded_total`` — every deferred record is either
      still queued, was deduped out of line, or was discarded
      (superseded by an update/delete);
    * feature index: per database (and shard), ``index_lookups_total ==
      index_hot_hits_total + index_cold_hits_total + index_misses_total``
      — every lookup resolves to exactly one tier outcome, whichever
      index kind served it;
    * storage accounting: per node (and shard),
      ``reclaimed_bytes_total <= stored_bytes_total`` — deletes, updates
      and GC can only reclaim bytes some write once stored (the fix for
      the tombstone accounting drift, where deleted records' bytes were
      never subtracted from the stored-bytes counters);
    * audit trail: per scope (and shard),
      ``audit_saved_bytes_total == dedup_bytes_in_total -
      dedup_oplog_bytes_out_total`` and ``audit_raw_bytes_total ==
      dedup_bytes_in_total`` — the per-record audit log and the engine
      byte counters are written at the same pipeline instruction, so
      their sums must agree, including after a crash or failover rebuild
      (the registry-backed counters survive; rebuilt audit entries never
      re-increment them);
    * source cache: exported hits/misses match the engine-scope legacy
      counters by construction (same instrument), nothing to cross-check.

    Returns a list of violations; empty means all identities hold.
    """
    problems: list[str] = []
    metrics = document.get("metrics")
    if not isinstance(metrics, dict):
        return ["document has no 'metrics' object"]

    stage_in = _scalar_groups(
        metrics, "pipeline_stage_records_in_total", ("scope", "stage")
    )
    stage_out = _scalar_groups(
        metrics, "pipeline_stage_records_out_total", ("scope", "stage")
    )
    # drops are labeled (scope, stage, reason); fold the reason away.
    drops_by_stage = _scalar_groups(
        metrics, "pipeline_drops_total", ("scope", "stage")
    )
    drops_by_scope = _scalar_groups(
        metrics, "pipeline_drops_total", ("scope",)
    )
    for key, entered in stage_in.items():
        left = stage_out.get(key, 0.0)
        dropped = drops_by_stage.get(key, 0.0)
        if entered != left + dropped:
            problems.append(
                f"stage {key}: "
                f"in={entered} != out={left} + drops={dropped}"
            )

    seen = _scalar_groups(metrics, "dedup_records_seen_total", ("scope",))
    deduped = _scalar_groups(
        metrics, "dedup_records_deduped_total", ("scope",)
    )
    unique = _scalar_groups(metrics, "dedup_records_unique_total", ("scope",))
    for key, total in seen.items():
        parts = deduped.get(key, 0.0) + unique.get(key, 0.0)
        if total != parts:
            problems.append(
                f"scope {key}: seen={total} != "
                f"deduped+unique={parts}"
            )
    if stage_in:  # drops only flow when the pipeline ran
        for key, uniq in unique.items():
            dropped = drops_by_scope.get(key)
            if dropped is not None and uniq != dropped:
                problems.append(
                    f"scope {key}: unique={uniq} != "
                    f"sum(drops)={dropped}"
                )

    sent = _scalar_groups(metrics, "network_bytes_sent_total", ())
    delivered = _scalar_groups(metrics, "network_bytes_delivered_total", ())
    for key, nbytes in delivered.items():
        limit = sent.get(key, 0.0)
        if nbytes > limit:
            problems.append(
                f"network {key}: bytes_delivered={nbytes} > "
                f"bytes_sent={limit}"
            )

    # Failover: a rollback can only drop entries some node once appended.
    # ``oplog_appends_total`` is monotonic (truncation never decrements
    # it), so the rolled-back total is bounded by the appends across all
    # nodes of the same (per-shard) replica set.
    rolled_back = _scalar_groups(metrics, "rollback_entries_total", ())
    appends = _scalar_groups(metrics, "oplog_appends_total", ())
    if appends:  # both families fold to per-shard keys
        for key, dropped in rolled_back.items():
            limit = appends.get(key, 0.0)
            if dropped > limit:
                problems.append(
                    f"failover {key}: rollback_entries={dropped} > "
                    f"oplog_appends={limit}"
                )

    # Admission: every deferred record is accounted for exactly once —
    # still queued, deduped out of line, or discarded. Decisions are
    # labeled (decision, stream); fold streams away and keep the shard
    # suffix _scalar_groups appends so each shard balances on its own.
    decisions = _scalar_groups(
        metrics, "admission_decisions_total", ("decision",)
    )
    if decisions:
        outofline = _scalar_groups(
            metrics, "outofline_dedup_records_total", ()
        )
        queued = _scalar_groups(metrics, "deferred_queue_depth", ())
        discarded = _scalar_groups(
            metrics, "deferred_discarded_total", ()
        )
        for key, deferred in decisions.items():
            if key[0] != "defer":
                continue
            shard_key = key[1:]
            accounted = (
                outofline.get(shard_key, 0.0)
                + queued.get(shard_key, 0.0)
                + discarded.get(shard_key, 0.0)
            )
            if deferred != accounted:
                problems.append(
                    f"admission {shard_key}: defer_decisions={deferred} "
                    f"!= outofline+queued+discarded={accounted}"
                )

    # Feature index: every lookup resolves to exactly one outcome —
    # served by the exact hot tier, served by the approximate cold tier,
    # or a miss. Holds per database partition (and per shard) for both
    # index kinds; a plain cuckoo index simply reports cold_hits == 0.
    index_lookups = _scalar_groups(
        metrics, "index_lookups_total", ("database",)
    )
    if index_lookups:
        hot = _scalar_groups(metrics, "index_hot_hits_total", ("database",))
        cold = _scalar_groups(metrics, "index_cold_hits_total", ("database",))
        missed = _scalar_groups(metrics, "index_misses_total", ("database",))
        for key, lookups in index_lookups.items():
            accounted = (
                hot.get(key, 0.0)
                + cold.get(key, 0.0)
                + missed.get(key, 0.0)
            )
            if lookups != accounted:
                problems.append(
                    f"index {key}: lookups={lookups} != "
                    f"hot+cold+miss={accounted}"
                )

    # Storage accounting: reclamation (deletes, updates, GC) can only
    # free bytes some write once stored; both counters are cumulative
    # and monotonic per node, so the bound holds at every instant.
    written = _scalar_groups(metrics, "stored_bytes_total", ("node",))
    store_reclaimed = _scalar_groups(
        metrics, "reclaimed_bytes_total", ("node",)
    )
    for key, freed in store_reclaimed.items():
        limit = written.get(key, 0.0)
        if freed > limit:
            problems.append(
                f"storage {key}: reclaimed_bytes={freed} > "
                f"stored_bytes={limit}"
            )

    # Audit trail: the audit counters and the engine byte counters are
    # incremented by the same accounting-stage instruction, so their
    # sums must agree. The audit families only carry the engine scope,
    # so only that key is checked; per-database byte counters fold away.
    audit_saved = _scalar_groups(
        metrics, "audit_saved_bytes_total", ("scope",)
    )
    if audit_saved:
        bytes_in = _scalar_groups(metrics, "dedup_bytes_in_total", ("scope",))
        oplog_out = _scalar_groups(
            metrics, "dedup_oplog_bytes_out_total", ("scope",)
        )
        audit_raw = _scalar_groups(
            metrics, "audit_raw_bytes_total", ("scope",)
        )
        for key, saved in audit_saved.items():
            expected = bytes_in.get(key, 0.0) - oplog_out.get(key, 0.0)
            if saved != expected:
                problems.append(
                    f"audit {key}: audit_saved_bytes={saved} != "
                    f"bytes_in-oplog_bytes_out={expected}"
                )
        for key, raw in audit_raw.items():
            expected = bytes_in.get(key, 0.0)
            if raw != expected:
                problems.append(
                    f"audit {key}: audit_raw_bytes={raw} != "
                    f"bytes_in={expected}"
                )
    return problems

"""Per-stream admission control for the dedup pipeline (§3.4.1 generalized).

The paper's governor is a one-way kill switch: a database whose windowed
compression ratio stays under the threshold has dedup disabled forever.
That is the right call for streams that *never* dedup, but the wrong one
for bursty multi-tenant load where a stream's yield oscillates — HPDedup's
locality prioritization and hybrid inline/out-of-line designs both show
that deferring low-yield work to background passes recovers throughput
without giving up ratio.

:class:`AdmissionController` subsumes the governor. Per stream (logical
database key) it keeps an online *yield estimator* — the windowed
compression ratio plus a duplicate-locality score over recent sketches —
and answers one of three decisions per record:

* ``inline``: run the full dedup pipeline at insert time (high yield, or
  still warming up);
* ``defer``: store the record raw now and enqueue it for an out-of-line
  dedup pass, drained while the simulator is idle (§3.3.2's queue-length
  trigger) or when the queue bound forces it;
* ``bypass``: the stream is permanently low-yield — the paper's governor
  semantics, kept as the degenerate configuration.

Modes:

* ``"governor"`` (default): the paper-faithful behaviour — inline until
  the windowed ratio drops below the threshold, then permanent bypass.
  Byte-identical to the pre-refactor :class:`DedupGovernor`.
* ``"inline"``: always inline, never defer, never bypass (the estimator
  still runs for reporting).
* ``"hybrid"``: the three-way policy described above.

The controller also owns the deferred-record queue (bounded; overflow
forces a synchronous drain rather than dropping work — a dropped record
would silently diverge from the all-inline run) and the decision counters
exported as ``admission_decisions_total{decision,stream}``.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Iterable

#: Admission modes (``DedupConfig.admission_mode``).
MODE_INLINE = "inline"
MODE_HYBRID = "hybrid"
MODE_GOVERNOR = "governor"
ADMISSION_MODES = (MODE_INLINE, MODE_HYBRID, MODE_GOVERNOR)

#: Per-record decisions returned by :meth:`AdmissionController.decide`.
DECISION_INLINE = "inline"
DECISION_DEFER = "defer"
DECISION_BYPASS = "bypass"
DECISIONS = (DECISION_INLINE, DECISION_DEFER, DECISION_BYPASS)


class _LocalityWindow:
    """Bounded membership window over the last N sketches of one stream.

    A record scores a *locality hit* when its sketch shares at least one
    feature with any of the stream's ``depth`` most recent sketches —
    §3.3.1's creation-time locality observation turned into a cheap
    online signal (feature membership is kept in a counter, so both
    observe and expire are O(top_k)).
    """

    def __init__(self, depth: int) -> None:
        self.depth = depth
        self._sketches: deque[tuple[int, ...]] = deque()
        self._features: Counter[int] = Counter()

    def observe(self, features: Iterable[int]) -> bool:
        """Fold one sketch; True if it shared a feature with the window."""
        features = tuple(features)
        hit = any(f in self._features for f in features)
        self._sketches.append(features)
        for f in features:
            self._features[f] += 1
        while len(self._sketches) > self.depth:
            for f in self._sketches.popleft():
                remaining = self._features[f] - 1
                if remaining:
                    self._features[f] = remaining
                else:
                    del self._features[f]
        return hit


@dataclass
class _StreamState:
    """One stream's current estimation window (reset every ``window``)."""

    bytes_in: int = 0
    bytes_out: int = 0
    inserts: int = 0
    disabled: bool = False
    locality_hits: int = 0
    locality_seen: int = 0
    #: Yield score of the last *completed* window; None while warming up.
    last_yield: float | None = None
    #: Consecutive completed windows under the bypass threshold.
    low_windows: int = 0


def _safe_ratio(bytes_in: int, bytes_out: int) -> float:
    """``bytes_in / bytes_out`` guarded against zero-byte windows.

    Empty or all-tombstone windows (both sides zero, or a zero
    denominator) report the neutral 1.0 rather than dividing by zero or
    leaking NaN/inf into the metrics export.
    """
    if bytes_out <= 0:
        return 1.0
    ratio = bytes_in / bytes_out
    if not math.isfinite(ratio):
        return 1.0
    return ratio


class AdmissionController:
    """Per-stream yield estimation, three-way decisions, deferred queue.

    Args:
        mode: one of :data:`ADMISSION_MODES`.
        threshold: minimum window compression ratio for governor-mode
            survival (§3.4.1: 1.1).
        window: inserts per estimation window.
        inline_yield_threshold: hybrid mode — yield score at or above
            which a stream dedups inline.
        bypass_yield_threshold: hybrid mode — yield score below which a
            stream is counted toward permanent bypass; ``<= 0`` disables
            bypass entirely (everything low-yield defers instead).
        bypass_patience: consecutive low windows before hybrid bypass.
        locality_weight: weight of the duplicate-locality fraction in the
            yield score (``score = ratio + weight * locality``).
        locality_depth: sketches per stream kept in the locality window.
        max_deferred_records: global bound on queued deferred records;
            at the bound the engine force-drains the oldest entry before
            enqueueing (records are never silently dropped).
    """

    def __init__(
        self,
        *,
        mode: str = MODE_GOVERNOR,
        threshold: float = 1.1,
        window: int = 100_000,
        inline_yield_threshold: float = 1.2,
        bypass_yield_threshold: float = 0.0,
        bypass_patience: int = 2,
        locality_weight: float = 0.5,
        locality_depth: int = 64,
        max_deferred_records: int = 4096,
    ) -> None:
        if mode not in ADMISSION_MODES:
            raise ValueError(
                f"mode must be one of {ADMISSION_MODES}, got {mode!r}"
            )
        if threshold < 1.0:
            raise ValueError(f"threshold must be >= 1.0, got {threshold}")
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if inline_yield_threshold <= 0:
            raise ValueError(
                "inline_yield_threshold must be > 0, "
                f"got {inline_yield_threshold}"
            )
        if bypass_patience < 1:
            raise ValueError(
                f"bypass_patience must be >= 1, got {bypass_patience}"
            )
        if locality_weight < 0:
            raise ValueError(
                f"locality_weight must be >= 0, got {locality_weight}"
            )
        if locality_depth < 1:
            raise ValueError(
                f"locality_depth must be >= 1, got {locality_depth}"
            )
        if max_deferred_records < 1:
            raise ValueError(
                "max_deferred_records must be >= 1, "
                f"got {max_deferred_records}"
            )
        self.mode = mode
        self.threshold = threshold
        self.window = window
        self.inline_yield_threshold = inline_yield_threshold
        self.bypass_yield_threshold = bypass_yield_threshold
        self.bypass_patience = bypass_patience
        self.locality_weight = locality_weight
        self.locality_depth = locality_depth
        self.max_deferred_records = max_deferred_records

        self._states: dict[str, _StreamState] = {}
        self._locality: dict[str, _LocalityWindow] = {}
        self.disabled_databases: set[str] = set()

        # Deferred queue: live entries keyed by record id, with per-stream
        # and global FIFO id orders. Invalidation (client update/delete,
        # bypass teardown) removes the entry; the deques skip dead ids
        # lazily on pop.
        self._entries: dict[str, tuple[str, bytes]] = {}
        self._stream_order: dict[str, deque[str]] = {}
        self._global_order: deque[str] = deque()
        self._pending_counts: dict[str, int] = {}

        #: ``(decision, stream) -> count`` for admission_decisions_total.
        self.decision_counts: dict[tuple[str, str], int] = {}
        self.deferred_enqueued_total = 0
        self.deferred_discarded_total = 0
        self.outofline_records_total = 0
        self.outofline_bytes_total = 0

    # -- decisions ---------------------------------------------------------------

    @property
    def supports_defer(self) -> bool:
        """True when this mode can return :data:`DECISION_DEFER`."""
        return self.mode == MODE_HYBRID

    def is_enabled(self, database: str) -> bool:
        """Governor-compatible view: False once the stream is bypassed."""
        return database not in self.disabled_databases

    def decide(self, database: str) -> str:
        """Three-way admission decision for one record of ``database``.

        Pure: no state is mutated, so callers may consult it freely. The
        hybrid policy scores the last *completed* window — a stream with
        no completed window yet runs inline (warm-up: the estimator needs
        pipeline outcomes to have an opinion at all).
        """
        if database in self.disabled_databases:
            return DECISION_BYPASS
        if self.mode != MODE_HYBRID:
            return DECISION_INLINE
        state = self._states.get(database)
        if state is None or state.last_yield is None:
            return DECISION_INLINE
        if state.last_yield >= self.inline_yield_threshold:
            return DECISION_INLINE
        return DECISION_DEFER

    def note_decision(self, database: str, decision: str) -> None:
        """Count one decision for ``admission_decisions_total``."""
        key = (decision, database)
        self.decision_counts[key] = self.decision_counts.get(key, 0) + 1

    # -- the yield estimator -----------------------------------------------------

    def observe(
        self,
        database: str,
        bytes_in: int,
        bytes_out: int,
        features: Iterable[int] | None = None,
    ) -> bool:
        """Fold one record's pipeline outcome into the stream's window.

        ``bytes_in`` is the raw size, ``bytes_out`` what the record cost
        after dedup (the oplog delta, or raw again when it stored unique);
        ``features`` is the record's sketch for the locality signal.

        Returns False when the stream is (or just became) permanently
        bypassed — the caller must then tear down its index partition
        (§3.4.1). A bypassed stream is never re-enabled.
        """
        state = self._states.setdefault(database, _StreamState())
        if state.disabled:
            return False
        if features is not None:
            locality = self._locality.get(database)
            if locality is None:
                locality = _LocalityWindow(self.locality_depth)
                self._locality[database] = locality
            state.locality_seen += 1
            state.locality_hits += locality.observe(features)
        state.bytes_in += bytes_in
        state.bytes_out += bytes_out
        state.inserts += 1
        if state.inserts < self.window:
            return True
        return self._evaluate_window(database, state)

    def _evaluate_window(self, database: str, state: _StreamState) -> bool:
        """Score a completed window; disable, or reset for the next one."""
        # Governor-mode exactness: the legacy ratio convention (zero
        # denominator reads as 1.0) and the strict `<` comparison.
        ratio = (
            state.bytes_in / state.bytes_out if state.bytes_out else 1.0
        )
        if not math.isfinite(ratio):
            ratio = 1.0
        if self.mode == MODE_GOVERNOR:
            if ratio < self.threshold:
                return self._disable(database, state)
        else:
            state.last_yield = ratio + self.locality_weight * (
                state.locality_hits / state.locality_seen
                if state.locality_seen
                else 0.0
            )
            if (
                self.mode == MODE_HYBRID
                and self.bypass_yield_threshold > 0
                and state.last_yield < self.bypass_yield_threshold
            ):
                state.low_windows += 1
                if state.low_windows >= self.bypass_patience:
                    return self._disable(database, state)
            else:
                state.low_windows = 0
        state.bytes_in = 0
        state.bytes_out = 0
        state.inserts = 0
        state.locality_hits = 0
        state.locality_seen = 0
        return True

    def _disable(self, database: str, state: _StreamState) -> bool:
        state.disabled = True
        self.disabled_databases.add(database)
        return False

    def window_ratio(self, database: str) -> float:
        """Current window's compression ratio (1.0 when empty).

        Guarded against zero-byte windows: never divides by zero, never
        returns NaN or inf (the value feeds directly into metrics).
        """
        state = self._states.get(database)
        if state is None:
            return 1.0
        return _safe_ratio(state.bytes_in, state.bytes_out)

    def yield_score(self, database: str) -> float | None:
        """Last completed window's yield score (None while warming up)."""
        state = self._states.get(database)
        return state.last_yield if state is not None else None

    def locality_fraction(self, database: str) -> float:
        """Current window's duplicate-locality hit fraction (0.0 empty)."""
        state = self._states.get(database)
        if state is None or not state.locality_seen:
            return 0.0
        return state.locality_hits / state.locality_seen

    # -- the deferred queue ------------------------------------------------------

    @property
    def pending_total(self) -> int:
        """Deferred records currently queued across all streams."""
        return len(self._entries)

    def pending(self, database: str) -> int:
        """Deferred records currently queued for one stream."""
        return self._pending_counts.get(database, 0)

    def databases_with_pending(self) -> list[str]:
        """Streams that currently have queued deferred records."""
        return sorted(
            database
            for database, count in self._pending_counts.items()
            if count
        )

    def _note_removed(self, database: str) -> None:
        count = self._pending_counts.get(database, 0) - 1
        if count > 0:
            self._pending_counts[database] = count
        else:
            self._pending_counts.pop(database, None)

    def defer(self, database: str, record_id: str, content: bytes) -> None:
        """Enqueue one record for a later out-of-line dedup pass.

        The caller is responsible for honouring ``max_deferred_records``
        (force-draining before enqueueing past the bound).
        """
        self._entries[record_id] = (database, content)
        self._stream_order.setdefault(database, deque()).append(record_id)
        self._global_order.append(record_id)
        self._pending_counts[database] = (
            self._pending_counts.get(database, 0) + 1
        )
        self.deferred_enqueued_total += 1

    def pop_deferred(self, database: str) -> tuple[str, bytes] | None:
        """Oldest live queued ``(record_id, content)`` of one stream."""
        order = self._stream_order.get(database)
        while order:
            record_id = order.popleft()
            entry = self._entries.pop(record_id, None)
            if entry is not None:
                self._note_removed(entry[0])
                return record_id, entry[1]
        return None

    def pop_oldest(self) -> tuple[str, str, bytes] | None:
        """Globally oldest live entry as ``(database, record_id, content)``.

        Popping globally oldest preserves per-stream FIFO order (each
        stream's entries still leave in arrival order), which is what the
        inline ≡ hybrid equivalence property needs.
        """
        while self._global_order:
            record_id = self._global_order.popleft()
            entry = self._entries.pop(record_id, None)
            if entry is not None:
                self._note_removed(entry[0])
                return entry[0], record_id, entry[1]
        return None

    def invalidate(self, record_id: str) -> bool:
        """Drop a queued entry superseded by a client update or delete.

        The queued bytes are stale — deduplicating them would index (and
        potentially re-encode other records against) content the client
        already replaced. Returns True when an entry was discarded.
        """
        entry = self._entries.pop(record_id, None)
        if entry is None:
            return False
        self._note_removed(entry[0])
        self.deferred_discarded_total += 1
        return True

    def discard_deferred(self, database: str) -> int:
        """Drop every queued entry of a stream (bypass teardown)."""
        doomed = [
            record_id
            for record_id, (entry_db, _) in self._entries.items()
            if entry_db == database
        ]
        for record_id in doomed:
            del self._entries[record_id]
        if doomed:
            self._pending_counts.pop(database, None)
        self.deferred_discarded_total += len(doomed)
        return len(doomed)

    def note_outofline(self, database: str, raw_size: int) -> None:
        """Account one deferred record drained through the pipeline."""
        self.outofline_records_total += 1
        self.outofline_bytes_total += raw_size

"""Background storage compaction — reclaiming overlapped-encoding losses.

Extension beyond the paper. Overlapped encodings (Fig. 5) orphan one raw
record per fork: the old chain tail nothing ever re-encodes. The paper
accepts the loss (< 5 % on its corpora); at smaller scale, or on fork-heavy
workloads, it is worth reclaiming. This compactor runs when the system is
idle, finds raw records that are *not* the newest of their neighbourhood,
re-runs source selection for them against the live feature index, and
schedules ordinary backward write-backs — reusing every safety mechanism
the foreground path has (lossy cache, pending base references, refcounts).

Safety: re-encoding X against S must not create a decode cycle, so any S
whose decode path passes through X is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.writeback import WriteBackEntry
from repro.core.engine import DedupEngine
from repro.db.database import Database
from repro.db.record import RecordForm


@dataclass
class CompactionReport:
    """What one compaction pass accomplished."""

    candidates: int = 0
    compacted: int = 0
    no_source: int = 0
    weak_delta: int = 0
    would_cycle: int = 0
    bytes_reclaimable: int = 0


class BackgroundCompactor:
    """Idle-time re-encoder for orphaned raw records."""

    def __init__(self, engine: DedupEngine, db: Database) -> None:
        self.engine = engine
        self.db = db

    def find_candidates(self) -> list[str]:
        """Raw, live, unpinned records — potential compaction targets.

        Whether a candidate actually gets re-encoded is decided per record
        by :meth:`_plan_one`, which only accepts a *strictly newer* similar
        record as the base. That one rule covers both goals at once: the
        genuinely hot chain tails (the newest of their lineage) find no
        newer source and stay raw, while fork-orphaned old tails (Fig. 5)
        find the branch that superseded them. It also keeps every base
        pointer aimed forward in insertion time, which makes the encoding
        graph acyclic by construction.
        """
        candidates = []
        for record_id, record in self.db.records.items():
            if record.form is not RecordForm.RAW:
                continue
            if record.deleted or record.pending_updates:
                continue
            if record_id in self.db.writeback_cache:
                continue  # already on its way to being encoded
            candidates.append(record_id)
        return candidates

    def compact(self, max_records: int | None = None) -> CompactionReport:
        """Re-encode up to ``max_records`` orphans; returns a report."""
        report = CompactionReport()
        planned: dict[str, str] = {}  # this pass's tentative base pointers
        for record_id in self.find_candidates():
            if max_records is not None and report.compacted >= max_records:
                break
            report.candidates += 1
            entry = self._plan_one(record_id, report, planned)
            if entry is None:
                continue
            self.db.schedule_writebacks([entry])
            planned[entry.record_id] = entry.base_id
            report.compacted += 1
            report.bytes_reclaimable += entry.space_saving
        return report

    def _plan_one(self, record_id: str, report: CompactionReport,
                  planned: dict[str, str]) -> WriteBackEntry | None:
        record = self.db.records[record_id]
        content = self.db.fetch_content(record_id)
        if content is None:
            report.no_source += 1
            return None

        # Re-run similarity search against the live index (lookup only —
        # the record's own features are already indexed).
        index = self.engine.index_for(record.database)
        sketch = self.engine.extractor.sketch(content)
        candidates = [
            [rid for rid in index.lookup(feature) if rid != record_id]
            for feature in sketch.features
        ]
        selected = self.engine.selector.select(
            candidates,
            recency_of=lambda rid: self.engine._insert_seq.get(rid, -1),
        )
        if selected is None:
            report.no_source += 1
            return None
        sequence = self.engine._insert_seq
        if sequence.get(selected.record_id, -1) <= sequence.get(record_id, -1):
            # Only strictly newer bases: protects hot tails and keeps the
            # encoding graph pointing forward in time.
            report.no_source += 1
            return None
        if self._decodes_through(selected.record_id, record_id, planned):
            report.would_cycle += 1
            return None
        source_content = self.engine.planner.fetch(selected.record_id, self.db)
        if source_content is None:
            report.no_source += 1
            return None

        payload = self.engine.planner.compressor.compress(source_content, content)
        saving = record.stored_size - len(payload)
        if saving <= 0 or len(payload) >= len(content) * self.engine.config.min_savings_ratio:
            report.weak_delta += 1
            return None
        return WriteBackEntry(
            record_id=record_id,
            base_id=selected.record_id,
            payload=payload,
            space_saving=saving,
        )

    def _decodes_through(
        self, start_id: str, target_id: str, planned: dict[str, str]
    ) -> bool:
        """Could ``start_id``'s decode path ever pass through ``target_id``?

        Write-backs flush in an order we do not control, so between now
        and quiescence a record's base pointer may be its stored one, its
        pending (write-back cache) one, or the one planned earlier in this
        pass. The check is therefore a BFS over the *union* of all three
        edge sets: if any combination reaches ``target_id``, encoding the
        target against ``start_id`` could transiently (or permanently)
        close a cycle, and the plan is rejected.
        """
        seen: set[str] = set()
        frontier = [start_id]
        while frontier:
            cursor_id = frontier.pop()
            if cursor_id == target_id:
                return True
            if cursor_id in seen:
                continue
            seen.add(cursor_id)
            successors = set()
            planned_base = planned.get(cursor_id)
            if planned_base is not None:
                successors.add(planned_base)
            pending_base = self.db.writeback_cache.pending_base_of(cursor_id)
            if pending_base is not None:
                successors.add(pending_base)
            record = self.db.records.get(cursor_id)
            if record is not None and record.base_id is not None:
                successors.add(record.base_id)
            frontier.extend(successors)
        return False

"""Online garbage collection: rollback-safe re-rooting and compaction.

Deletes of records that others decode from are *deferred* — the record
becomes a tombstone that keeps its bytes on disk until every dependent
stops referencing it. Before this module, only the read path reclaimed
tombstones (splicing them out of chains it happened to walk); chains
nobody reads leaked forever, and pages emptied by deletes were never
returned. :class:`GarbageCollector` closes both gaps as §3.3.2-style
background work:

* **chain re-rooting** — a tombstone's live dependents are re-encoded
  against the tombstone's own base (or, for a raw tombstone, one
  dependent is promoted to raw and the rest re-encoded against it),
  after which the tombstone's refcount reaches zero and it is reclaimed;
* **page compaction** — live payloads are migrated off sparse pages so
  empty pages can be freed (``Database.compact_pages``).

Every cycle is a **rollback-safe batch**: plan (pure) → dry-run (decode
and pre-compute every new payload, skipping cohorts that would *grow*
the footprint or that hit corrupt pages) → apply (with an undo log of
``Database.pre_image`` copies) → post-validate (read-only, through
``Database.content_of``: byte-identity of every rewritten chain plus the
:mod:`repro.db.invariants` node-local sweep, counting only what names a
record the batch touched) → automatic
rollback through ``Database.reinstate`` when validation fails. The
collector only decides; every change to a stored record is a
``Database`` call (``rewrite`` reaps the tombstone when its last
dependent moves off). GC never writes the oplog — a crash
mid-batch recovers by replaying the oplog to the pre-GC logical state,
which is observably identical by construction.

CPU is charged on the simulated cost model (``cpu_gc_scan_byte_s`` for
planning, ``cpu_reencode_byte_s`` for re-encoding,
``cpu_compaction_byte_s`` for migration) and every rewritten payload is
a background disk write, so GC shows up in the idleness signal like any
other maintenance work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.db.errors import CorruptChain, CorruptPage
from repro.db.record import RecordForm, StoredRecord
from repro.delta.dbdelta import DeltaCompressor
from repro.sim.costs import CostModel

#: Batch outcomes (the ``outcome`` label of ``gc_batches_total``).
OUTCOME_APPLIED = "applied"
OUTCOME_ROLLED_BACK = "rolled_back"
OUTCOME_NOOP = "noop"
OUTCOMES = (OUTCOME_APPLIED, OUTCOME_ROLLED_BACK, OUTCOME_NOOP)

#: Most dependent records one node-driven GC batch re-encodes: bounds the
#: work (and the rollback undo log) of one idle slice.
MAX_BATCH_RECORDS = 64


@dataclass(frozen=True)
class RerootAction:
    """One planned tombstone reclamation.

    Attributes:
        tombstone_id: the deleted record to reap.
        dependent_ids: live records whose stored delta decodes from it.
        grandbase_id: the tombstone's own base — dependents re-root onto
            it; None for a raw tombstone (promotion path).
        tombstone_bytes: stored bytes freed when the tombstone goes.
    """

    tombstone_id: str
    dependent_ids: tuple[str, ...]
    grandbase_id: str | None
    tombstone_bytes: int


@dataclass
class GcPlan:
    """A batch's worth of reclaimable work, computed without mutation."""

    reroots: list[RerootAction] = field(default_factory=list)
    #: Upper bound on bytes the re-roots can free (tombstone payloads).
    reclaimable_bytes: int = 0
    #: Allocated-but-unused page bytes compaction could consolidate.
    page_slack_bytes: int = 0
    pages_before: int = 0
    #: True when the slack justifies a compaction pass.
    compact_pages: bool = False

    @property
    def empty(self) -> bool:
        """True when the batch has nothing to do."""
        return not self.reroots and not self.compact_pages

    @property
    def estimated_reclaim_bytes(self) -> int:
        """Gate signal: tombstone bytes plus compactable page slack."""
        return self.reclaimable_bytes + (
            self.page_slack_bytes if self.compact_pages else 0
        )

    def describe(self) -> str:
        """Human-readable plan for ``repro cleanup --dry-run``."""
        lines = [
            f"reclaimable bytes : {self.estimated_reclaim_bytes}",
            f"chains to re-root : {len(self.reroots)}",
        ]
        for action in self.reroots:
            mode = (
                f"re-root onto {action.grandbase_id!r}"
                if action.grandbase_id is not None
                else "promote dependent to raw"
            )
            lines.append(
                f"  tombstone {action.tombstone_id!r}: "
                f"{len(action.dependent_ids)} dependent(s), "
                f"{action.tombstone_bytes} bytes, {mode}"
            )
        lines.append(
            "page compaction   : "
            + (
                f"yes ({self.pages_before} pages, "
                f"{self.page_slack_bytes} slack bytes)"
                if self.compact_pages
                else "no"
            )
        )
        return "\n".join(lines)


@dataclass
class GcReport:
    """Outcome of one GC batch."""

    outcome: str = OUTCOME_NOOP
    reroots_applied: int = 0
    promotions: int = 0
    tombstones_removed: int = 0
    reclaimed_bytes: int = 0
    pages_freed: int = 0
    compaction_bytes_moved: int = 0
    cpu_seconds: float = 0.0
    violations: list[str] = field(default_factory=list)


@dataclass
class _PreparedDependent:
    """One dependent's precomputed rewrite (dry-run output)."""

    record_id: str
    new_form: RecordForm
    new_payload: bytes
    new_base_id: str | None
    #: The content the stored chain must keep decoding to.
    content: bytes


@dataclass
class _PreparedReroot:
    """A re-root cohort ready to apply: every byte already computed."""

    action: RerootAction
    dependents: list[_PreparedDependent]


class GarbageCollector:
    """Refcounted delta-chain GC with rollback-safe batches.

    One instance per store (the primary node owns one); cumulative
    counters back the ``gc_*`` metric families.

    Args:
        db: the :class:`~repro.db.database.Database` to collect.
        costs: simulated cost model for CPU charging.
        page_slack_pages: minimum whole pages of slack before a batch
            includes a compaction pass.
    """

    def __init__(
        self,
        db,
        costs: CostModel | None = None,
        page_slack_pages: int = 1,
    ) -> None:
        self.db = db
        self.costs = costs if costs is not None else CostModel()
        self.page_slack_pages = page_slack_pages
        # GC re-encoding runs out-of-line; default parameters suffice.
        self._compressor = DeltaCompressor()
        #: Cumulative batch counts by outcome (``gc_batches_total``).
        self.batches: dict[str, int] = {outcome: 0 for outcome in OUTCOMES}
        self.reclaimed_bytes = 0
        self.reroots_applied = 0
        self.promotions = 0
        self.tombstones_removed = 0
        self.pages_freed = 0
        self.compaction_bytes_moved = 0
        self.cpu_seconds = 0.0
        #: Test/chaos seam: called with ``(db, prepared)`` after apply,
        #: before post-validation — lets a test corrupt the applied state
        #: to prove the batch rolls back.
        self.on_post_validate = None

    # -- plan (pure) --------------------------------------------------------

    def plan(self) -> GcPlan:
        """Scan the store for reclaimable work; mutates nothing."""
        db = self.db
        dependents: dict[str, list[str]] = {}
        scanned_bytes = 0
        for record_id, record in db.records.items():
            scanned_bytes += len(record.payload)
            if record.base_id is not None:
                dependents.setdefault(record.base_id, []).append(record_id)
        pending_bases = {
            entry.base_id for entry in db.writeback_cache.pending_entries()
        }
        plan = GcPlan()
        for tombstone_id in sorted(db.records):
            record = db.records[tombstone_id]
            if not record.deleted or record.ref_count <= 0:
                continue
            deps = sorted(dependents.get(tombstone_id, ()))
            # Only reap when every reference is a stored dependent: a
            # pending write-back holds the tombstone's exact bytes as
            # its delta base and must flush or drop first.
            if not deps or record.ref_count != len(deps):
                continue
            if tombstone_id in pending_bases:
                continue
            # Quarantined payloads cannot decode; the repair path owns
            # them. Dependents that are themselves tombstones are reaped
            # innermost-first across batches, not within one.
            involved = [tombstone_id, *deps]
            if record.base_id is not None:
                involved.append(record.base_id)
            if any(rid in db.quarantine for rid in involved):
                continue
            if any(db.records[dep].deleted for dep in deps):
                continue
            plan.reroots.append(
                RerootAction(
                    tombstone_id=tombstone_id,
                    dependent_ids=tuple(deps),
                    grandbase_id=(
                        record.base_id
                        if record.form is RecordForm.DELTA
                        else None
                    ),
                    tombstone_bytes=record.stored_size,
                )
            )
            plan.reclaimable_bytes += record.stored_size
        plan.pages_before = db.page_count
        page_size = db.page_size
        capacity = plan.pages_before * page_size
        plan.page_slack_bytes = max(0, capacity - db.stored_bytes)
        plan.compact_pages = (
            plan.page_slack_bytes >= self.page_slack_pages * page_size
        )
        self.cpu_seconds += scanned_bytes * self.costs.cpu_gc_scan_byte_s
        return plan

    # -- dry-run ------------------------------------------------------------

    def dry_run(
        self, plan: GcPlan, max_records: int | None = None
    ) -> list[_PreparedReroot]:
        """Decode every affected chain and precompute the new payloads.

        Cohorts are skipped (not failed) when a page reads corrupt, the
        store changed since planning, or the rewritten cohort would
        occupy *more* bytes than tombstone + old deltas — GC must never
        grow the footprint (the property test holds it to that).
        """
        prepared: list[_PreparedReroot] = []
        budget = max_records
        for action in plan.reroots:
            if budget is not None and budget < len(action.dependent_ids):
                break
            cohort = self._prepare(action)
            if cohort is None:
                continue
            prepared.append(cohort)
            if budget is not None:
                budget -= len(action.dependent_ids)
        return prepared

    def _prepare(self, action: RerootAction) -> _PreparedReroot | None:
        db = self.db
        tombstone = db.records.get(action.tombstone_id)
        if tombstone is None or not tombstone.deleted:
            return None
        if tombstone.ref_count != len(action.dependent_ids):
            return None
        try:
            base_content = None
            if action.grandbase_id is not None:
                base_content = db.decode_stored_content(action.grandbase_id)
                if base_content is None:
                    return None
            dep_contents: dict[str, bytes] = {}
            for dep_id in action.dependent_ids:
                if dep_id not in db.records:
                    return None
                content = db.decode_stored_content(dep_id)
                if content is None:
                    return None
                dep_contents[dep_id] = content
        except CorruptChain:
            return None

        dependents: list[_PreparedDependent] = []
        reencoded_bytes = 0
        if action.grandbase_id is not None:
            for dep_id in action.dependent_ids:
                content = dep_contents[dep_id]
                payload = self._compressor.compress(base_content, content)
                reencoded_bytes += len(content)
                dependents.append(
                    _PreparedDependent(
                        record_id=dep_id,
                        new_form=RecordForm.DELTA,
                        new_payload=payload,
                        new_base_id=action.grandbase_id,
                        content=content,
                    )
                )
        else:
            # Raw tombstone: promote the dependent with the largest
            # content to raw (ties break on id for determinism), then
            # re-encode the rest against the promoted copy.
            promoted_id = max(
                action.dependent_ids,
                key=lambda rid: (len(dep_contents[rid]), rid),
            )
            promoted_content = dep_contents[promoted_id]
            dependents.append(
                _PreparedDependent(
                    record_id=promoted_id,
                    new_form=RecordForm.RAW,
                    new_payload=promoted_content,
                    new_base_id=None,
                    content=promoted_content,
                )
            )
            for dep_id in action.dependent_ids:
                if dep_id == promoted_id:
                    continue
                content = dep_contents[dep_id]
                payload = self._compressor.compress(promoted_content, content)
                reencoded_bytes += len(content)
                dependents.append(
                    _PreparedDependent(
                        record_id=dep_id,
                        new_form=RecordForm.DELTA,
                        new_payload=payload,
                        new_base_id=promoted_id,
                        content=content,
                    )
                )
        self.cpu_seconds += reencoded_bytes * self.costs.cpu_reencode_byte_s

        new_bytes = sum(len(dep.new_payload) for dep in dependents)
        old_bytes = action.tombstone_bytes + sum(
            len(db.records[dep_id].payload)
            for dep_id in action.dependent_ids
        )
        if new_bytes > old_bytes:
            return None  # re-rooting would grow the footprint; leave it
        return _PreparedReroot(action=action, dependents=dependents)

    # -- apply + rollback ---------------------------------------------------

    @staticmethod
    def _touched(cohort: _PreparedReroot) -> list[str]:
        """Every record a cohort's apply rewrites, reaps or re-references."""
        action = cohort.action
        touched = [action.tombstone_id]
        if action.grandbase_id is not None:
            touched.append(action.grandbase_id)
        touched.extend(dep.record_id for dep in cohort.dependents)
        return touched

    def _apply(
        self, prepared: list[_PreparedReroot], undo: list[StoredRecord]
    ) -> GcReport:
        db = self.db
        report = GcReport()
        for cohort in prepared:
            action = cohort.action
            tombstone = db.records.get(action.tombstone_id)
            if tombstone is None or tombstone.ref_count != len(
                action.dependent_ids
            ):
                continue
            undo.extend(
                image
                for image in map(db.pre_image, self._touched(cohort))
                if image is not None
            )
            # The last dependent to move off the tombstone releases its
            # final reference, which reaps it (and releases the
            # grandbase reference the tombstone held).
            for dep in cohort.dependents:
                db.rewrite(
                    db.records[dep.record_id],
                    dep.new_form,
                    dep.new_payload,
                    dep.new_base_id,
                )
                if dep.new_form is RecordForm.RAW:
                    report.promotions += 1
                report.reroots_applied += 1
            if action.tombstone_id not in db.records:
                report.tombstones_removed += 1
        return report

    def _rollback(self, undo: list[StoredRecord]) -> None:
        # Newest first, so a record imaged twice ends at its oldest image.
        for image in reversed(undo):
            self.db.reinstate(image)

    # -- post-validate ------------------------------------------------------

    def _post_validate(self, prepared: list[_PreparedReroot]) -> list[str]:
        """Violations the batch is answerable for: a rewritten chain that
        no longer decodes to its pre-GC bytes, and any store-wide
        invariant violation that names a record the batch touched or no
        record at all. A record the batch never touched (say, one
        quarantined and awaiting repair) does not roll it back. Reads go
        through the read-only ``Database.content_of``: validation splices
        no chain, so the undo log covers every change the batch made."""
        from repro.db.invariants import check_database

        db = self.db
        violations: list[str] = []
        touched = {
            record_id for cohort in prepared for record_id in self._touched(cohort)
        }
        for cohort in prepared:
            for dep in cohort.dependents:
                try:
                    decoded = db.content_of(dep.record_id, stored=True)
                except (CorruptChain, CorruptPage) as fault:
                    violations.append(
                        f"[gc-decode] {dep.record_id}: {fault}"
                    )
                    continue
                if decoded != dep.content:
                    violations.append(
                        f"[gc-identity] {dep.record_id}: rewritten chain "
                        "no longer decodes to the pre-GC content"
                    )
        report = check_database(db, node="gc")
        violations.extend(
            str(violation)
            for violation in report.violations
            if violation.record_id is None or violation.record_id in touched
        )
        return violations

    # -- the batch ----------------------------------------------------------

    def run(
        self,
        plan: GcPlan | None = None,
        max_records: int | None = None,
        compact: bool = True,
    ) -> GcReport:
        """Run one rollback-safe GC batch: plan → dry-run → apply →
        post-validate, rolling back automatically on validation failure.

        Returns the batch's :class:`GcReport`; cumulative counters (for
        the ``gc_*`` metric families) advance only on success.
        """
        db = self.db
        cpu_before = self.cpu_seconds
        if plan is None:
            plan = self.plan()
        prepared = self.dry_run(plan, max_records=max_records)
        if not prepared and not plan.compact_pages:
            self.batches[OUTCOME_NOOP] += 1
            return GcReport(
                outcome=OUTCOME_NOOP,
                cpu_seconds=self.cpu_seconds - cpu_before,
            )

        before_bytes = db.stored_bytes
        undo: list[StoredRecord] = []
        report = self._apply(prepared, undo)
        if self.on_post_validate is not None:
            self.on_post_validate(db, prepared)
        if prepared:
            violations = self._post_validate(prepared)
            if violations:
                self._rollback(undo)
                self.batches[OUTCOME_ROLLED_BACK] += 1
                failed = GcReport(
                    outcome=OUTCOME_ROLLED_BACK, violations=violations
                )
                failed.cpu_seconds = self.cpu_seconds - cpu_before
                return failed

        if compact and plan.compact_pages:
            freed, moved = db.compact_pages()
            report.pages_freed = freed
            report.compaction_bytes_moved = moved
            self.cpu_seconds += moved * self.costs.cpu_compaction_byte_s

        report.outcome = OUTCOME_APPLIED
        report.reclaimed_bytes = max(0, before_bytes - db.stored_bytes)
        report.cpu_seconds = self.cpu_seconds - cpu_before
        self.batches[OUTCOME_APPLIED] += 1
        self.reclaimed_bytes += report.reclaimed_bytes
        self.reroots_applied += report.reroots_applied
        self.promotions += report.promotions
        self.tombstones_removed += report.tombstones_removed
        self.pages_freed += report.pages_freed
        self.compaction_bytes_moved += report.compaction_bytes_moved
        return report

"""The four dataset generators: structure, determinism, trace ratios."""

import hashlib

import pytest

from repro.workloads import ALL_WORKLOADS, EXTRA_WORKLOADS, make_workload
from repro.workloads.enron import EnronWorkload
from repro.workloads.messageboards import MessageBoardsWorkload
from repro.workloads.stackexchange import StackExchangeWorkload
from repro.workloads.wikipedia import WikipediaWorkload

TARGET = 150_000


@pytest.mark.parametrize("workload_cls", ALL_WORKLOADS)
class TestCommonContract:
    def test_insert_trace_meets_target(self, workload_cls):
        workload = workload_cls(seed=5, target_bytes=TARGET)
        total = sum(len(op.content) for op in workload.insert_trace())
        assert total >= TARGET

    def test_deterministic(self, workload_cls):
        a = [op.record_id for op in workload_cls(seed=5, target_bytes=TARGET).insert_trace()]
        b = [op.record_id for op in workload_cls(seed=5, target_bytes=TARGET).insert_trace()]
        assert a == b

    def test_seed_changes_content(self, workload_cls):
        a = next(iter(workload_cls(seed=5, target_bytes=TARGET).insert_trace()))
        b = next(iter(workload_cls(seed=6, target_bytes=TARGET).insert_trace()))
        assert a.content != b.content

    def test_record_ids_unique(self, workload_cls):
        ids = [op.record_id for op in workload_cls(seed=5, target_bytes=TARGET).insert_trace()]
        assert len(ids) == len(set(ids))

    def test_mixed_trace_contains_reads_of_inserted_records(self, workload_cls):
        workload = workload_cls(seed=5, target_bytes=TARGET)
        inserted = set()
        reads = 0
        for op in workload.mixed_trace():
            if op.kind == "insert":
                inserted.add(op.record_id)
            elif op.kind == "read":
                reads += 1
                assert op.record_id in inserted
        assert reads > 0

    def test_target_too_small_rejected(self, workload_cls):
        with pytest.raises(ValueError):
            workload_cls(seed=5, target_bytes=100)


@pytest.mark.parametrize("seed", [7, 23])
@pytest.mark.parametrize("workload_cls", ALL_WORKLOADS + EXTRA_WORKLOADS)
def test_no_exact_duplicate_insert(workload_cls, seed):
    """No insert repeats an earlier insert byte for byte, so an exact-match
    short-circuit ahead of chunking would never fire on these corpora."""
    seen: set[bytes] = set()
    for op in workload_cls(seed=seed, target_bytes=TARGET).insert_trace():
        if op.kind != "insert":
            continue
        digest = hashlib.blake2b(op.content, digest_size=16).digest()
        assert digest not in seen, op.record_id
        seen.add(digest)


class TestFactory:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("wikipedia", WikipediaWorkload),
            ("enron", EnronWorkload),
            ("stackexchange", StackExchangeWorkload),
            ("messageboards", MessageBoardsWorkload),
        ],
    )
    def test_known_names(self, name, cls):
        assert isinstance(make_workload(name, target_bytes=TARGET), cls)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_workload("tpcc")


class TestWikipediaStructure:
    def test_revisions_sequential_per_article(self):
        workload = WikipediaWorkload(seed=5, target_bytes=TARGET)
        seen: dict[str, int] = {}
        for op in workload.insert_trace():
            _, article, revision = op.record_id.split("/")
            expected = seen.get(article, -1) + 1
            assert int(revision) == expected
            seen[article] = expected

    def test_consecutive_revisions_similar(self):
        workload = WikipediaWorkload(seed=5, target_bytes=TARGET, num_articles=1)
        ops = list(workload.insert_trace())
        previous, current = ops[-2].content, ops[-1].content
        # Consecutive revisions share a long common span.
        assert previous[500:700] in current or previous[1500:1700] in current

    def test_bursty_trace_has_idle_gaps(self):
        workload = WikipediaWorkload(seed=5, target_bytes=TARGET)
        kinds = [op.kind for op in workload.bursty_insert_trace(inserts_per_burst=5)]
        assert "idle" in kinds


class TestEnronStructure:
    def test_replies_quote_previous(self):
        workload = EnronWorkload(seed=5, target_bytes=TARGET)
        ops = list(workload.insert_trace())
        quoted = sum(
            1 for op in ops
            if b"\n> " in op.content or b"Forwarded message" in op.content
        )
        assert quoted > len(ops) * 0.3

    def test_mixed_trace_one_to_one(self):
        workload = EnronWorkload(seed=5, target_bytes=TARGET)
        kinds = [op.kind for op in workload.mixed_trace()]
        assert kinds.count("read") == kinds.count("insert")


class TestForumStructure:
    def test_stackexchange_read_heavy(self):
        workload = StackExchangeWorkload(seed=5, target_bytes=TARGET)
        kinds = [op.kind for op in workload.mixed_trace()]
        assert kinds.count("read") > kinds.count("insert") * 5

    def test_messageboards_posts_quote(self):
        workload = MessageBoardsWorkload(seed=5, target_bytes=TARGET)
        ops = list(workload.insert_trace())
        quoted = sum(1 for op in ops if b"\n> " in op.content or op.content.count(b"> ") > 2)
        assert quoted > len(ops) * 0.15

    def test_messageboards_thread_reads_walk_thread(self):
        workload = MessageBoardsWorkload(seed=5, target_bytes=TARGET)
        inserted = set()
        for op in workload.mixed_trace():
            if op.kind == "insert":
                inserted.add(op.record_id)
            else:
                assert op.record_id in inserted

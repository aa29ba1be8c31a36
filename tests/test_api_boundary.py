"""The API-boundary lint gate stays green and stays sharp."""

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPT = REPO_ROOT / "tools" / "check_api_boundary.py"

sys.path.insert(0, str(REPO_ROOT / "tools"))
import check_api_boundary  # noqa: E402
from check_api_boundary import ALLOWED, BANNED, find_violations  # noqa: E402


class TestBoundary:
    def test_repo_is_clean(self):
        assert find_violations() == []

    def test_script_exits_zero(self):
        result = subprocess.run(
            [sys.executable, str(SCRIPT)], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stdout + result.stderr

    def test_allowlist_entries_exist(self):
        # A migrated (deleted/renamed) file must leave the allowlist, so
        # the grandfathered set only ever shrinks.
        for relative in ALLOWED:
            assert (REPO_ROOT / relative).is_file(), relative

    def test_stale_allowlist_entry_is_a_violation(self, monkeypatch):
        # "Shrink only" is enforced: a listed file that no longer (or
        # never did) match the pattern it is excused from must leave the
        # list — here a file that imports nothing internal stands in for
        # a migrated one.
        assert check_api_boundary.find_stale_allowlist_entries() == []
        migrated = "tests/test_docstrings.py"
        monkeypatch.setattr(
            check_api_boundary,
            "RULES",
            ((BANNED, ALLOWED | {migrated, "tests/gone.py"}, "unused"),),
        )
        stale = check_api_boundary.find_stale_allowlist_entries()
        assert sorted(entry[0] for entry in stale) == [
            "tests/gone.py", migrated,
        ]
        assert set(stale) <= set(find_violations())

    def test_spec_modules_are_internal(self):
        banned = check_api_boundary.INDEX_SPEC_BANNED
        assert banned.match("from repro.db.spec import ClusterSpec")
        assert banned.match("from repro.index.spec import IndexSpec")
        assert not banned.match("from repro.api import ClusterSpec, IndexSpec")

    def test_regex_catches_each_banned_form(self):
        banned = [
            "from repro.db.cluster import Cluster",
            "from repro.db import Cluster, Database",
            "from repro import Cluster",
            "from repro import ClusterSpec, Cluster",
            "import repro.db.cluster",
        ]
        for line in banned:
            assert BANNED.match(line), line

    def test_regex_permits_public_names(self):
        allowed = [
            "from repro.api import ClusterSpec, open_cluster",
            "from repro import ClusterSpec, open_cluster",
            "from repro.db.cluster import RunResult, run_trace",
            "from repro.db.sharding import ShardedCluster",
        ]
        for line in allowed:
            assert not BANNED.match(line), line

    def test_frozen_oracle_source_gate_is_sharp(self, monkeypatch):
        # murmur3_32 is the differential oracle of the numpy murmur
        # lanes: its text is pinned, and a digest that does not match
        # (here: a wrong pin standing in for an edited function) trips.
        key = ("src/repro/hashing/murmur.py", "murmur3_32")
        assert key in check_api_boundary.FROZEN_SOURCES
        assert check_api_boundary.find_frozen_source_violations() == []
        monkeypatch.setitem(check_api_boundary.FROZEN_SOURCES, key, "0" * 64)
        (violation,) = check_api_boundary.find_frozen_source_violations()
        assert violation[2] == "murmur3_32"

    def test_frozen_oracle_class_is_pinned_too(self, monkeypatch):
        # The every-offset delta encoder DeltaCompressor must match is a
        # class: the gate has to find it and hash its whole body.
        key = ("src/repro/delta/reference.py", "OracleDeltaCompressor")
        assert key in check_api_boundary.FROZEN_SOURCES
        monkeypatch.setitem(check_api_boundary.FROZEN_SOURCES, key, "0" * 64)
        (violation,) = check_api_boundary.find_frozen_source_violations()
        assert violation[2] == "OracleDeltaCompressor"

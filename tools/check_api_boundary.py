#!/usr/bin/env python3
"""Lint gate: code outside ``src/repro/`` must use the public API.

The supported entry point is ``repro.api`` (``ClusterSpec`` +
``open_cluster`` + ``DedupClient``); ``repro.db.cluster.Cluster`` is an
internal constructor. This script fails CI when a file outside the
library internals imports ``Cluster`` directly — unless the file is on
the grandfathered allowlist of pre-redesign call sites below, which may
shrink but must never grow: a listed file that no longer matches the
pattern it was excused from is reported too, so a migrated file has to
leave its list in the same change.

Run:  python tools/check_api_boundary.py
"""

from __future__ import annotations

import ast
import hashlib
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Trees scanned for boundary violations (``src/repro`` itself is the
#: implementation and may import its own internals freely).
SCANNED_TREES = ("tests", "benchmarks", "examples", "tools")

#: A ``from repro[...] import`` (or direct module import) that binds the
#: bare name ``Cluster``. ``ClusterSpec``/``ShardedCluster``/``RunResult``
#: stay importable — only the internal constructor is fenced off.
BANNED = re.compile(
    r"^\s*("
    r"from\s+repro(\.db(\.cluster)?)?\s+import\s+[(\w ,]*\bCluster\b"
    r"|import\s+repro\.db\.cluster\b"
    r")"
)

#: ``IndexSpec`` and ``ClusterSpec`` must be imported from the public
#: surface (``repro.api``, or the ``repro.index`` package root), not from
#: the internal modules that define them — a spec module's location is
#: an implementation detail the API re-export insulates callers from.
INDEX_SPEC_BANNED = re.compile(
    r"^\s*(from\s+repro\.(index|db)\.spec\s+import\b"
    r"|import\s+repro\.(index|db)\.spec\b)"
)

INDEX_SPEC_ALLOWED: frozenset[str] = frozenset()

#: Pre-redesign call sites, grandfathered as-is. Shrink only: migrating
#: one of these to ``repro.api`` removes its line; adding a NEW file
#: here (or a new import in a file not listed) is a boundary violation.
ALLOWED = frozenset({
    "benchmarks/test_batch_insert.py",
    "tests/api/test_client.py",       # exercises the boundary itself
    "tests/db/test_read_preference.py",
    "tests/integration/test_observability.py",
    "tests/integration/test_stateful.py",
    "tests/test_cli.py",
})


#: ``(pattern, allowlist, what the offending line should do instead)``.
RULES = (
    (BANNED, ALLOWED, "imports internal Cluster (use repro.api.open_cluster)"),
    (
        INDEX_SPEC_BANNED,
        INDEX_SPEC_ALLOWED,
        "imports an internal spec module "
        "(import IndexSpec / ClusterSpec from repro.api)",
    ),
)

#: Modules whose *public surface* is frozen, mapped to the exact set of
#: top-level names they may export. The scalar chunker is the
#: differential-testing oracle for the vectorized lane: it must stay a
#: single pure function so nothing can grow to depend on oracle-only
#: behaviour. The murmur module is the scalar oracle plus its two numpy
#: lanes and nothing else. Names starting with ``_`` and imports are
#: not surface.
FROZEN_SURFACES = {
    "src/repro/chunking/scalar.py": frozenset({"scalar_boundaries"}),
    "src/repro/hashing/murmur.py": frozenset(
        {"murmur3_32", "murmur3_32_chunks", "murmur3_32_u64_batch"}
    ),
}

#: Oracles whose *source text* is frozen: ``(module, function or class)``
#: mapped to the SHA-256 of its source segment. The numpy murmur lanes
#: are proven against ``murmur3_32`` and it still hashes for the router,
#: the cuckoo and Bloom indexes and the tenant harness, so an edit here
#: moves every golden value at once. ``OracleDeltaCompressor`` is the
#: every-offset encoder the anchor-only ``DeltaCompressor`` must match
#: byte for byte, and ``oracle_delta_reencode`` the instruction-list
#: Algorithm 2 the payload ``delta_reencode`` must match; "optimising"
#: either would make the differential suite compare the new code with
#: itself. A deliberate change updates the
#: digest in the same commit.
FROZEN_SOURCES = {
    ("src/repro/hashing/murmur.py", "murmur3_32"): (
        "04cf2e2903d123922e6139a0adc6279354eba5058b60b589b0f38415fcb45c18"
    ),
    ("src/repro/delta/reference.py", "OracleDeltaCompressor"): (
        "8d7552aee8ef0857fbefe09c582d1c4b5ecbad37debfd5a38850f0c3eb27d74f"
    ),
    ("src/repro/delta/reference.py", "oracle_delta_reencode"): (
        "86aca5e7942a1099e26bcbbec44d2456a09d561bab95b15c90d644ae2f58fe29"
    ),
}


def _public_surface(path: Path) -> set[str]:
    """Top-level public names a module defines (defs, classes, assigns)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {name for name in names if not name.startswith("_")}


def find_frozen_surface_violations() -> list[tuple[str, int, str, str]]:
    """Frozen modules exporting more (or less) than their pinned surface."""
    violations: list[tuple[str, int, str, str]] = []
    for relative, expected in FROZEN_SURFACES.items():
        path = REPO_ROOT / relative
        if not path.is_file():
            violations.append(
                (relative, 0, "<missing>", "frozen-surface module is gone")
            )
            continue
        actual = _public_surface(path)
        for name in sorted(actual - expected):
            violations.append((
                relative,
                0,
                name,
                "grows the frozen oracle surface (an oracle module "
                "exports its pinned names and nothing else)",
            ))
        for name in sorted(expected - actual):
            violations.append(
                (relative, 0, name, "frozen-surface name disappeared")
            )
    return violations


def find_frozen_source_violations() -> list[tuple[str, int, str, str]]:
    """Frozen oracle functions or classes whose source text no longer matches."""
    violations: list[tuple[str, int, str, str]] = []
    for (relative, function), digest in FROZEN_SOURCES.items():
        path = REPO_ROOT / relative
        source = path.read_text(encoding="utf-8") if path.is_file() else ""
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == function:
                segment = ast.get_source_segment(source, node)
                if hashlib.sha256(segment.encode("utf-8")).hexdigest() != digest:
                    violations.append((
                        relative,
                        node.lineno,
                        function,
                        "frozen oracle source changed (the differential "
                        "suites are proven against this exact text)",
                    ))
                break
        else:
            violations.append(
                (relative, 0, function, "frozen oracle function is gone")
            )
    return violations


def find_violations() -> list[tuple[str, int, str, str]]:
    """``(relative_path, line_number, line, message)`` per banned import."""
    violations: list[tuple[str, int, str, str]] = [
        *find_frozen_surface_violations(),
        *find_frozen_source_violations(),
    ]
    for tree in SCANNED_TREES:
        root = REPO_ROOT / tree
        if not root.is_dir():
            continue
        for path in sorted(root.rglob("*.py")):
            relative = path.relative_to(REPO_ROOT).as_posix()
            lines = path.read_text(encoding="utf-8").splitlines()
            for pattern, allowed, message in RULES:
                if relative in allowed:
                    continue
                for number, line in enumerate(lines, start=1):
                    if pattern.match(line):
                        violations.append(
                            (relative, number, line.strip(), message)
                        )
    violations.extend(find_stale_allowlist_entries())
    return violations


def find_stale_allowlist_entries() -> list[tuple[str, int, str, str]]:
    """Allowlisted files that no longer do what they were excused for.

    A migrated, renamed or deleted file must leave its allowlist in the
    same change — that is what makes "shrink only" checked, not
    remembered.
    """
    stale: list[tuple[str, int, str, str]] = []
    for pattern, allowed, _message in RULES:
        for relative in sorted(allowed):
            path = REPO_ROOT / relative
            lines = (
                path.read_text(encoding="utf-8").splitlines()
                if path.is_file()
                else []
            )
            if not any(pattern.match(line) for line in lines):
                stale.append((
                    relative,
                    0,
                    "<allowlist>",
                    "is allowlisted but no longer matches the banned "
                    "pattern (drop its entry in tools/check_api_boundary.py)",
                ))
    return stale


def main() -> int:
    """Print violations; exit non-zero when the boundary is crossed."""
    violations = find_violations()
    for relative, number, line, message in violations:
        print(f"{relative}:{number}: {message}: {line}")
    if violations:
        print(
            f"\n{len(violations)} API-boundary violation(s). New code must "
            "go through repro.api (see docs/API.md); do not extend the "
            "allowlists in tools/check_api_boundary.py."
        )
        return 1
    print(
        "API boundary clean: no new internal Cluster or spec-module "
        "imports; frozen oracle surfaces and sources unchanged."
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

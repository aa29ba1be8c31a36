"""``Database`` is the one owner of a record's stored form.

An AST scan of ``src/repro``: outside ``db/database.py`` no module may
assign a :class:`~repro.db.record.StoredRecord` storage field, touch
``Database.pages`` or reach an underscore member of ``Database``. Every
rewrite, restore and compaction of a stored record goes through a public
``Database`` method, so the §4.1 lifecycle (reference counts,
tombstones, page images, checksums, charged writes) is coded once.

The scan is by attribute name, not by type: any ``x.pages`` or
``x.payload = ...`` outside the owner counts unless ``x`` is ``self``.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
OWNER = "db/database.py"

STORAGE_FIELDS = frozenset(
    {"form", "payload", "base_id", "raw_size", "ref_count", "deleted"}
)

#: (module, field) assignments allowed outside the owner. Sticky page
#: corruption rewrites a stored payload behind the store's back: it
#: models latent disk corruption, which by definition bypasses the owner.
EXEMPT = frozenset({("sim/faults.py", "payload")})


def database_private_members() -> frozenset[str]:
    """Underscore methods and attributes of the ``Database`` class."""
    tree = ast.parse((SRC / OWNER).read_text(encoding="utf-8"))
    cls = next(
        node
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "Database"
    )
    names = set()
    for node in ast.walk(cls):
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.Attribute) and _is_self(node.value):
            names.add(node.attr)
    return frozenset(
        name for name in names
        if name.startswith("_") and not name.startswith("__")
    )


def _is_self(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


def _unpacked(targets):
    """Each assigned expression of an assignment, through tuple unpacking
    (``a.x[k] = v`` assigns an item, not ``.x``; ``k`` is only read)."""
    for target in targets:
        if isinstance(target, (ast.Tuple, ast.List)):
            yield from _unpacked(target.elts)
        elif isinstance(target, ast.Starred):
            yield from _unpacked([target.value])
        else:
            yield target


def ownership_violations(
    module: str, source: str, private: frozenset[str]
) -> list[str]:
    """Every place ``source`` (the module at ``module``, relative to
    ``src/repro``) bypasses ``Database``'s ownership of stored records."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            targets = []
        for target in _unpacked(targets):
            if (
                isinstance(target, ast.Attribute)
                and target.attr in STORAGE_FIELDS
                and not _is_self(target.value)
                and (module, target.attr) not in EXEMPT
            ):
                found.append(f"{module}:{target.lineno} assigns .{target.attr}")
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "setattr"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value in STORAGE_FIELDS
        ):
            found.append(
                f"{module}:{node.lineno} sets .{node.args[1].value}"
            )
        if isinstance(node, ast.Attribute) and not _is_self(node.value):
            if node.attr == "pages" or node.attr in private:
                found.append(f"{module}:{node.lineno} touches .{node.attr}")
    return found


def test_only_database_changes_a_stored_record():
    private = database_private_members()
    found = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        if module != OWNER:
            found += ownership_violations(
                module, path.read_text(encoding="utf-8"), private
            )
    assert found == []


def test_scan_names_every_kind_of_bypass():
    private = database_private_members()
    assert {"_remove", "_disk_request", "_note_checksum"} <= private
    planted = (
        "def reap(db, record):\n"
        "    record.ref_count -= 1\n"
        "    record.form, record.base_id = None, None\n"
        "    setattr(record, 'deleted', True)\n"
        "    db.pages.remove(record.record_id)\n"
        "    db._remove(record)\n"
        "    record.payload = b''\n"
    )
    assert set(ownership_violations("core/gc.py", planted, private)) == {
        "core/gc.py:2 assigns .ref_count",
        "core/gc.py:3 assigns .form",
        "core/gc.py:3 assigns .base_id",
        "core/gc.py:4 sets .deleted",
        "core/gc.py:5 touches .pages",
        "core/gc.py:6 touches ._remove",
        "core/gc.py:7 assigns .payload",
    }
    # The one exemption is one field in one module.
    in_faults = ownership_violations("sim/faults.py", planted, private)
    assert len(in_faults) == 6
    assert "sim/faults.py:7 assigns .payload" not in in_faults
    # ``self`` is some other class's own state.
    assert ownership_violations(
        "core/pipeline.py", "self.raw_size = 3\nself.pages = []\n", private
    ) == []

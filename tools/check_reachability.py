#!/usr/bin/env python3
"""Lint gate: every module under ``src/repro`` must be reachable.

A module is live when an import chain leads to it from a root:

* ``repro.api``, ``repro.cli`` and ``repro.__main__`` (the entry points)
  and ``repro.analysis`` (the public profiling package);
* every ``repro`` import in ``benchmarks/``, ``examples/`` and ``tools/``.

Code in ``tests/`` is not a root: a module only tests import is dead.
Edges are the import statements of live modules, including imports
inside functions. ``from pkg import Name`` resolves through the package
``__init__`` to the module that defines ``Name``. An import in an
``__init__.py`` is an edge of its own only when the package uses the
name it binds, or the package is a root (its re-exports are the public
surface): a bare re-export keeps a module importable, not live.
Importing a module runs its parent packages, so those are live too.

There is no allowlist. The script fails, naming each dead module, so a
module nothing uses is deleted in the change that orphans it.

Run:  python tools/check_reachability.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

ROOT_MODULES = ("repro.api", "repro.cli", "repro.__main__", "repro.analysis")
ROOT_TREES = ("benchmarks", "examples", "tools")


class _Module:
    """One parsed module: its imports, and what its top level binds."""

    def __init__(self, name: str, path: Path) -> None:
        self.name = name
        self.path = path
        self.is_package = path.name == "__init__.py"
        self.tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        self.imports = [
            node
            for node in ast.walk(self.tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
        ]
        #: ``name -> (module, name there)`` for top-level ``from`` imports.
        self.reexports = {
            alias.asname or alias.name: (node.module, alias.name)
            for node in self.tree.body
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }

    def used_names(self) -> set[str]:
        return {
            node.id
            for node in ast.walk(self.tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }


def _load(root: Path) -> dict[str, _Module]:
    src = root / "src"
    modules: dict[str, _Module] = {}
    for path in sorted((src / "repro").rglob("*.py")):
        parts = list(path.relative_to(src).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        name = ".".join(parts)
        modules[name] = _Module(name, path)
    return modules


def _resolve(modules: dict[str, _Module], module: str, name: str) -> set[str]:
    """Modules a ``from module import name`` makes use of."""
    if f"{module}.{name}" in modules:
        return {f"{module}.{name}"}
    package = modules.get(module)
    if package is None or not package.is_package or name not in package.reexports:
        return {module}
    return {module} | _resolve(modules, *package.reexports[name])


def _edges(
    modules: dict[str, _Module], importer: _Module | None, tree_imports
) -> set[str]:
    """Modules reached by ``tree_imports``, made by ``importer`` (None:
    a file outside the package). Every import counts, except in a
    package ``__init__`` that is not itself a root: there only the names
    the package uses."""
    fenced = importer and importer.is_package and importer.name not in ROOT_MODULES
    used = importer.used_names() if fenced else None
    targets: set[str] = set()
    for node in tree_imports:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if used is None or bound in used:
                    targets.add(alias.name)
            continue
        for alias in node.names:
            if used is None or (alias.asname or alias.name) in used:
                targets |= _resolve(modules, node.module, alias.name)
    return {target for target in targets if target in modules}


def _root_imports(root: Path) -> list[ast.stmt]:
    imports: list[ast.stmt] = []
    for tree in ROOT_TREES:
        for path in sorted((root / tree).rglob("*.py")):
            parsed = ast.parse(path.read_text(encoding="utf-8"), str(path))
            imports.extend(
                node
                for node in ast.walk(parsed)
                if isinstance(node, (ast.Import, ast.ImportFrom))
            )
    return imports


def find_dead_modules(root: Path = REPO_ROOT) -> list[str]:
    """Paths (relative to ``root``) of the modules no root reaches."""
    modules = _load(root)
    frontier = [name for name in ROOT_MODULES if name in modules]
    frontier += _edges(modules, None, _root_imports(root))
    live: set[str] = set()
    while frontier:
        name = frontier.pop()
        if name in live:
            continue
        live.add(name)
        parts = name.split(".")
        frontier += [".".join(parts[:end]) for end in range(1, len(parts))]
        module = modules[name]
        frontier += _edges(modules, module, module.imports)
    return sorted(
        modules[name].path.relative_to(root).as_posix()
        for name in set(modules) - live
    )


def main() -> int:
    """Print each dead module; exit non-zero when there is one."""
    dead = find_dead_modules()
    for relative in dead:
        print(f"{relative}: no live code imports this module")
    if dead:
        print(
            f"\n{len(dead)} unreachable module(s). Delete a module nothing "
            "uses, or import it from the code that needs it."
        )
        return 1
    print("Reachability clean: every module under src/repro is imported.")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The reachability lint gate: the repo is clean, and the rule is sharp."""

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPT = REPO_ROOT / "tools" / "check_reachability.py"

sys.path.insert(0, str(REPO_ROOT / "tools"))
from check_reachability import find_dead_modules  # noqa: E402


def make_tree(root: Path, files: dict[str, str]) -> Path:
    """A miniature repository: ``repro.api`` is the only root module."""
    files = {
        "src/repro/__init__.py": "",
        "src/repro/api.py": "",
        **files,
    }
    for relative, text in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return root


def test_repo_is_clean():
    assert find_dead_modules() == []
    result = subprocess.run(
        [sys.executable, str(SCRIPT)], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_module_imported_only_from_tests_is_dead(tmp_path):
    root = make_tree(tmp_path, {
        "src/repro/orphan.py": "def helper():\n    return 1\n",
        "tests/test_orphan.py": "from repro.orphan import helper\n",
        "benchmarks/bench.py": "from repro.api import *\n",
    })
    assert find_dead_modules(root) == ["src/repro/orphan.py"]


def test_bare_reexport_does_not_keep_a_module_alive(tmp_path):
    root = make_tree(tmp_path, {
        "src/repro/api.py": "from repro.pkg import used\n",
        "src/repro/pkg/__init__.py": (
            "from repro.pkg.live import used\n"
            "from repro.pkg.shim import Shim\n"
            "__all__ = ['used', 'Shim']\n"
        ),
        "src/repro/pkg/live.py": "def used():\n    return 1\n",
        "src/repro/pkg/shim.py": "class Shim:\n    pass\n",
    })
    assert find_dead_modules(root) == ["src/repro/pkg/shim.py"]


def test_import_inside_a_function_is_an_edge(tmp_path):
    root = make_tree(tmp_path, {
        "src/repro/api.py": (
            "def lazy():\n"
            "    from repro.deferred import value\n"
            "    return value\n"
        ),
        "src/repro/deferred.py": "value = 1\n",
    })
    assert find_dead_modules(root) == []

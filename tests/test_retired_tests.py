"""The retired-test ledger stays true: every test ``RETIRED_TESTS.json``
names as covering a retired one exists, and every retired one is gone."""

import ast
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
LEDGER = json.loads((REPO_ROOT / "RETIRED_TESTS.json").read_text(encoding="utf-8"))


def is_defined(test_id: str) -> bool:
    """Whether ``tests.pkg.module[.Class]::test_name[param]`` is defined,
    found by parsing the test file (nothing is imported)."""
    dotted, name = test_id.split("::")
    name = name.split("[")[0]
    parts = dotted.split(".")
    for module, owner in ((parts, None), (parts[:-1], parts[-1])):
        path = REPO_ROOT.joinpath(*module).with_suffix(".py")
        if not path.is_file():
            continue
        body = ast.parse(path.read_text(encoding="utf-8")).body
        if owner is not None:
            body = next(
                (node.body for node in body
                 if isinstance(node, ast.ClassDef) and node.name == owner),
                [],
            )
        return any(
            isinstance(node, ast.FunctionDef) and node.name == name
            for node in body
        )
    return False


@pytest.mark.parametrize("entry", LEDGER, ids=lambda entry: entry["id"])
def test_ledger_entry_holds(entry):
    assert not is_defined(entry["id"]), "retired test is still defined"
    covered_by = entry["covered_by"]
    if not covered_by.startswith("removed with "):
        assert is_defined(covered_by), f"{covered_by} does not exist"


def test_helper_finds_module_and_class_level_tests():
    assert is_defined("tests.test_retired_tests::test_ledger_entry_holds[x]")
    assert is_defined(
        "tests.core.test_admission.TestGovernorMode::test_enabled_by_default"
    )
    assert not is_defined("tests.core.test_admission.TestGovernorMode::nope")

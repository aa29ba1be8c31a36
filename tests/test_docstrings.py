"""Documentation contract: every public item carries a docstring."""

import importlib
import inspect
import pkgutil

import repro


def iter_public_objects():
    """Yield (qualified name, object) for every public module-level item."""
    prefix = repro.__name__ + "."
    for module_info in pkgutil.walk_packages(repro.__path__, prefix):
        if module_info.name.endswith("__main__"):
            continue  # importing it runs the CLI
        module = importlib.import_module(module_info.name)
        yield module_info.name, module
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                continue
            if getattr(obj, "__module__", None) != module_info.name:
                continue  # re-export; documented at its home
            yield f"{module_info.name}.{name}", obj


def test_every_public_item_documented():
    missing = [
        name
        for name, obj in iter_public_objects()
        if not (inspect.getdoc(obj) or "").strip()
    ]
    assert not missing, f"undocumented public items: {missing}"


def test_every_public_class_method_documented():
    missing = []
    for name, obj in iter_public_objects():
        if not inspect.isclass(obj):
            continue
        for method_name, method in vars(obj).items():
            if method_name.startswith("_"):
                continue
            if not callable(method) and not isinstance(method, property):
                continue
            target = method.fget if isinstance(method, property) else method
            if not callable(target):
                continue
            if not (inspect.getdoc(target) or "").strip():
                missing.append(f"{name}.{method_name}")
    assert not missing, f"undocumented public methods: {missing}"


def test_every_config_field_is_documented():
    """Config docs cannot drift: each field of the three config classes
    is named in its class docstring and in docs/TUNING.md."""
    import dataclasses
    import re
    from pathlib import Path

    from repro.api import ClusterSpec, IndexSpec
    from repro.core.config import DedupConfig

    tuning = (
        Path(__file__).resolve().parent.parent / "docs" / "TUNING.md"
    ).read_text(encoding="utf-8")
    missing = [
        f"{cls.__name__}.{field.name} ({where})"
        for cls in (ClusterSpec, DedupConfig, IndexSpec)
        for field in dataclasses.fields(cls)
        for where, text in (("docstring", cls.__doc__), ("TUNING.md", tuning))
        if not re.search(rf"\b{field.name}\b", text)
    ]
    assert not missing, f"undocumented config fields: {missing}"

"""Public names: what the demos import exists, and every __all__ resolves."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import bayesdiv

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
MODULES = ["bayesdiv"] + [
    f"bayesdiv.{info.name}" for info in pkgutil.iter_modules(bayesdiv.__path__)
]


def _bayesdiv_imports(path):
    """(module, name) for every ``from bayesdiv[.x] import name`` in a file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module
        and node.module.split(".")[0] == "bayesdiv"
        for alias in node.names
    ]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(path):
    imports = _bayesdiv_imports(path)
    assert imports
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), (module, name)


@pytest.mark.parametrize("module", MODULES)
def test_all_entries_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing

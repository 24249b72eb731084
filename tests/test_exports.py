"""Export hygiene: every name a module lists in `__all__` exists, and every
name the package re-exports is listed in its module's `__all__`, so that
deleting code cannot leave a stale export behind."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import stlinfer

MODULES = sorted(m.name for m in pkgutil.iter_modules(stlinfer.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"stlinfer.{name}")
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert missing == []


def test_package_reexports_only_listed_names():
    tree = ast.parse(Path(stlinfer.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    unlisted = []
    for node in imports:
        assert node.level == 1, f"stlinfer/__init__.py imports from outside the package: {node.module}"
        module = importlib.import_module(f"stlinfer.{node.module}")
        unlisted += [f"{node.module}.{a.name}" for a in node.names if a.name not in module.__all__]
    assert unlisted == []

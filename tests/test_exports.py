"""The public surface: every exported name resolves, and the package
re-exports only names its modules declare public."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import forcedwaves

MODULES = [m.name for m in pkgutil.iter_modules(forcedwaves.__path__)]
PUBLIC = [name for name in MODULES
          if hasattr(importlib.import_module(f"forcedwaves.{name}"), "__all__")]


def _package_imports():
    """(module, name) for every `from .module import name` in __init__.py."""
    tree = ast.parse(Path(forcedwaves.__file__).read_text(encoding="utf-8"))
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def test_modules_with_all_are_found():
    assert {"environment", "wavesolver", "analysis"} <= set(PUBLIC)


@pytest.mark.parametrize("module", PUBLIC)
def test_every_name_in_all_exists(module):
    mod = importlib.import_module(f"forcedwaves.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_package_imports_only_public_names():
    imports = _package_imports()
    assert imports
    private = [f"{module}.{name}" for module, name in imports
               if name not in importlib.import_module(
                   f"forcedwaves.{module}").__all__]
    assert not private
    assert all(hasattr(forcedwaves, name) for _, name in imports)

"""The export lists: ``from qfisher.<module> import *`` and ``import qfisher``
must not name anything that is gone."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import qfisher

MODULES = [info.name for info in pkgutil.iter_modules(qfisher.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(f"qfisher.{name}")
    missing = [entry for entry in getattr(module, "__all__", []) if not hasattr(module, entry)]
    assert not missing


def test_package_imports_only_exported_names():
    tree = ast.parse(Path(qfisher.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        exported = importlib.import_module(f"qfisher.{node.module}").__all__
        assert [alias.name for alias in node.names if alias.name not in exported] == []

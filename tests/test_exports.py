"""The export lists: ``from qfisher.<module> import *`` and ``import qfisher``
must not name anything that is gone, and neither may the README or the demos.
``import qfisher`` itself loads no submodule; each export loads its own."""

import ast
import importlib
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qfisher

MODULES = [info.name for info in pkgutil.iter_modules(qfisher.__path__)]
ROOT = Path(__file__).parent.parent


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(f"qfisher.{name}")
    missing = [entry for entry in getattr(module, "__all__", []) if not hasattr(module, entry)]
    assert not missing


def test_package_imports_only_exported_names():
    assert qfisher._EXPORTS
    for module, names in qfisher._EXPORTS.items():
        exported = importlib.import_module(f"qfisher.{module}").__all__
        assert [name for name in names if name not in exported] == []


def test_package_import_loads_no_numpy():
    # pytest has loaded NumPy already, so the import is checked in a fresh process
    code = (
        "import sys, qfisher\n"
        "assert 'numpy' not in sys.modules, 'import qfisher loaded NumPy'\n"
        "assert qfisher.ghz(2).num_qubits == 2 and 'numpy' in sys.modules\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


def test_dir_lists_the_exports_and_their_modules():
    assert {*qfisher._MODULE_OF, *qfisher._EXPORTS, "__version__"} <= set(dir(qfisher))
    assert qfisher.zoo.ghz is qfisher.ghz


@pytest.mark.parametrize("name", ["no_such_name", "_MASK32", "np"])
def test_unknown_attribute_raises(name):
    with pytest.raises(AttributeError, match=f"^module 'qfisher' has no attribute {name!r}$"):
        getattr(qfisher, name)


def _documented_sources():
    """The demos and the Python blocks of the README."""
    yield from (path.read_text() for path in sorted((ROOT / "demos").glob("*.py")))
    yield from re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)


def test_documented_names_resolve():
    """Every ``qf.<name>`` and ``from qfisher... import <name>`` in the docs
    names something that exists, including in the demos no test runs."""
    refs = set()
    for source in _documented_sources():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "qf":
                refs.add(("qfisher", node.attr))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "qfisher":
                refs.update((node.module, alias.name) for alias in node.names)
    assert len(refs) >= 30
    assert sorted(ref for ref in refs if not hasattr(importlib.import_module(ref[0]), ref[1])) == []

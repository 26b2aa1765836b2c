"""Every src/lrc5 module except __init__ imports only names it uses.

The one exception is a name the benchmark's tracing rebinds in a module
that no longer calls it: the (module, name) pairs of bench/tracing.py's
BOUNDARIES, read the way test_tracing_boundaries reads them (executed, not
imported). So a pending deletion stays listed there, and a new dead import
fails here.
"""

import ast
from pathlib import Path
from types import ModuleType

import pytest

from .test_tracing_boundaries import load_tracing

SRC = Path(__file__).resolve().parent.parent / "src" / "lrc5"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


def unused_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name.partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_the_check_sees_a_dead_import():
    assert unused_imports("import os\nfrom a import b, c as d\nd(b)\n") == {"os"}


@pytest.mark.parametrize("module", MODULES)
def test_a_module_imports_only_names_it_uses(module):
    rebound = {
        attr
        for owner, attr, _ in load_tracing()["BOUNDARIES"]
        if isinstance(owner, ModuleType) and owner.__name__ == f"lrc5.{module}"
    }
    source = (SRC / f"{module}.py").read_text(encoding="utf-8")
    assert unused_imports(source) - rebound == set()

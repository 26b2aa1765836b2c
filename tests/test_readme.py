"""Every name README.md cites in backticks resolves to the code it names.

A dotted name, `module.name` or `Class.attr`, with or without a call's
arguments, must be an attribute of that lrc5 module or of that class of
lrc5; file names such as `parity.csv` are not names. A call `name(...)`
must name a def in src/lrc5 or tests/oracles.py, unless it is a builtin
such as `float()`.
"""

import ast
import builtins
import importlib
import re
from pathlib import Path

import pytest

import lrc5

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "lrc5"
SPANS = re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text(encoding="utf-8"))
FILE_SUFFIXES = {"csv", "json", "py", "txt"}

DOTTED = sorted({
    (m[1], m[2])
    for span in SPANS
    if (m := re.fullmatch(r"([A-Za-z_]\w*)\.([A-Za-z_]\w*)(\(.*\))?", span))
    and m[2] not in FILE_SUFFIXES
})
CALLS = sorted({
    m[1]
    for span in SPANS
    if (m := re.match(r"([A-Za-z_]\w*)\(", span)) and not hasattr(builtins, m[1])
})
DEFINED = {
    node.name
    for path in [*SRC.glob("*.py"), ROOT / "tests" / "oracles.py"]
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
}


def test_the_readme_cites_names_and_calls():
    assert ("EvaluationDomain", "dense_dual") in DOTTED
    assert "syndromes" in CALLS and "float" not in CALLS


@pytest.mark.parametrize("owner,attr", DOTTED)
def test_a_cited_dotted_name_resolves(owner, attr):
    if (SRC / f"{owner}.py").is_file():
        obj = importlib.import_module(f"lrc5.{owner}")
    else:
        obj = getattr(lrc5, owner)
    assert hasattr(obj, attr), f"{owner}.{attr}"


@pytest.mark.parametrize("name", CALLS)
def test_a_cited_call_names_a_def(name):
    assert name in DEFINED

"""Guards on the package source.  The runtime stays numpy-only: every
module of the package imports only the standard library, numpy and its own
modules.  Files are read and written only by the input boundary in
`errors`, so the graph, scenario and model formats share one policy for
malformed input."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pentabell"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_stdlib_numpy_or_relative(path):
    foreign = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top != "numpy" and top not in sys.stdlib_module_names:
                foreign.append(f"line {node.lineno}: {name}")
    assert not foreign, foreign


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "errors.py"), ids=lambda p: p.name
)
def test_only_the_input_boundary_opens_files(path):
    calls = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            calls.append(f"line {node.lineno}: open")
        elif isinstance(func, ast.Attribute) and func.attr in ("load", "dump"):
            if isinstance(func.value, ast.Name) and func.value.id == "json":
                calls.append(f"line {node.lineno}: json.{func.attr}")
    assert not calls, calls

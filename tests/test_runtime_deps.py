"""Guards on the package source.  The runtime stays numpy-only: every
module of the package imports only the standard library, numpy and its own
modules.  Files are read and written only by the input boundary in
`errors`, so the graph, scenario and model formats share one policy for
malformed input.  Every import sits at module level and the package's
modules import one another without a cycle, so a module's dependencies are
all read from its header."""

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


def _package_imports(tree):
    """Names of the package modules a module imports relatively."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level:
            names.update([node.module] if node.module else [alias.name for alias in node.names])
    return names


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_sit_at_module_level(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    top = {id(node) for node in tree.body}
    nested = [
        f"line {node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
    ]
    assert not nested, nested


def test_package_imports_have_no_cycle():
    graph = {p.stem: _package_imports(ast.parse(p.read_text())) for p in PACKAGE.glob("*.py")}
    done, path = set(), []

    def visit(module):
        assert module not in path, " -> ".join(path[path.index(module) :] + [module])
        if module in done:
            return
        path.append(module)
        for imported in sorted(graph.get(module, ())):
            visit(imported)
        path.pop()
        done.add(module)

    for module in sorted(graph):
        visit(module)

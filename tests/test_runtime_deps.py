"""Guards on the package source.  The runtime stays numpy-only: every
module of the package imports only the standard library, numpy and its own
modules.  Files are read and written only by the input boundary in
`errors`, so the graph, scenario and model formats share one policy for
malformed input.  Every import sits at module level and the package's
modules import one another without a cycle, so a module's dependencies are
all read from its header.  Every public function is reached by the package,
its tools, its benchmark or the README, save a named few."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pentabell"


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


# public functions that nothing outside the tests calls, each kept on purpose
UNREACHED_KEEP = {
    "quantum.bell_operator": "a model's value replays as its Bell operator's top eigenvalue",
    "simkit.uniforms": "the reproducibility reference the sampler tests compare against",
    "simkit.derive_seed": "the reproducibility reference the sampler tests compare against",
}


def _public_functions():
    """(qualified name, name) of every public top-level function and every
    public method of a public class in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", node.name
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{item.name}", item.name


def _reached_names():
    """Identifiers used in the package, its tools and its benchmark, and
    those in backticks in the README."""
    names = set()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "tools").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update(node.name.split("."))
    for span in re.findall(r"```.*?```|`[^`]*`", (ROOT / "README.md").read_text(), re.S):
        names.update(re.findall(r"[A-Za-z_]\w*", span))
    return names


def test_every_public_function_is_reached_outside_the_tests():
    reached = _reached_names()
    unreached = {qualified for qualified, name in _public_functions() if name not in reached}
    assert unreached == set(UNREACHED_KEEP)

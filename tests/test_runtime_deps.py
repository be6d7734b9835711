"""Guards on the package source.  The runtime stays numpy-only: every
module of the package imports only the standard library, numpy and its own
modules.  Files are read and written only by the input boundary in
`errors`, so the graph, scenario and model formats share one policy for
malformed input, and numbers are read only by its readers: every public
input type rejects a malformed value with InvalidInputError.  Every import
sits at module level and the package's modules import one another without
a cycle, so a module's dependencies are all read from its header.  Every
public function is reached by the package, its tools, its benchmark or the
README, save a named few."""

import ast
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from pentabell.errors import InvalidInputError
from pentabell.graphs import Graph
from pentabell.quantum import QuantumModel
from pentabell.scenarios import DeterministicStrategy, Event, Inequality
from pentabell.simkit import CountTable, SimConfig

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


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "errors.py"), ids=lambda p: p.name
)
def test_only_the_input_boundary_reads_numbers(path):
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "type":
            found.append(f"line {node.lineno}: type(...)")
        elif isinstance(node, ast.Import) and any(alias.name == "numbers" for alias in node.names):
            found.append(f"line {node.lineno}: import numbers")
        elif isinstance(node, ast.ImportFrom) and node.module == "numbers" and not node.level:
            found.append(f"line {node.lineno}: from numbers import")
        elif isinstance(node, ast.Attribute) and node.attr == "kind":
            if isinstance(node.value, ast.Attribute) and node.value.attr == "dtype":
                found.append(f"line {node.lineno}: .dtype.kind")
    assert not found, found


STATE = [1, 0, 0, 0]
BLOCK = np.full((2, 2), 25)
# each public input type, by a function that puts one value into one field of
# an otherwise valid input, with the kind of value that field holds and a
# value the field accepts
FIELDS = {
    "Graph-n": ("integer", 2, lambda v: Graph(v, [(0, 1)])),
    "Graph-vertex": ("integer", 1, lambda v: Graph(3, [(0, v)])),
    "Graph-edge": ("pair", (0, 1), lambda v: Graph(3, [v])),
    "Graph-edges": ("collection", [(0, 1)], lambda v: Graph(3, v)),
    "Event-setting": ("integer", 1, lambda v: Event((v, 0), None)),
    "Event-part": ("pair", (1, 0), lambda v: Event((0, 0), v)),
    "Event-text": ("text", "00|00", lambda v: Event.parse(v)),
    "Inequality-settings": ("integer", 1, lambda v: Inequality((Event((0, 0), (0, 0)),), alice_settings=v)),
    "Inequality-term": ("pair", Event((0, 0), None), lambda v: Inequality((v,))),
    "Inequality-terms": ("collection", (Event((0, 0), None),), lambda v: Inequality(v)),
    "Inequality-name": ("text", "pentagon-1", lambda v: Inequality((Event((0, 0), None),), name=v)),
    "DeterministicStrategy-outcome": ("integer", 1, lambda v: DeterministicStrategy((v, 0), (1, 0))),
    "DeterministicStrategy-outcomes": ("collection", (1,), lambda v: DeterministicStrategy(v, (0,))),
    "QuantumModel-dim": ("integer", 2, lambda v: QuantumModel((v, 2), STATE, (), ())),
    "QuantumModel-dims": ("pair", (2, 2), lambda v: QuantumModel(v, STATE, (), ())),
    "QuantumModel-state": ("real", 1.0, lambda v: QuantumModel((2, 2), [v, 0, 0, 0], (), ())),
    "QuantumModel-projector": ("real", 0.0, lambda v: QuantumModel((2, 2), STATE, ([[1, 0], [0, v]],), ())),
    "QuantumModel-projectors": ("collection", (), lambda v: QuantumModel((2, 2), STATE, v, ())),
    "SimConfig-shots": ("integer", 10, lambda v: SimConfig(v)),
    "SimConfig-seed": ("integer", 3, lambda v: SimConfig(10, v)),
    "SimConfig-visibility": ("real", 0.5, lambda v: SimConfig(10, 0, v)),
    "CountTable-shots": ("integer", 100, lambda v: CountTable(v, {})),
    "CountTable-setting": ("integer", 1, lambda v: CountTable(100, {(0, v): BLOCK})),
    "CountTable-pair": ("pair", (1, 1), lambda v: CountTable(100, {v: BLOCK})),
    # valid at 1, so that a bool count of True would sum to shots
    "CountTable-count": ("integer", 1, lambda v: CountTable(76, {(0, 0): [[v, 25], [25, 25]]})),
}
MALFORMED = {
    "integer": {"bool": True, "float": 2.0, "str": "2"},
    "real": {"str": "1", "bool": True, "None": None, "huge-int": 10**400},
    "pair": {"triple": (0, 1, 2)},
    "collection": {"int": 5},
    "text": {"int": 5, "None": None},
}
MALFORMED_INPUTS = {
    f"{field}-{name}": (build, valid, value)
    for field, (kind, valid, build) in FIELDS.items()
    for name, value in MALFORMED[kind].items()
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_public_input_types_reject_malformed_values(case):
    build, valid, value = MALFORMED_INPUTS[case]
    build(valid)
    with pytest.raises(InvalidInputError):
        build(value)


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

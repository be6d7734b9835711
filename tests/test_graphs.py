import itertools

import numpy as np
import pytest

from pentabell.errors import CapacityError, InvalidInputError, save_json
from pentabell.graphs import circulant, complement, cycle, graph, graph_from_json, independence_number, load_graph


def random_graph(n, p, rng):
    return graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])


def test_cycle_definition():
    g = cycle(5)
    assert len(g.edges) == 5
    assert g.degrees() == [2] * 5


def test_cycle_triangle_and_minimum():
    assert cycle(3).edges == frozenset({(0, 1), (1, 2), (0, 2)})
    with pytest.raises(InvalidInputError):
        cycle(2)


def test_cycle_equals_circulant_offset_one():
    assert cycle(8) == circulant(8, {1})


def test_circulant_8_14_degrees():
    # offset 1 contributes two edges per vertex, offset 4 one (antipodal)
    g = circulant(8, {1, 4})
    assert len(g.edges) == 12
    assert g.degrees() == [3] * 8


def test_circulant_all_offsets_is_complete():
    assert circulant(5, {1, 2}) == complement(graph(5, []))


def test_circulant_rejects_bad_offsets():
    with pytest.raises(InvalidInputError):
        circulant(8, {0})
    with pytest.raises(InvalidInputError):
        circulant(8, {8})


def test_independence_numbers():
    assert independence_number(cycle(5))[0] == 2
    assert independence_number(circulant(8, {1, 4}))[0] == 3
    assert independence_number(complement(graph(5, [])))[0] == 1
    assert independence_number(graph(7, []))[0] == 7


def test_independence_witness_is_verified():
    rng = np.random.default_rng(0)
    for _ in range(30):
        g = random_graph(int(rng.integers(2, 14)), rng.uniform(0.1, 0.9), rng)
        alpha, witness = independence_number(g)
        assert len(witness) == alpha
        assert not any(g.has_edge(i, j) for i, j in itertools.combinations(witness, 2))
        assert alpha <= g.n


def test_independence_capacity():
    with pytest.raises(CapacityError):
        independence_number(graph(33, []))


def test_graph_json_roundtrip(tmp_path):
    path = tmp_path / "ci8.json"
    edges = [[0, 1], [0, 4], [0, 7], [1, 2], [1, 5], [2, 3], [2, 6], [3, 4], [3, 7], [4, 5], [5, 6], [6, 7]]
    save_json({"n": 8, "edges": edges}, path)
    assert load_graph(path) == circulant(8, {1, 4})


def test_graph_json_rejects_duplicates_and_loops():
    with pytest.raises(InvalidInputError):
        graph_from_json({"n": 3, "edges": [[0, 1], [1, 0]]})
    with pytest.raises(InvalidInputError):
        graph_from_json({"n": 3, "edges": [[2, 2]]})
    with pytest.raises(InvalidInputError):
        graph_from_json({"n": 3, "edges": [[0, 3]]})

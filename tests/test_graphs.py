import numpy as np
import pytest

from pentabell.errors import CapacityError, InvalidInputError
from pentabell.graphs import (
    circulant,
    complete_graph,
    cycle,
    empty_graph,
    graph,
    graph_from_json,
    graph_to_json,
    independence_number,
    is_independent_set,
)


def random_graph(n, p, rng):
    return graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])


def test_cycle_definition():
    g = cycle(5)
    assert len(g.edges) == 5
    assert all(g.degree(v) == 2 for v in range(5))


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
    assert all(g.degree(v) == 3 for v in range(8))


def test_circulant_all_offsets_is_complete():
    assert circulant(5, {1, 2}) == complete_graph(5)


def test_circulant_rejects_bad_offsets():
    with pytest.raises(InvalidInputError):
        circulant(8, {0})
    with pytest.raises(InvalidInputError):
        circulant(8, {8})


def test_independence_numbers():
    assert independence_number(cycle(5))[0] == 2
    assert independence_number(circulant(8, {1, 4}))[0] == 3
    assert independence_number(complete_graph(5))[0] == 1
    assert independence_number(empty_graph(7))[0] == 7


def test_independence_witness_is_verified():
    rng = np.random.default_rng(0)
    for _ in range(30):
        g = random_graph(int(rng.integers(2, 14)), rng.uniform(0.1, 0.9), rng)
        alpha, witness = independence_number(g)
        assert len(witness) == alpha
        assert is_independent_set(g, witness)
        assert alpha <= g.n


def test_independence_capacity():
    with pytest.raises(CapacityError):
        independence_number(empty_graph(33))


def test_graph_json_roundtrip():
    g = circulant(8, {1, 4})
    assert graph_from_json(graph_to_json(g)) == g


def test_graph_json_rejects_duplicates_and_loops():
    with pytest.raises(InvalidInputError):
        graph_from_json({"n": 3, "edges": [[0, 1], [1, 0]]})
    with pytest.raises(InvalidInputError):
        graph_from_json({"n": 3, "edges": [[2, 2]]})
    with pytest.raises(InvalidInputError):
        graph_from_json({"n": 3, "edges": [[0, 3]]})

import dataclasses
import itertools

import numpy as np
import pytest

from pentabell import graphs, scenarios
from pentabell.errors import CapacityError, InvalidInputError, save_json
from pentabell.graphs import (
    Graph,
    circulant,
    complement,
    cycle,
    graph,
    graph_from_json,
    independence_number,
    load_graph,
)


def random_graph(n, p, rng):
    return graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])


def test_cycle_definition():
    g = cycle(5)
    assert len(g.edges) == 5
    assert g.adjacency.sum(axis=1).tolist() == [2] * 5


def test_cycle_triangle_and_minimum():
    assert cycle(3).edges == frozenset({(0, 1), (1, 2), (0, 2)})
    with pytest.raises(InvalidInputError):
        cycle(2)


def test_cycle_equals_circulant_offset_one():
    for n in range(3, 33):
        g, c = cycle(n), circulant(n, {1})
        assert g == c == graph(n, [(i, (i + 1) % n) for i in range(n)])
        assert np.array_equal(g.adjacency, c.adjacency)
    for n in (1, 2):
        with pytest.raises(InvalidInputError, match="a cycle needs at least 3 vertices"):
            cycle(n)


def test_circulant_8_14_degrees():
    # offset 1 contributes two edges per vertex, offset 4 one (antipodal)
    g = circulant(8, {1, 4})
    assert len(g.edges) == 12
    assert g.adjacency.sum(axis=1).tolist() == [3] * 8


def test_circulant_all_offsets_is_complete():
    assert circulant(5, {1, 2}) == complement(graph(5, []))


def test_circulant_rejects_bad_offsets():
    with pytest.raises(InvalidInputError):
        circulant(8, {0})
    with pytest.raises(InvalidInputError):
        circulant(8, {8})
    with pytest.raises(InvalidInputError, match="offsets must be a collection of values, not 1"):
        circulant(8, 1)


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
        assert not any(g.adjacency[i, j] for i, j in itertools.combinations(witness, 2))
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


NAMED_GRAPHS = [scenarios.named_graph(name) for name in scenarios.SCENARIO_NAMES]


def random_graphs(seed, count, max_n):
    rng = np.random.default_rng(seed)
    return [random_graph(int(rng.integers(1, max_n + 1)), rng.uniform(0.05, 0.95), rng) for _ in range(count)]


def test_adjacency_is_read_only_symmetric_and_equals_the_edge_set():
    for g in random_graphs(27, 60, 16) + NAMED_GRAPHS:
        m = g.adjacency
        assert m.dtype == bool and m.shape == (g.n, g.n)
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = True
        assert (m == m.T).all() and not m.diagonal().any()
        assert {(i, j) for i, j in itertools.combinations(range(g.n), 2) if m[i, j]} == g.edges
        assert g.adjacency is m  # built once per graph


def test_adjacency_is_not_a_field():
    g, h = cycle(5), cycle(5)
    assert g.adjacency.any()
    assert g == h and hash(g) == hash(h) and repr(g) == repr(h)
    assert [f.name for f in dataclasses.fields(Graph)] == ["n", "edges"]
    assert Graph(3, frozenset({(0, 2)})).adjacency.tolist() == [[False, False, True], [False] * 3, [True, False, False]]


def reference_independence_number(g):
    """independence_number as it was written on the edge set: degrees
    counted edge by edge, a sort by (-degree, index), a dict relabel into
    bitmasks and the same branch and bound."""
    deg = [0] * g.n
    for i, j in g.edges:
        deg[i] += 1
        deg[j] += 1
    order = sorted(range(g.n), key=lambda v: (-deg[v], v))
    pos = {v: k for k, v in enumerate(order)}
    adj = [0] * g.n
    for i, j in g.edges:
        a, b = pos[i], pos[j]
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    best = [0, 0]

    def expand(cand, chosen, size):
        if not cand:
            if size > best[0]:
                best[:] = size, chosen
            return
        if size + bin(cand).count("1") <= best[0] or size + graphs._clique_cover_bound(cand, adj) <= best[0]:
            return
        v = (cand & -cand).bit_length() - 1
        expand(cand & ~(1 << v) & ~adj[v], chosen | 1 << v, size + 1)
        expand(cand & ~(1 << v), chosen, size)

    expand((1 << g.n) - 1, 0, 0)
    return best[0], tuple(sorted(order[k] for k in range(g.n) if best[1] >> k & 1))


def test_independence_number_matches_the_edge_set_reference():
    family = random_graphs(41, 240, graphs.ALPHA_MAX_VERTICES) + NAMED_GRAPHS
    assert max(g.n for g in family) == graphs.ALPHA_MAX_VERTICES
    for g in family:
        alpha, witness = independence_number(g)
        assert (alpha, witness) == reference_independence_number(g)
        assert all(type(v) is int for v in witness)


def test_complement_matches_itertools_reference():
    for g in random_graphs(43, 60, 16) + NAMED_GRAPHS:
        h = complement(g)
        assert h.n == g.n and h.edges == set(itertools.combinations(range(g.n), 2)) - g.edges
        assert complement(h) == g


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: graph(2.5, []), "n must be an integer"),
        (lambda: graph(3, [(0.7, 1.9)]), "edge must be an integer"),
        (lambda: graph(3, [(True, 2)]), "edge must be an integer"),
        (lambda: graph(3, [(0, 1, 2)]), "edge must be a pair"),
        (lambda: circulant(5, [1.5]), "offset must be an integer"),
        (lambda: cycle(5.0), "n must be an integer"),
        (lambda: graph(0, []), "graph needs at least one vertex"),
    ],
    ids=["n-float", "edge-floats", "edge-bool", "edge-triple", "circulant-offset-float", "cycle-n-float", "n-zero"],
)
def test_constructors_read_integers_strictly(build, message):
    with pytest.raises(InvalidInputError, match=message):
        build()


def test_constructors_accept_numpy_integers():
    i64 = np.int64
    g = graph(i64(3), [(i64(0), i64(2)), [1, 2]])
    assert g == graph(3, [(0, 2), (1, 2)])
    assert type(g.n) is int and all(type(v) is int for e in g.edges for v in e)
    assert circulant(i64(5), [i64(1)]) == cycle(i64(5)) == cycle(5)


@pytest.mark.parametrize(
    "edges, message",
    [
        (frozenset({(0, 1), (1, 0), (0, 2)}), r"duplicate edge \(0, 1\)"),
        (frozenset({(0, 7)}), r"edge \(0,7\) outside \[0,3\)"),
        (frozenset({(2, 2)}), "self-loop at vertex 2"),
    ],
    ids=["both-orders", "vertex-out-of-range", "self-loop"],
)
def test_the_graph_type_checks_its_own_edges(edges, message):
    assert graph is Graph
    with pytest.raises(InvalidInputError, match=message):
        Graph(3, edges)


def test_the_graph_type_stores_each_edge_once_in_order():
    g = Graph(3, [(1, 0), [2, 1]])
    assert g.edges == frozenset({(0, 1), (1, 2)}) and g == graph(3, {(0, 1), (2, 1)})
    assert all(type(e) is tuple for e in g.edges)


def test_graph_json_names_the_field():
    with pytest.raises(InvalidInputError, match="n must be an integer"):
        graph_from_json({"n": 2.5, "edges": []})
    with pytest.raises(InvalidInputError, match="edge must be an integer"):
        graph_from_json({"n": 3, "edges": [[0, True]]})
    with pytest.raises(InvalidInputError, match="edge must be a pair"):
        graph_from_json({"n": 3, "edges": [[0, 1, 2]]})
    for document in ({"n": 3}, {"edges": []}, [3, []]):
        with pytest.raises(InvalidInputError, match="graph JSON must be"):
            graph_from_json(document)

import math

import numpy as np
import pytest

from pentabell.errors import CapacityError, InvalidInputError
from pentabell.graphs import circulant, complete_graph, cycle, empty_graph, graph, independence_number
from pentabell.theta import lovasz_theta, odd_cycle_theta


def random_graph(n, p, rng):
    return graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])


def test_pentagon():
    assert lovasz_theta(cycle(5)).value == pytest.approx(math.sqrt(5), abs=1e-6)


def test_circulant_8_14():
    assert lovasz_theta(circulant(8, {1, 4})).value == pytest.approx(2 + math.sqrt(2), abs=1e-6)


def test_extreme_graphs():
    assert lovasz_theta(complete_graph(6)).value == pytest.approx(1.0, abs=1e-9)
    assert lovasz_theta(empty_graph(6)).value == pytest.approx(6.0, abs=1e-9)


@pytest.mark.parametrize("n", [5, 7, 9, 11])
def test_odd_cycles_against_closed_form(n):
    # independent oracle: theta(C_n) = n cos(pi/n) / (1 + cos(pi/n)) for odd n
    assert lovasz_theta(cycle(n)).value == pytest.approx(odd_cycle_theta(n), abs=1e-6)


def test_certificate_invariants_and_replay():
    rng = np.random.default_rng(17)
    cases = [cycle(5), circulant(8, {1, 4})]
    cases += [random_graph(int(rng.integers(3, 10)), rng.uniform(0.2, 0.8), rng) for _ in range(10)]
    for g in cases:
        res = lovasz_theta(g)
        x = res.primal
        assert np.linalg.eigvalsh(x)[0] >= -1e-8
        assert abs(np.trace(x) - 1.0) <= 1e-8
        for i, j in g.edges:
            assert abs(x[i, j]) <= 1e-7
        # replaying the objective from the certificate reproduces the value
        assert abs(float(x.sum()) - res.value) <= max(res.gap, 1e-7)


def test_alpha_lower_bounds_theta():
    rng = np.random.default_rng(23)
    for _ in range(40):
        g = random_graph(int(rng.integers(3, 11)), rng.uniform(0.1, 0.9), rng)
        alpha, _ = independence_number(g)
        assert alpha <= lovasz_theta(g).value + 1e-6


def test_theta_at_most_n_with_equality_iff_empty():
    rng = np.random.default_rng(29)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        g = random_graph(n, rng.uniform(0.1, 0.9), rng)
        value = lovasz_theta(g).value
        assert value <= n + 1e-9
        if g.edges:
            assert value < n - 1e-6
        else:
            assert value == pytest.approx(n, abs=1e-9)


def test_adding_edge_never_increases_theta():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.integers(3, 9))
        g = random_graph(n, rng.uniform(0.1, 0.7), rng)
        non_edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if not g.has_edge(i, j)
        ]
        if not non_edges:
            continue
        extra = non_edges[int(rng.integers(len(non_edges)))]
        larger = graph(n, list(g.edges) + [extra])
        assert lovasz_theta(larger).value <= lovasz_theta(g).value + 1e-6


def test_input_validation():
    with pytest.raises(CapacityError):
        lovasz_theta(empty_graph(33))
    with pytest.raises(InvalidInputError):
        lovasz_theta(cycle(5), tol=1e-2)
    with pytest.raises(InvalidInputError):
        lovasz_theta(cycle(5), tol=1e-12)


def test_theta_loop_projects_without_revalidating(monkeypatch):
    # the ADMM iterates are built inside the solver from a validated graph,
    # so its loop uses the unchecked projection and never re-validates
    import pentabell.numerics as numerics

    calls = []
    monkeypatch.setattr(numerics, "as_sym_matrix", lambda a: calls.append(a))
    result = lovasz_theta(cycle(7))
    assert not calls
    assert result.value == pytest.approx(odd_cycle_theta(7), abs=1e-6)

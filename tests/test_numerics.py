import itertools
import math
import re
import warnings

import numpy as np
import pytest

from pentabell.errors import CapacityError, ConvergenceError, InvalidInputError
from pentabell.numerics import STALL_FACTOR, STALL_WINDOW, as_sym_matrix, certified_solve, sdp_path


def random_symmetric(n, rng):
    m = rng.standard_normal((n, n))
    return (m + m.T) / 2.0


def unit_trace_sdp(c, tol=1e-9, max_iterations=50):
    """minimize <C, X> s.t. trace X = 1, X PSD, whose optimum is lambda_min(C)
    and whose dual is maximize y s.t. C - y I PSD; iterated until the
    objectives agree within tol."""
    n = len(c)
    path = sdp_path(c, [1.0], [0] * n, [(i, i) for i in range(n)], [1.0] * n)
    for k, (x, y, z) in enumerate(path, 1):
        if abs(float(np.sum(c * x)) - y[0]) <= tol:
            return x, y, z, k
        assert k < max_iterations
    pytest.fail("the interior-point iteration broke down")


def assert_min_eigenvalue(c, expected):
    x, y, z, _ = unit_trace_sdp(c)
    # primal side: X is a feasible density matrix attaining lambda_min
    assert abs(np.trace(x) - 1.0) <= 1e-9
    assert np.linalg.eigvalsh(x)[0] >= -1e-12
    assert float(np.sum(c * x)) == pytest.approx(expected, abs=1e-8)
    # dual side: y is a lower bound that C - y I certifies as PSD
    assert y[0] == pytest.approx(expected, abs=1e-8)
    assert np.linalg.eigvalsh(c - y[0] * np.eye(len(c)))[0] >= -1e-8
    assert np.max(np.abs(z - (c - y[0] * np.eye(len(c))))) <= 1e-8


@pytest.mark.parametrize("n", [2, 5, 8, 16, 33])
def test_sdp_min_eigenvalue(n):
    rng = np.random.default_rng(n)
    c = random_symmetric(n, rng)
    assert_min_eigenvalue(c, np.linalg.eigvalsh(c)[0])


def test_sdp_top_eigenvalue_of_pentagon2_bell_operator():
    # Bell operator of the exact optimal model for the marginal pentagonal
    # inequality, assembled here by hand so the check is independent of the
    # quantum module: four joint terms plus an identity (x) Bob-effect term;
    # its largest eigenvalue is -min <-S, X> over density matrices X.
    c8, s8 = math.cos(math.pi / 8), math.sin(math.pi / 8)

    def proj(v):
        v = np.array(v, dtype=float)
        v /= np.linalg.norm(v)
        return np.outer(v, v)

    a0, a1 = proj((0, 1)), proj((-1, 1))
    b0, b1 = proj((-s8, c8)), proj((s8, c8))
    eye = np.eye(2)
    s = (
        np.kron(a0, b0)                      # 00|00
        + np.kron(eye - a0, eye - b1)        # 11|01
        + np.kron(eye - a1, b1)              # 10|11
        + np.kron(a1, b0)                    # 00|10
        + np.kron(eye, eye - b0)             # _1|_0
    )
    assert_min_eigenvalue(-s, -(3 + math.sqrt(2)) / 2)


def test_sdp_equality_constraints_over_several_terms():
    # minimize <C, X> s.t. X_00 - X_11 = 0.5, X_01 = 0.25, X_22 = 1: a
    # constraint spanning two terms, an off-diagonal one and a diagonal one
    c = np.diag([1.0, 2.0, 3.0])
    rows, pairs, coef, b = [0, 0, 1, 2], [(0, 0), (1, 1), (0, 1), (2, 2)], [1.0, -1.0, 1.0, 1.0], [0.5, 0.25, 1.0]
    for k, (x, y, z) in enumerate(sdp_path(c, b, rows, pairs, coef), 1):
        if abs(float(np.sum(c * x)) - float(np.dot(b, y))) <= 1e-9:
            break
        assert k < 50
    # on X_00 = X_11 + 0.5 with X_00 X_11 >= 1/16, the objective
    # 3 X_11 + 3.5 is least at X_11 = (sqrt(2) - 1) / 4
    x11 = (math.sqrt(2) - 1) / 4
    assert float(np.sum(c * x)) == pytest.approx(3 * x11 + 3.5, abs=1e-7)
    assert [x[0, 0] - x[1, 1], x[0, 1], x[2, 2]] == pytest.approx(b, abs=1e-9)


def adjoint(n, y, rows, pairs, coef):
    # A^T(y) = sum_t y[rows[t]] coef[t] U_ij, U_ij = (e_i e_j^T + e_j e_i^T) / 2
    out = np.zeros((n, n))
    for k, (i, j), a in zip(rows, pairs, coef):
        out[i, j] += y[k] * a / 2.0
        out[j, i] += y[k] * a / 2.0
    return out


@pytest.mark.parametrize("n", [2, 5, 8, 16, 33])
def test_sdp_start_is_primal_feasible_when_b_is_proportional_to_a_of_identity(n):
    # for trace X = 1 the start is X = I / n, and every step keeps A(X) = b
    c = random_symmetric(n, np.random.default_rng(n))
    path = sdp_path(c, [1.0], [0] * n, [(i, i) for i in range(n)], [1.0] * n)
    for k, (x, y, _) in enumerate(path, 1):
        assert abs(np.trace(x) - 1.0) <= 1e-12, k
        if abs(float(np.sum(c * x)) - y[0]) <= 1e-9:
            break
    assert y[0] == pytest.approx(np.linalg.eigvalsh(c)[0], abs=1e-8)


@pytest.mark.parametrize("n", [2, 5, 8, 16])
def test_sdp_start_is_dual_feasible_when_c_is_positive_definite(n):
    # the several-term constraints of the test above on the leading 3 x 3
    # block plus trace 2 on the trailing n x n block: with C positive
    # definite the start is (y, Z) = (0, C), and every step keeps
    # C - A^T(y) - Z = 0
    m = np.random.default_rng(n).standard_normal((n + 3, n + 3))
    c = m @ m.T + np.eye(n + 3)
    rows, pairs, coef, b = [0, 0, 1, 2], [(0, 0), (1, 1), (0, 1), (2, 2)], [1.0, -1.0, 1.0, 1.0], [0.5, 0.25, 1.0]
    rows, pairs, coef, b = rows + [3] * n, pairs + [(i, i) for i in range(3, n + 3)], coef + [1.0] * n, b + [2.0]
    for k, (x, y, z) in enumerate(sdp_path(c, b, rows, pairs, coef), 1):
        residual = c - adjoint(n + 3, y, rows, pairs, coef) - z
        assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(c), k
        if abs(float(np.sum(c * x)) - float(np.dot(b, y))) <= 1e-9:
            break
        assert k < 50


def test_sdp_start_feasible_on_neither_side_still_reaches_min_eigenvalue():
    # minimize <C, X> over order n + 1 with C indefinite on the leading block
    # and 0 at (n, n), s.t. the leading block has trace 1 and X_nn = 2: b is
    # not proportional to A(I) = (n, 1), and the optimum is lambda_min(C)
    n = 8
    c = np.zeros((n + 1, n + 1))
    c[:n, :n] = random_symmetric(n, np.random.default_rng(7))
    rows, pairs, coef, b = [0] * n + [1], [(i, i) for i in range(n + 1)], [1.0] * (n + 1), [1.0, 2.0]
    for k, (x, y, _) in enumerate(sdp_path(c, b, rows, pairs, coef), 1):
        if abs(float(np.sum(c * x)) - float(np.dot(b, y))) <= 1e-9:
            break
        assert k < 50
    expected = np.linalg.eigvalsh(c[:n, :n])[0]
    assert float(np.sum(c * x)) == pytest.approx(expected, abs=1e-8)
    assert [np.trace(x[:n, :n]), x[n, n]] == pytest.approx(b, abs=1e-9)
    assert np.linalg.eigvalsh(c - adjoint(n + 1, y, rows, pairs, coef))[0] >= -1e-8


def pentagon_edge_form():
    # Lovasz theta of C5 as minimize <-J, X> s.t. trace X = 1 and X_ij = 0 on
    # its five edges: b is a multiple of A(I), so X starts feasible
    rows = [0] * 5 + list(range(1, 6))
    pairs = [(i, i) for i in range(5)] + [(i, (i + 1) % 5) for i in range(5)]
    return -np.ones((5, 5)), [1.0] + [0.0] * 5, rows, pairs, [1.0] * 10


def drained_problems():
    """(label, problem) for the problems of the tests above, each of which
    sdp_path drains within about 15 steps."""
    for n in (5, 16, 33):
        c = random_symmetric(n, np.random.default_rng(n))
        yield f"unit-trace-{n}", (c, [1.0], [0] * n, [(i, i) for i in range(n)], [1.0] * n)
    c = np.diag([1.0, 2.0, 3.0])
    yield "several-terms", (c, [0.5, 0.25, 1.0], [0, 0, 1, 2], [(0, 0), (1, 1), (0, 1), (2, 2)], [1.0, -1.0, 1.0, 1.0])
    c = np.zeros((9, 9))
    c[:8, :8] = random_symmetric(8, np.random.default_rng(7))
    yield "neither-feasible", (c, [1.0, 2.0], [0] * 8 + [1], [(i, i) for i in range(9)], [1.0] * 9)
    yield "pentagon-edge-form", pentagon_edge_form()


DRAINED_PROBLEMS = dict(drained_problems())


@pytest.mark.parametrize("label", sorted(DRAINED_PROBLEMS))
def test_every_yielded_point_is_psd_on_both_sides(label):
    # each point is where the step meets the cone's boundary, so X or Z can
    # be singular, but neither is further outside the cone than rounding
    k = 0
    for k, (x, _, z) in enumerate(sdp_path(*DRAINED_PROBLEMS[label]), 1):
        for m in (x, z):
            assert np.linalg.eigvalsh(m)[0] >= -1e-12 * max(1.0, np.abs(m).max()), (label, k)
    assert k >= 5, label


def test_primal_feasible_start_keeps_a_of_x_equal_to_b_at_every_point():
    # the yielded points, not only the damped iterates, keep trace X = 1 and
    # every edge entry zero, down to the end of the drained path
    c, b, rows, pairs, coef = pentagon_edge_form()
    points = list(sdp_path(c, b, rows, pairs, coef))
    for k, (x, _, _) in enumerate(points, 1):
        assert abs(np.trace(x) - 1.0) <= 1e-12, k
        assert all(abs(x[i, j]) <= 1e-12 for i, j in pairs[5:]), k
    assert -float(np.sum(c * points[-1][0])) == pytest.approx(math.sqrt(5), abs=1e-9)


def test_sdp_rejects_nonfinite_asymmetric_and_malformed_input():
    eye = np.eye(2)
    good = ([1.0], [0, 0], [(0, 0), (1, 1)], [1.0, 1.0])
    with pytest.raises(InvalidInputError):
        sdp_path(np.array([[1.0, np.nan], [np.nan, 1.0]]), *good)
    with pytest.raises(InvalidInputError):
        sdp_path(np.array([[1.0, 2.0], [0.0, 1.0]]), *good)
    with pytest.raises(InvalidInputError, match="2-d"):
        sdp_path(np.stack([eye, eye]), *good)
    with pytest.raises(InvalidInputError):
        sdp_path(eye, [1.0], [0, 0], [(0, 0), (1, 2)], [1.0, 1.0])
    with pytest.raises(InvalidInputError):
        sdp_path(eye, [1.0, 0.0], [1, 0], [(0, 0), (1, 1)], [1.0, 1.0])
    with pytest.raises(InvalidInputError, match="b and coef must be finite vectors"):
        sdp_path(eye, [np.inf], [0, 0], [(0, 0), (1, 1)], [1.0, 1.0])
    with pytest.raises(InvalidInputError, match="b and coef must be finite vectors"):
        sdp_path(eye, [1.0], [0, 0], [(0, 0), (1, 1)], [1.0, np.nan])
    with pytest.raises(InvalidInputError, match="rows, pairs and coef must describe the same terms"):
        sdp_path(eye, [1.0], [0, 0], [(0, 0), (1, 1)], [1.0])


def test_as_sym_matrix_validates_one_matrix():
    rng = np.random.default_rng(5)
    m = random_symmetric(3, rng) + 1e-12 * rng.standard_normal((3, 3))  # round-off asymmetry is symmetrized
    sym = as_sym_matrix(m)
    assert np.array_equal(sym, sym.T) and np.array_equal(sym, (m + m.T) / 2.0)
    bad = m.copy()
    bad[0, 1] = np.inf
    with pytest.raises(InvalidInputError, match="non-finite"):
        as_sym_matrix(bad)
    # the symmetry tolerance is relative to the largest entry: a 1e-6
    # asymmetry is rejected at unit scale and accepted at 1e3
    unit = m / np.abs(m).max()
    unit[0, 1] += 1e-6
    with pytest.raises(InvalidInputError, match="not symmetric"):
        as_sym_matrix(unit)
    large = m * (1e3 / np.abs(m).max())
    large[0, 1] += 1e-6
    as_sym_matrix(large)
    with pytest.raises(InvalidInputError, match="square"):
        as_sym_matrix(np.zeros((2, 3)))
    for shape in ((3,), (0, 0), (2, 3, 3)):
        with pytest.raises(InvalidInputError, match=re.escape(f"expected a 2-d matrix, got shape {shape}")):
            as_sym_matrix(np.zeros(shape))


def test_sdp_capacity_envelope():
    with pytest.raises(CapacityError):
        sdp_path(np.eye(65), [1.0], [0], [(0, 0)], [1.0])


def test_drained_path_ends_without_floating_point_warnings():
    # solved exactly after about 20 steps; the iterates then run out of
    # precision, and the generator must end by itself rather than overflow
    c = np.diag(np.linspace(5.0, 50.0, 5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        *_, (x, y, z) = sdp_path(c, [1.0], [0] * 5, [(i, i) for i in range(5)], [1.0] * 5)
    assert abs(y[0] - 5.0) <= 1e-9


def gap_path(gaps):
    """A synthetic path whose k-th point certifies 1 - gap/2 <= value <=
    1 + gap/2 for the k-th gap: bounds for certified_solve, with each point's
    lower bound a candidate capped by its own value."""

    def bounds(point):
        k, gap = point
        return (1.0 + gap / 2, ("upper", k)), [(lambda _: 1.0 - gap / 2, lambda: (1.0 - gap / 2, ("lower", k)))]

    return enumerate(gaps, 1), bounds


def solve_path(gaps, tol=1e-10, max_iterations=1000):
    points, bounds = gap_path(gaps)
    try:
        return "closed", certified_solve(points, bounds, tol, max_iterations, lambda *sides: sides)
    except ConvergenceError as exc:
        assert exc.reason in str(exc)
        return exc.reason, exc.result


def test_a_stalled_path_stops_within_the_window():
    # the gap halves for 12 points and then never moves, on a path that
    # runs on: the first stall check that covers a window without halving
    # stops it, long before the cap of 1000 iterations
    gaps = itertools.chain((2.0**-k for k in range(1, 13)), itertools.repeat(2.0**-12))
    reason, (lower, upper, iterations) = solve_path(gaps)
    assert reason == "stalled"
    assert iterations % STALL_WINDOW == 0 and 12 < iterations <= 12 + 2 * STALL_WINDOW
    # the best bounds are the first to reach the final gap
    assert lower == (1.0 - 2.0**-13, ("lower", 12)) and upper == (1.0 + 2.0**-13, ("upper", 12))


def test_a_gap_that_shrinks_by_the_factor_each_window_does_not_stall():
    gaps = (STALL_FACTOR ** -(k // STALL_WINDOW) for k in itertools.count(1))
    reason, (_, _, iterations) = solve_path(gaps, max_iterations=6 * STALL_WINDOW)
    assert (reason, iterations) == ("cap", 6 * STALL_WINDOW)


def test_stop_reasons_closed_cap_and_failed_step():
    gaps = [2.0**-k for k in range(1, 25)]
    cases = ((gaps, 100, ("closed", 20)), (gaps, 4, ("cap", 4)), (gaps[:7], 100, ("failed step", 7)))
    for path, max_iterations, stop in cases:
        reason, (_, _, iterations) = solve_path(path, 2.0**-20, max_iterations)
        assert (reason, iterations) == stop
    # a path that ends before its first point keeps the bounds it started with
    with pytest.raises(ConvergenceError, match=r"\(failed step\) after 0 iterations") as info:
        certified_solve(iter(()), None, 1e-7, 100, lambda *sides: sides, upper=(3.0, "start"))
    assert info.value.result == ((-math.inf, None), (3.0, "start"), 0)


@pytest.mark.parametrize("seed", range(12))
def test_deferred_candidates_decide_as_if_computed_at_once(seed):
    # random bounds that close, stall, or run to the cap: caps decide which
    # candidates are computed, never the stop, the reason or the result
    rng = np.random.default_rng(seed)
    steps = ([0.0, 0.0, 0.3, 1.0], [0.05, 0.1], [0.0, 0.0, 0.0, 0.0, 0.0, 2.0])[seed % 3]
    scale = 10.0 ** -np.cumsum(rng.choice(steps, size=80))
    uppers = 1.0 + scale * rng.uniform(0.0, 1.0, 80)
    lowers = 1.0 - scale * rng.uniform(0.0, 1.0, 80)
    caps = lowers + scale * rng.uniform(0.0, 0.5, 80)
    computed = []

    def solve(lazy):
        def candidate(k):
            cap = caps[k] if lazy else math.inf
            return lambda _: cap, lambda: computed.append(lazy) or (lowers[k], k)

        def bounds(k):
            return (uppers[k], k), [candidate(k)]

        known = [(lambda u: min(u, 1.0) if lazy else math.inf, lambda: computed.append(lazy) or (0.5, "known"))]
        try:
            return certified_solve(iter(range(80)), bounds, 1e-9, 60, lambda *sides: sides, known)
        except ConvergenceError as exc:
            return exc.reason, exc.result

    assert solve(True) == solve(False)
    assert computed.count(True) < computed.count(False)


def test_the_highest_cap_is_settled_first():
    # two candidates of one point, the lower cap first: the higher one's
    # bound exceeds the lower cap, so the lower one is never computed
    computed = []

    def candidate(cap, bound):
        return lambda _: cap, lambda: computed.append(cap) or (bound, cap)

    def bounds(point):
        return (10.0, "upper"), [candidate(5.0, 4.9), candidate(6.0, 5.9)]

    lower, upper, iterations = certified_solve(iter([0]), bounds, 100.0, 10, lambda *sides: sides)
    assert computed == [6.0]
    assert (lower, upper, iterations) == ((5.9, 6.0), (10.0, "upper"), 1)

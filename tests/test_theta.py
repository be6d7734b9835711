import itertools
import math

import numpy as np
import pytest

from pentabell import theta
from pentabell.errors import CapacityError, ConvergenceError, InvalidInputError
from pentabell.graphs import circulant, complement, cycle, graph, independence_number
from pentabell.numerics import certified_solve, sdp_path
from pentabell.scenarios import SCENARIO_NAMES, named_graph
from pentabell.theta import odd_cycle_theta
from test_cli import load_theta_iterations


def random_graph(n, p, rng):
    return graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])


def benchmark_random_graph(rng, n):
    """G(n, 1/2) drawn as the theta-graphs benchmark workload draws it."""
    rows, cols = np.triu_indices(n, 1)
    keep = rng.random(rows.size) < 0.5
    return graph(n, zip(rows[keep].tolist(), cols[keep].tolist()))


def seeded_random_graphs(seed):
    rng = np.random.default_rng(seed)
    return {n: benchmark_random_graph(rng, n) for n in (12, 16, 20, 24)}


def lovasz_theta(g, tol=1e-7):
    # every solve in this module replays both certificates as the CLI does
    res = theta.lovasz_theta(g, tol=tol)
    assert theta.replay(g, res, tol)[2]
    return res


def assert_certified(g, res, tol=1e-7):
    x, b = res.primal, res.dual
    assert np.array_equal(x, x.T) and np.array_equal(b, b.T)
    assert abs(np.trace(x) - 1.0) <= 1e-8
    assert all(abs(x[i, j]) <= 1e-7 for i, j in g.edges)
    assert np.linalg.eigvalsh(x)[0] >= -1e-8
    assert abs(float(x.sum()) - res.value) <= max(res.gap, 1e-12)
    upper = float(np.linalg.eigvalsh(b)[-1])
    assert res.value - 1e-9 <= upper <= res.value + res.gap + 1e-9
    assert res.gap <= tol


def test_pentagon():
    assert lovasz_theta(cycle(5)).value == pytest.approx(math.sqrt(5), abs=1e-6)


# graphs of tools/theta_iterations.py whose returned lower bound, at tol 1e-7
# and 1e-10, is their independent set's, an entry sum one ulp from alpha
INDEPENDENT_SET_CERTIFIED = (
    "506 G(24)", "509 G(24)", "606 G(24)", "709 G(17,0.5)", "710 G(14,0.3)", "710 G(11,0.5)", "712 G(11,0.3)",
)


def test_replay_returns_the_certificates_own_bounds():
    # theta states what replay recomputes, bit for bit: the value is the
    # entry sum of X and the gap is lambda_max(B) less the value, or 0
    tool = load_theta_iterations()
    held = dict(tool.random84() + tool.held_out())
    # every edgeless and complete graph: lambda_max(J) as eigvalsh computes
    # it misses n by a few ulps at some orders, e.g. 14
    orders = range(1, theta.MAX_VERTICES + 1)
    trivial = [graph(n, []) for n in orders] + [complement(graph(n, [])) for n in orders[1:]]
    named = [named_graph(name) for name in SCENARIO_NAMES]
    cases = [(g, 1e-7) for g in fixed_family_graphs() + [circulant(8, {1, 4})] + named + trivial]
    cases += [(held[label], tol) for label in INDEPENDENT_SET_CERTIFIED for tol in (1e-7, 1e-10)]
    for g, tol in cases:
        res = theta.lovasz_theta(g, tol)
        lower, upper, ok = theta.replay(g, res, tol)
        assert lower == res.primal.sum() == res.value
        assert upper == np.linalg.eigvalsh(res.dual)[-1]
        assert res.gap == max(upper - res.value, 0.0)
        assert ok is True


def test_replay_rejects_a_certificate_of_the_wrong_shape():
    res = theta.lovasz_theta(cycle(5))
    wrong = theta.ThetaResult(res.value, res.primal[:4, :4], res.dual, 1, res.gap)
    lower, upper, ok = theta.replay(cycle(5), wrong, 1e-7)
    assert math.isnan(lower) and math.isnan(upper) and ok is False


def test_circulant_8_14():
    assert lovasz_theta(circulant(8, {1, 4})).value == pytest.approx(2 + math.sqrt(2), abs=1e-6)


def test_extreme_graphs():
    for g, value in ((complement(graph(6, [])), 1.0), (graph(6, []), 6.0)):
        res = lovasz_theta(g)
        assert res.value == pytest.approx(value, abs=1e-9)
        assert_certified(g, res, tol=0.0)


@pytest.mark.parametrize("n", range(5, 32, 2))
def test_odd_cycles_against_closed_form(n):
    # independent oracle: theta(C_n) = n cos(pi/n) / (1 + cos(pi/n)) for odd n
    res = lovasz_theta(cycle(n))
    assert abs(res.value - odd_cycle_theta(n)) <= 1e-7
    assert abs(float(res.primal.sum()) - odd_cycle_theta(n)) <= 1e-7
    assert_certified(cycle(n), res)


def test_certificate_invariants_and_replay():
    rng = np.random.default_rng(17)
    cases = [cycle(5), circulant(8, {1, 4})]
    cases += [random_graph(int(rng.integers(3, 10)), rng.uniform(0.2, 0.8), rng) for _ in range(10)]
    for g in cases:
        # both certificates replay independently of the solver: the primal's
        # entry sum is the value and the dual's top eigenvalue bounds it
        assert_certified(g, lovasz_theta(g))


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
            (i, j) for i in range(n) for j in range(i + 1, n) if not g.adjacency[i, j]
        ]
        if not non_edges:
            continue
        extra = non_edges[int(rng.integers(len(non_edges)))]
        larger = graph(n, list(g.edges) + [extra])
        assert lovasz_theta(larger).value <= lovasz_theta(g).value + 1e-6


def test_input_validation():
    with pytest.raises(CapacityError):
        lovasz_theta(graph(33, []))
    with pytest.raises(InvalidInputError):
        lovasz_theta(cycle(5), tol=1e-2)
    with pytest.raises(InvalidInputError):
        lovasz_theta(cycle(5), tol=1e-12)
    for n in (1, 4):
        with pytest.raises(InvalidInputError, match="closed form applies to odd cycles only"):
            odd_cycle_theta(n)


@pytest.mark.parametrize("tol", ["1e-7", True, None, 10**400], ids=["str", "bool", "None", "huge-int"])
def test_tol_is_read_as_a_real_number(tol):
    with pytest.raises(InvalidInputError, match="tol must be a real number"):
        theta.lovasz_theta(cycle(5), tol)


def test_tol_accepts_a_numpy_float():
    assert theta.lovasz_theta(cycle(5), np.float64(1e-7)).value == theta.lovasz_theta(cycle(5), 1e-7).value


# odd cycles C7..C31 and five circulants with their complements, the fixed
# family of the theta-graphs benchmark workload
FIXED_CIRCULANTS = ((13, (1, 5)), (17, (1, 2, 4, 8)), (21, (1, 3, 8)), (29, (1, 12)), (31, (1, 5, 11)))


@pytest.fixture(scope="module")
def fixed_family():
    solved = {f"C{n}": (cycle(n), lovasz_theta(cycle(n))) for n in range(7, 32, 2)}
    for n, offsets in FIXED_CIRCULANTS:
        g = circulant(n, offsets)
        solved[f"C{n}{offsets}"] = (g, lovasz_theta(g))
        solved[f"co-C{n}{offsets}"] = (complement(g), lovasz_theta(complement(g)))
    return solved


def test_fixed_family_converges_in_few_iterations(fixed_family):
    iterations = {label: res.iterations for label, (_, res) in fixed_family.items()}
    assert max(iterations.values()) <= 30, iterations
    # sdp_path takes 111 in all (tools/theta_iterations.py)
    assert sum(iterations.values()) <= 116, iterations
    for g, res in fixed_family.values():
        assert_certified(g, res)


# circulants outside the fixed family, each solved with its complement
HELD_OUT_CIRCULANTS = ((13, (1, 4)), (14, (2, 5)), (17, (1, 4, 8)), (19, (2, 4)), (23, (5, 10)))


def test_held_out_graphs_converge_in_few_iterations():
    # sdp_path's step rule was chosen on graphs outside the benchmark's
    # fixed family; these circulants, their complements and two G(20, p)
    # with p != 1/2 are of that kind
    def solve(g):
        res = lovasz_theta(g)
        assert res.iterations <= 30
        assert_certified(g, res)
        return res.value

    for n, offsets in HELD_OUT_CIRCULANTS:
        g = circulant(n, offsets)
        # theta(G) * theta(complement of G) = n for vertex-transitive G
        assert abs(solve(g) * solve(complement(g)) - n) <= 1e-5
    for seed, p in ((3, 0.3), (4, 0.7)):
        solve(random_graph(20, p, np.random.default_rng(seed)))


def test_hard_random_graph_converges_in_few_iterations():
    # seed 503's G(24, 1/2) keeps first-order splitting methods in a slow
    # linear phase for over 10^5 iterations
    g = seeded_random_graphs(503)[24]
    res = lovasz_theta(g)
    assert res.iterations <= 30
    assert_certified(g, res)


def test_tightest_tolerance_certifies_or_raises_convergence_error(fixed_family):
    # near the optimum a factorisation can fail; that ends the iteration
    # with a certified result or a ConvergenceError, never a LinAlgError.
    # The fixed family closes gap 1e-10 in 117 iterations in all
    # (tools/theta_iterations.py), and every certificate replays.
    total = 0
    for g, _ in fixed_family.values():
        res = theta.lovasz_theta(g, tol=1e-10)
        assert_certified(g, res, tol=1e-10)
        assert theta.replay(g, res, 1e-10)[2]
        total += res.iterations
    assert total <= 122
    for g in (seeded_random_graphs(1)[24], seeded_random_graphs(506)[20], seeded_random_graphs(510)[20]):
        try:
            res = theta.lovasz_theta(g, tol=1e-10)
        except ConvergenceError as exc:
            res = exc.result
            assert res.gap > 1e-10
        assert_certified(g, res, tol=max(res.gap, 1e-10))
        assert theta.replay(g, res, 1e-10)[2]


def test_tightest_tolerance_certifies_these_random_graphs():
    # from a start at X = Z = I a factorisation fails short of gap 1e-10 on
    # these G(n, 1/2) graphs; from sdp_path's problem-scaled start both
    # certificates close
    for seed, n in ((510, 20), (601, 12), (605, 24)):
        g = seeded_random_graphs(seed)[n]
        res = lovasz_theta(g, tol=1e-10)
        assert_certified(g, res, tol=1e-10)


def test_fixed_family_circulant_products_equal_n(fixed_family):
    # theta(G) * theta(complement of G) = n for vertex-transitive G
    for n, offsets in FIXED_CIRCULANTS:
        value = fixed_family[f"C{n}{offsets}"][1].value
        co_value = fixed_family[f"co-C{n}{offsets}"][1].value
        assert abs(value * co_value - n) <= 1e-5


# a G(12, 1/2) graph with theta = alpha = 4
THETA_EQUALS_ALPHA_EDGES = [
    (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (0, 9), (0, 10), (0, 11), (1, 5), (1, 7), (1, 9),
    (1, 10), (1, 11), (2, 3), (2, 4), (2, 6), (2, 9), (2, 10), (3, 5), (3, 6), (3, 10), (4, 6), (4, 10),
    (4, 11), (5, 6), (5, 9), (5, 11), (6, 11), (7, 8), (8, 9), (8, 11), (9, 10), (10, 11),
]


def test_theta_equal_to_alpha_is_closed_by_the_independent_set():
    # rounding the interior-point iterate into the PSD cone approaches 4
    # only from below, while the independent set {3, 7, 9, 11} certifies
    # the lower bound 4 exactly
    g = graph(12, THETA_EQUALS_ALPHA_EDGES)
    res = lovasz_theta(g)
    assert independence_number(g)[0] == 4
    assert res.value == 4.0
    assert_certified(g, res)


def test_convergence_error_carries_certified_bounds(monkeypatch):
    monkeypatch.setattr(theta, "MAX_ITERATIONS", 5)
    g = circulant(31, {1, 5, 11})
    with pytest.raises(ConvergenceError, match=r"stopped \(cap\) after 5 iterations, short of gap 1e-07") as info:
        theta.lovasz_theta(g)
    assert info.value.reason == "cap"
    best = info.value.result
    assert best.iterations == 5 and best.gap > 1e-7
    assert_certified(g, best, tol=best.gap)


def eager_theta(g, tol, path):
    """lovasz_theta with both costly lower bounds computed at once, through
    the same stop rule: alpha before the first point, then every point of
    the path shifted into the PSD cone.  Each bound is its certificate's
    own: the entry sum of X, lambda_max of B."""
    n = g.n
    on_edge = g.adjacency
    edge_form = problem_of(g)[-1]

    alpha, witness = independence_number(g)
    independent_set = np.zeros((n, n))
    independent_set[np.ix_(witness, witness)] = 1.0 / alpha
    known = [(lambda _: math.inf, lambda: (float(independent_set.sum()), independent_set))]

    def bounds(point):
        x, _, z = point
        primal_side, dual_side = (x, z) if edge_form else (z, x)
        cand = np.where(on_edge, 0.0, primal_side)
        cand /= np.trace(cand)
        eps = max(0.0, -float(np.linalg.eigvalsh(cand)[0]))
        cand = (cand + eps * np.eye(n)) / (1.0 + n * eps)
        shifted = (float(cand.sum()), cand)
        return theta._dual_bound(dual_side, on_edge), [(lambda _: math.inf, lambda: shifted)]

    start = (float(n), np.ones((n, n)))
    return certified_solve(path, bounds, tol, theta.MAX_ITERATIONS, theta._result, known, start)


def problem_of(g):
    on_edge, above = g.adjacency, ~np.tri(g.n, dtype=bool)
    edges = np.argwhere(on_edge & above).tolist()
    non_edges = np.argwhere(~on_edge & above).tolist()
    return theta._sdp_form(g.n, edges, non_edges)


class RecordedPath:
    """The points of one theta problem's sdp_path, computed once on first
    demand and handed out as copies, so that every reader sees the same path."""

    def __init__(self, g):
        self.source = sdp_path(*problem_of(g)[:-1])
        self.points = []

    def __iter__(self):
        for k in itertools.count():
            if k == len(self.points):
                point = next(self.source, None)
                if point is None:
                    return
                self.points.append(point)
            yield tuple(a.copy() for a in self.points[k])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return graph(10, outer + inner + [(i, i + 5) for i in range(5)])


def fixed_family_graphs():
    graphs = [cycle(n) for n in range(7, 32, 2)]
    for n, offsets in FIXED_CIRCULANTS:
        graphs += [circulant(n, offsets), complement(circulant(n, offsets))]
    return graphs


def lazy_bound_cases():
    """The fixed family, 60 seeded G(n, p) with p in {0.3, 0.5, 0.7} and n
    in 8..24, Petersen (theta = alpha = 4) and a bipartite graph."""
    cases = fixed_family_graphs()
    rng = np.random.default_rng(2028)
    for _ in range(20):
        for p in (0.3, 0.5, 0.7):
            cases.append(random_graph(int(rng.integers(8, 25)), p, rng))
    bipartite = [(i, j) for i in range(5) for j in range(5, 11) if rng.random() < 0.5]
    return cases + [petersen(), graph(11, bipartite)]


def solve_outcome(solve):
    try:
        res, message = solve(), None
    except ConvergenceError as exc:
        res, message = exc.result, str(exc)
    return res.value, res.primal.tobytes(), res.dual.tobytes(), res.iterations, res.gap, message


@pytest.fixture(scope="module")
def recorded_paths():
    # the path depends on the problem alone, not on the tolerance, the cap or
    # the loop that reads it, so the six cases below share one per graph
    return {g: RecordedPath(g) for g in lazy_bound_cases()}


@pytest.mark.parametrize("cap", [None, 2, 5])
@pytest.mark.parametrize("tol", [1e-7, 1e-10])
def test_deferred_lower_bounds_match_the_eager_solver_bit_for_bit(monkeypatch, recorded_paths, tol, cap):
    # capped and stalled runs raise ConvergenceError, whose result and message must match too
    if cap is not None:
        monkeypatch.setattr(theta, "MAX_ITERATIONS", cap)
    for g in lazy_bound_cases():
        path = recorded_paths[g]
        monkeypatch.setattr(theta, "sdp_path", lambda *problem: iter(path))
        lazy = solve_outcome(lambda: theta.lovasz_theta(g, tol))
        assert lazy == solve_outcome(lambda: eager_theta(g, tol, path))


def test_recorded_paths_are_the_paths_sdp_path_yields(monkeypatch, recorded_paths):
    # sdp_path is deterministic: solved afresh, each problem's path is the
    # recorded one bit for bit, as far as the deepest case above reads it
    for g, recorded in recorded_paths.items():
        monkeypatch.setattr(theta, "sdp_path", lambda *problem: iter(recorded))
        solve_outcome(lambda: theta.lovasz_theta(g, 1e-10))
        fresh = sdp_path(*problem_of(g)[:-1])
        assert recorded.points
        for point in recorded.points:
            assert all(np.array_equal(a, b) for a, b in zip(next(fresh), point))


def test_alpha_and_the_psd_shift_are_computed_only_when_needed(monkeypatch):
    calls = {"alpha": 0, "shift": 0}

    def counted(name, f):
        def wrapped(*args):
            calls[name] += 1
            return f(*args)

        return wrapped

    monkeypatch.setattr(theta, "independence_number", counted("alpha", theta.independence_number))
    monkeypatch.setattr(theta, "_psd_shift", counted("shift", theta._psd_shift))
    for g in fixed_family_graphs():
        theta.lovasz_theta(g)
    # 111 iterations in all, of which 29 are shifted
    assert calls["alpha"] == 0 and calls["shift"] <= 30, calls
    res = theta.lovasz_theta(graph(12, THETA_EQUALS_ALPHA_EDGES))
    assert calls["alpha"] == 1 and res.value == 4.0


def test_psd_shift_never_exceeds_the_cap_of_its_scaled_iterate():
    # the shift moves the entry sum toward 1, also up from a sum below 1
    rng = np.random.default_rng(5)
    for n in (2, 5, 12, 32):
        for _ in range(50):
            m = rng.standard_normal((n, n))
            m = m + m.T + rng.uniform(0.0, 2.0 * n) * np.eye(n)
            on_edge = np.triu(rng.random((n, n)) < 0.4, 1)
            x, cap = theta._scaled_primal(m, on_edge | on_edge.T)
            assert theta._psd_shift(x)[0] <= cap


def test_ties_go_to_the_independent_set_then_the_earliest_iterate():
    # I/4 is PSD with unit trace, so every iterate's shift certifies exactly
    # 1.0, as does an independent set of one vertex of K4
    g = graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    points = [(np.eye(4) / 4, k, None) for k in (1, 2)]

    def bounds(point):
        scaled, cap = theta._scaled_primal(point[0], g.adjacency)
        return (2.0, "B"), [(lambda _: cap, lambda: (theta._psd_shift(scaled)[0], f"iterate {point[1]}"))]

    def solve(known):
        with pytest.raises(ConvergenceError) as info:
            certified_solve(iter(points), bounds, 1e-7, 100, lambda *sides: sides, known)
        assert info.value.reason == "failed step"
        return info.value.result[0]

    assert solve([]) == (1.0, "iterate 1")
    independent_set = (lambda _: 1.0, lambda: (1.0, "S"))
    assert solve([independent_set]) == (1.0, "S")

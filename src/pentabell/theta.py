"""Lovasz number of small dense graphs with certificates from both sides.

The semidefinite program

    maximize  sum_ij X_ij
    s.t.      trace(X) = 1,  X_ij = 0 for every edge (i,j),  X >= 0 (PSD)

and its dual, minimize lambda_max(B) over symmetric B that are 1 on the
diagonal and on every non-edge, are solved by the interior-point core
numerics.sdp_path in whichever standard form has fewer constraints: the
edge form (one per edge, plus the trace) or the free-entry form
(tI - B PSD; one per non-edge, plus n - 1 for an equal diagonal).

Convergence is certified, not assumed: every iteration builds

  * a feasible primal matrix X, whose entry sum is a lower bound: the
    primal side of the point sdp_path yields, where the step meets the
    cone's boundary, with its edges zeroed, its trace scaled to 1 and
    shifted into the PSD cone, or X_S = 1_S 1_S^T/|S| for a maximum
    independent set S when its entry sum is at least as large, and
  * a dual matrix B = J - Y with Y supported on the edges, so B is 1 on the
    diagonal and on every non-edge; for every feasible X,
    sum_ij X_ij = <B, X> <= lambda_max(B), an upper bound.

Any matrix gives valid bounds this way, so the solver, and which of its
points are tested, changes how fast the gap closes, never whether a bound
holds.  The walk over the points is numerics.certified_solve, the one
certified-solve loop: it keeps the best bound of each side and stops when
the best upper bound is within the requested tolerance of the best lower
bound (closed), or raises ConvergenceError when the gap stalls, the
iteration cap MAX_ITERATIONS is reached or a step fails.  Both matrices
are returned, so the value can be replayed from either side without
rerunning the solver: `replay` re-derives both bounds from X and B alone
and checks them against what ThetaResult states.  Each side's bound is
stated by one function, which the solver and `replay` share, so the value
is exactly the replayed entry sum of X and the gap exactly the replayed
lambda_max(B) less the value (0 if that is negative).  An edgeless or a
complete graph needs no iteration: its independent set (alpha = n or 1)
is the primal certificate and B = J or I the dual.

The two costly lower bounds are candidates with cheap caps, computed only
when they can change the answer: certified_solve settles them once per
iteration, highest cap first, so a computed bound drops every candidate
whose cap it exceeds.  The PSD shift moves an iterate's entry sum toward
1, so its bound is at most max(1, sum of the scaled iterate);
alpha <= theta <= u is an integer, so it is at most floor(u) for the best
upper bound u.  The stop iteration, the certificates and any
ConvergenceError are bit-for-bit those of computing both at every
iteration: the largest lower bound wins, and on a tie the independent set,
then the earliest iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InvalidInputError, strict_real
from .graphs import Graph, independence_number
from .numerics import certified_solve, sdp_path

MAX_VERTICES = 32
MAX_ITERATIONS = 100
# rounding slack on the cheap caps that decide which lower bounds are computed
_SLACK = 1e-9


@dataclass(frozen=True)
class ThetaResult:
    """Solver output: value, primal certificate X, dual certificate B,
    iterations, gap.

    X satisfies trace(X) = 1 within 1e-8, X_ij = 0 on every edge within
    1e-7, X is PSD within 1e-8, and value is sum_ij X_ij exactly, as
    `replay` computes it.  B is symmetric, equals 1 on the diagonal and on
    every non-edge, and gap is max(lambda_max(B) - value, 0) exactly, with
    lambda_max(B) as `replay` computes it.  An edgeless or a complete graph
    is certified by its independent set, with B = J or I.
    """

    value: float
    primal: np.ndarray
    dual: np.ndarray
    iterations: int
    gap: float


def _scaled_primal(m: np.ndarray, on_edge: np.ndarray):
    # Zero the edges and scale the trace to 1; the PSD shift moves the entry
    # sum toward 1, so the bound it certifies is at most the returned cap.
    x = np.where(on_edge, 0.0, m)
    x /= np.trace(x)
    return x, max(1.0, float(x.sum())) + _SLACK


def _lower_bound(x: np.ndarray):
    # (sum_ij X_ij, X): the one statement of a feasible X's lower bound
    return float(x.sum()), x


def _upper_bound(b: np.ndarray):
    # (lambda_max(B), B): the one statement of a dual B's upper bound
    return float(np.linalg.eigvalsh(b)[-1]), b


def _psd_shift(x: np.ndarray):
    # Shift a scaled iterate into the PSD cone and renormalise; edges stay
    # exactly zero because only the diagonal moves.  The entry sum becomes
    # (sum(x) + n eps) / (1 + n eps), between sum(x) and 1.
    eps = max(0.0, -float(np.linalg.eigvalsh(x)[0]))
    return _lower_bound((x + eps * np.eye(len(x))) / (1.0 + len(x) * eps))


def _independent_set(g: Graph):
    # X_S = 1_S 1_S^T / |S| for a maximum independent set S; its entry sum
    # can miss alpha by a rounding
    alpha, witness = independence_number(g)
    x = np.zeros((g.n, g.n))
    x[np.ix_(witness, witness)] = 1.0 / alpha
    return _lower_bound(x)


def _dual_bound(m: np.ndarray, on_edge: np.ndarray):
    # For any symmetric Y supported on the edge set and any feasible X,
    # <J, X> = <J - Y, X> <= lambda_max(J - Y); the edge entries of
    # B = J - Y are read from the iterate whose optimum is tI - B.
    return _upper_bound(np.where(on_edge, -m, 1.0))


def _sdp_form(n: int, edges, non_edges):
    """The smaller of two standard forms of theta, as (c, b, rows, pairs,
    coef, edge_form) for numerics.sdp_path.

    Edge form: minimize <-J, X> s.t. trace X = 1 and X_ij = 0 on the edges;
    X is the primal matrix and the dual Z = tI - B.  Free-entry form:
    minimize trace(S)/n s.t. S_ii = S_(i+1)(i+1) and S_ij = -1 on the
    non-edges, so that S = tI - B with B free on the edges, and the dual Z
    is the primal matrix.
    """
    if len(edges) + 1 <= len(non_edges) + n - 1:
        # trace X = 1 over the n diagonal terms, then X_ij = 0 per edge
        rows = [0] * n + list(range(1, len(edges) + 1))
        pairs = [(i, i) for i in range(n)] + edges
        b = [1.0] + [0.0] * len(edges)
        return -np.ones((n, n)), b, rows, pairs, [1.0] * len(rows), True
    # S_kk - S_(k+1)(k+1) = 0 over two diagonal terms, then S_ij = -1 per non-edge
    rows = [t // 2 for t in range(2 * n - 2)] + list(range(n - 1, n - 1 + len(non_edges)))
    pairs = [(i, i) for k in range(n - 1) for i in (k, k + 1)] + non_edges
    b = [0.0] * (n - 1) + [-1.0] * len(non_edges)
    coef = [1.0, -1.0] * (n - 1) + [1.0] * len(non_edges)
    return np.eye(n) / n, b, rows, pairs, coef, False


def lovasz_theta(g: Graph, tol: float = 1e-7) -> ThetaResult:
    """Lovasz number of g with a primal and a dual certificate.

    tol is read as a real number (a bool, "1e-7" or None raises
    InvalidInputError).  Raises ConvergenceError, carrying the best
    certified ThetaResult and the stop reason, if the gap stalls, does not
    close within MAX_ITERATIONS, or the interior-point path breaks down
    first.
    """
    if g.n > MAX_VERTICES:
        raise CapacityError(f"{g.n} vertices exceed the {MAX_VERTICES} envelope")
    tol = strict_real(tol, "tol")
    if not (1e-10 <= tol <= 1e-3):
        raise InvalidInputError(f"tol {tol} outside [1e-10, 1e-3]")
    n = g.n

    # an edgeless or a complete graph: its independent set (alpha = n or 1)
    # and B = J or I close the gap without iterating
    if not g.edges or len(g.edges) == n * (n - 1) // 2:
        dual = np.eye(n) if g.edges else np.ones((n, n))
        return _result(_independent_set(g), _upper_bound(dual), 0)

    # edges and non-edges in row-major order of the upper triangle (i < j)
    on_edge, above = g.adjacency, ~np.tri(n, dtype=bool)
    edges = np.argwhere(on_edge & above).tolist()
    non_edges = np.argwhere(~on_edge & above).tolist()
    *problem, edge_form = _sdp_form(n, edges, non_edges)

    def bounds(point):
        x, _, z = point
        primal_side, dual_side = (x, z) if edge_form else (z, x)
        scaled, cap = _scaled_primal(primal_side, on_edge)
        return _dual_bound(dual_side, on_edge), [(lambda _: cap, lambda: _psd_shift(scaled))]

    # alpha <= theta <= u is an integer, so it is at most floor(u); X_S's
    # entry sum can exceed alpha by a rounding, which the slack covers
    alpha = (lambda u: math.floor(u + _SLACK) + _SLACK, lambda: _independent_set(g))
    # lambda_max(J) = n, stated without an eigvalsh; the first point's dual
    # bound replaces it whenever it is lower
    start = (float(n), np.ones((n, n)))
    return certified_solve(sdp_path(*problem), bounds, tol, MAX_ITERATIONS, _result, [alpha], start)


def _result(lower, upper, iterations: int) -> ThetaResult:
    (value, primal), (top, dual) = lower, upper
    return ThetaResult(value, primal, dual, iterations, max(top - value, 0.0))


def odd_cycle_theta(n: int) -> float:
    """Closed form for the Lovasz number of an odd cycle C_n."""
    if n < 3 or n % 2 == 0:
        raise InvalidInputError("closed form applies to odd cycles only")
    c = np.cos(np.pi / n)
    return float(n * c / (1.0 + c))


def replay(g: Graph, result: ThetaResult, tol: float):
    """(lower, upper, ok): both bounds re-derived from the certificates
    alone, lower = sum_ij X_ij and upper = lambda_max(B), and whether they
    hold the bounds ThetaResult states.

    Primal X: symmetric, trace 1 within 1e-8, edge entries zero within 1e-7,
    PSD within 1e-8, and entry sum equal to the value within max(gap, tol).
    Dual B: symmetric, exactly 1 on the diagonal and on every non-edge (so
    B = J - Y with Y on the edges), and value <= lambda_max(B) <=
    value + max(gap, tol), each within 1e-9.  Symmetry means within 1e-12.
    A certificate of the wrong shape or with non-finite entries has no
    bounds: (nan, nan, False).
    """
    x = np.asarray(result.primal, dtype=float)
    b = np.asarray(result.dual, dtype=float)
    if any(m.shape != (g.n, g.n) or not np.all(np.isfinite(m)) for m in (x, b)):
        return np.nan, np.nan, False
    lower, upper = _lower_bound(x)[0], _upper_bound(b)[0]
    slack = max(result.gap, tol)
    ok = (
        all(np.max(np.abs(m - m.T)) <= 1e-12 for m in (x, b))
        and abs(float(np.trace(x)) - 1.0) <= 1e-8
        and np.all(np.abs(x[g.adjacency]) <= 1e-7)
        and float(np.linalg.eigvalsh(x)[0]) >= -1e-8
        and abs(lower - result.value) <= slack
        and np.all(b[~g.adjacency] == 1.0)
        and result.value - 1e-9 <= upper <= result.value + slack + 1e-9
    )
    return lower, upper, bool(ok)

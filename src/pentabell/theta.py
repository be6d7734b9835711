"""Lovasz number of small dense graphs with verifiable certificates.

The semidefinite program

    maximize  sum_ij X_ij
    s.t.      trace(X) = 1,  X_ij = 0 for every edge (i,j),  X >= 0 (PSD)

is solved by over-relaxed alternating projections between the PSD cone and
the affine constraint set, with a running dual correction (ADMM splitting).
Convergence is certified, not assumed: each check interval builds

  * a strictly feasible primal matrix (lower bound on the optimum), and
  * a dual matrix supported on the edges whose largest eigenvalue with the
    all-ones matrix added upper-bounds the optimum,

and the solver stops only when the sandwich is tighter than the requested
tolerance.  The returned certificate is the feasible primal matrix, so the
reported value can be replayed from it without rerunning the solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConvergenceError, InvalidInputError
from .graphs import Graph
from .numerics import _psd_part

MAX_VERTICES = 32
MAX_ITERATIONS = 200_000
_CHECK_EVERY = 50


@dataclass(frozen=True)
class ThetaResult:
    """Solver output: value, primal certificate X, iterations, gap estimate.

    The certificate satisfies trace(X) = 1 within 1e-8, X_ij = 0 on every
    edge within 1e-7, X is PSD within 1e-8, and sum_ij X_ij equals value
    within the reported gap.
    """

    value: float
    primal: np.ndarray
    iterations: int
    gap: float


def _affine_project(y: np.ndarray, edge_index, n: int) -> np.ndarray:
    """Project onto {symmetric, trace = 1, zero on edges}."""
    x = (y + y.T) / 2.0
    if edge_index is not None:
        rows, cols = edge_index
        x[rows, cols] = 0.0
        x[cols, rows] = 0.0
    shift = (np.trace(x) - 1.0) / n
    x[np.diag_indices(n)] -= shift
    return x


def _upper_bound(u_scaled: np.ndarray, edge_index, n: int) -> float:
    # For any symmetric Y supported on the edge set and any feasible X,
    # <J, X> = <J - Y, X> <= lambda_max(J - Y).  At the optimum the scaled
    # dual variable approaches J - theta*I - Y, so reading its edge entries
    # as (J - Y)_ij recovers a bound that converges to theta itself.
    b = np.ones((n, n))
    if edge_index is None:
        return float(np.linalg.eigvalsh(b)[-1])
    rows, cols = edge_index
    vals = (u_scaled[rows, cols] + u_scaled[cols, rows]) / 2.0
    b[rows, cols] = vals
    b[cols, rows] = vals
    return float(np.linalg.eigvalsh(b)[-1])


def _feasible_primal(x: np.ndarray, n: int):
    # Shift the affine-feasible iterate into the PSD cone and renormalize;
    # edges stay exactly zero because only the diagonal moves.
    lam_min = float(np.linalg.eigvalsh(x)[0])
    eps = max(0.0, -lam_min)
    feasible = (x + eps * np.eye(n)) / (1.0 + n * eps)
    return feasible, float(feasible.sum())


def lovasz_theta(g: Graph, tol: float = 1e-7) -> ThetaResult:
    """Lovasz number of g with a primal certificate.

    Raises ConvergenceError (carrying the best iterate) if the sandwich gap
    does not close within the iteration cap.
    """
    if g.n > MAX_VERTICES:
        raise CapacityError(f"{g.n} vertices exceed the {MAX_VERTICES} envelope")
    if not (1e-10 <= tol <= 1e-3):
        raise InvalidInputError(f"tol {tol} outside [1e-10, 1e-3]")
    n = g.n

    if not g.edges:
        return ThetaResult(float(n), np.full((n, n), 1.0 / n), 0, 0.0)
    if len(g.edges) == n * (n - 1) // 2:
        return ThetaResult(1.0, np.eye(n) / n, 0, 0.0)

    rows = np.array([e[0] for e in sorted(g.edges)])
    cols = np.array([e[1] for e in sorted(g.edges)])
    edge_index = (rows, cols)

    rho = 1.0
    relax = 1.6
    z = np.eye(n) / n
    u = np.zeros((n, n))
    best = None

    iterations = 0
    while iterations < MAX_ITERATIONS:
        iterations += 1
        x = _affine_project(z - u + np.ones((n, n)) / rho, edge_index, n)
        x_hat = relax * x + (1.0 - relax) * z
        z_prev = z
        y = x_hat + u
        z = _psd_part((y + y.T) / 2.0)  # inputs were validated on entry
        u = u + x_hat - z

        if iterations % _CHECK_EVERY == 0:
            primal, lower = _feasible_primal(x, n)
            upper = _upper_bound(rho * u, edge_index, n)
            gap = max(upper - lower, 0.0)
            if best is None or gap < best.gap:
                best = ThetaResult(lower, primal, iterations, gap)
            if gap <= tol:
                return ThetaResult(lower, primal, iterations, gap)
            # residual balancing keeps the two projection streams comparable
            r_norm = float(np.linalg.norm(x - z))
            s_norm = float(rho * np.linalg.norm(z - z_prev))
            if r_norm > 10.0 * s_norm:
                rho *= 2.0
                u /= 2.0
            elif s_norm > 10.0 * r_norm:
                rho /= 2.0
                u *= 2.0

    raise ConvergenceError(
        f"theta solver did not reach gap {tol} in {MAX_ITERATIONS} iterations",
        result=best,
    )


def odd_cycle_theta(n: int) -> float:
    """Closed form for the Lovasz number of an odd cycle C_n."""
    if n < 3 or n % 2 == 0:
        raise InvalidInputError("closed form applies to odd cycles only")
    c = np.cos(np.pi / n)
    return float(n * c / (1.0 + c))

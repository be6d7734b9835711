"""Lovasz number of small dense graphs with certificates from both sides.

The semidefinite program

    maximize  sum_ij X_ij
    s.t.      trace(X) = 1,  X_ij = 0 for every edge (i,j),  X >= 0 (PSD)

is solved by over-relaxed alternating projections between the PSD cone and
the affine constraint set, with a running dual correction (ADMM splitting).
One ADMM step is a fixed-point map on the state (z, u).  Safeguarded type-II
Anderson acceleration (Zhang, O'Donoghue & Boyd, arXiv:1808.03971) replaces
the plain step by the combination of the last few steps that best cancels
their residuals; an extrapolation farther than _MAX_STEP_RATIO residuals
from the plain step is rejected, and a change of the penalty rho clears the
history.

Convergence is certified, not assumed: each check interval builds

  * a feasible primal matrix X, whose entry sum is a lower bound: the affine
    projection of the iterate shifted into the PSD cone, or X_S = 1_S 1_S^T/|S|
    for a maximum independent set S when |S| is larger, and
  * a dual matrix B = J - Y with Y supported on the edges, so B is 1 on the
    diagonal and on every non-edge; for every feasible X,
    sum_ij X_ij = <B, X> <= lambda_max(B), an upper bound.

Any iterate gives valid bounds, so acceleration changes how fast the gap
closes, never whether a bound holds.  The solver stops when the best upper
bound is within the requested tolerance of the best lower bound, and returns
both matrices, so the value can be replayed from either side without
rerunning the solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConvergenceError, InvalidInputError
from .graphs import Graph, independence_number
from .numerics import _psd_part

MAX_VERTICES = 32
MAX_ITERATIONS = 200_000
_CHECK_EVERY = 10
_BALANCE_EVERY = 50
_ANDERSON_MEMORY = 5
_ANDERSON_REGULARISATION = 1e-10
_MAX_STEP_RATIO = 10.0


@dataclass(frozen=True)
class ThetaResult:
    """Solver output: value, primal certificate X, dual certificate B,
    iterations, gap.

    X satisfies trace(X) = 1 within 1e-8, X_ij = 0 on every edge within
    1e-7, X is PSD within 1e-8, and sum_ij X_ij equals value within the
    reported gap.  B is symmetric, equals 1 on the diagonal and on every
    non-edge, and value <= lambda_max(B) <= value + gap.
    """

    value: float
    primal: np.ndarray
    dual: np.ndarray
    iterations: int
    gap: float


def _affine_project(x: np.ndarray, edge_index, diag) -> np.ndarray:
    """Project a symmetric matrix onto {trace = 1, zero on edges}, in place."""
    rows, cols = edge_index
    x[rows, cols] = 0.0
    x[cols, rows] = 0.0
    x[diag] -= (np.trace(x) - 1.0) / len(x)
    return x


def _dual_bound(u_scaled: np.ndarray, edge_index):
    # For any symmetric Y supported on the edge set and any feasible X,
    # <J, X> = <J - Y, X> <= lambda_max(J - Y).  At the optimum the scaled
    # dual variable approaches J - theta*I - Y, so reading its edge entries
    # as (J - Y)_ij recovers a bound that converges to theta itself.
    rows, cols = edge_index
    b = np.ones(u_scaled.shape)
    vals = (u_scaled[rows, cols] + u_scaled[cols, rows]) / 2.0
    b[rows, cols] = vals
    b[cols, rows] = vals
    return b, float(np.linalg.eigvalsh(b)[-1])


def _feasible_primal(x: np.ndarray, n: int):
    # Shift the affine-feasible iterate into the PSD cone and renormalize;
    # edges stay exactly zero because only the diagonal moves.
    lam_min = float(np.linalg.eigvalsh(x)[0])
    eps = max(0.0, -lam_min)
    feasible = (x + eps * np.eye(n)) / (1.0 + n * eps)
    return feasible, float(feasible.sum())


class _Anderson:
    """Safeguarded type-II Anderson acceleration of a fixed-point map.

    `step(f, g)` takes the plain step f = F(w) and its residual g = f - w as
    flat vectors.  It keeps the last _ANDERSON_MEMORY differences dF of the
    steps and dG of the residuals, with their Gram matrix, and returns
    f - dF gamma, where gamma minimises |g - dG gamma| through the normal
    equations with a Tikhonov term eta = _ANDERSON_REGULARISATION * trace;
    an extrapolation more than _MAX_STEP_RATIO |g| away from f is rejected
    in favour of f.
    """

    def __init__(self, size: int):
        self.df = np.zeros((_ANDERSON_MEMORY, size))
        self.dg = np.zeros((_ANDERSON_MEMORY, size))
        self.gram = np.zeros((_ANDERSON_MEMORY, _ANDERSON_MEMORY))
        self.clear()

    def clear(self) -> None:
        self.pushed = 0
        self.last = None

    def step(self, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        if self.last is not None:
            k = self.pushed % _ANDERSON_MEMORY
            np.subtract(f, self.last[0], out=self.df[k])
            np.subtract(g, self.last[1], out=self.dg[k])
            self.gram[k] = self.gram[:, k] = self.dg @ self.dg[k]
            self.pushed += 1
        self.last = (f, g)
        m = min(self.pushed, _ANDERSON_MEMORY)
        if not m:
            return f
        # (gram + eta I) gamma = dG g, solved through eigh, which the PSD
        # projection already uses, so no other LAPACK routine is paged in
        lam, vec = np.linalg.eigh(self.gram[:m, :m])
        eta = _ANDERSON_REGULARISATION * lam.sum()
        if eta <= 0.0:  # the residual has not changed: nothing to fit
            return f
        gamma = vec @ ((vec.T @ (self.dg[:m] @ g)) / (lam + eta))
        step = gamma @ self.df[:m]
        if step @ step > _MAX_STEP_RATIO**2 * (g @ g):
            return f
        return f - step


def lovasz_theta(g: Graph, tol: float = 1e-7) -> ThetaResult:
    """Lovasz number of g with a primal and a dual certificate.

    Raises ConvergenceError (carrying the best certified bounds) if the gap
    does not close within the iteration cap.
    """
    if g.n > MAX_VERTICES:
        raise CapacityError(f"{g.n} vertices exceed the {MAX_VERTICES} envelope")
    if not (1e-10 <= tol <= 1e-3):
        raise InvalidInputError(f"tol {tol} outside [1e-10, 1e-3]")
    n = g.n

    if not g.edges:
        return ThetaResult(float(n), np.full((n, n), 1.0 / n), np.ones((n, n)), 0, 0.0)
    if len(g.edges) == n * (n - 1) // 2:
        return ThetaResult(1.0, np.eye(n) / n, np.eye(n), 0, 0.0)

    rows = np.array([e[0] for e in sorted(g.edges)])
    cols = np.array([e[1] for e in sorted(g.edges)])
    edge_index = (rows, cols)
    diag = np.diag_indices(n)

    alpha, witness = independence_number(g)
    lower = float(alpha)
    primal = np.zeros((n, n))
    primal[np.ix_(witness, witness)] = 1.0 / alpha
    upper, dual = float(n), np.ones((n, n))
    best = ThetaResult(lower, primal, dual, 0, upper - lower)

    rho = 1.0
    relax = 1.6
    ones_over_rho = np.ones((n, n))
    w = np.zeros((2, n, n))  # the ADMM state (z, u)
    w[0][diag] = 1.0 / n
    accel = _Anderson(w.size)

    iterations = 0
    while iterations < MAX_ITERATIONS:
        iterations += 1
        z, u = w
        x = _affine_project(z - u + ones_over_rho, edge_index, diag)
        x_hat = relax * x + (1.0 - relax) * z
        f = np.empty_like(w)
        f[0] = _psd_part(x_hat + u)
        f[1] = u + x_hat - f[0]

        if iterations % _CHECK_EVERY == 0:
            cand, cand_lower = _feasible_primal(x, n)
            if cand_lower > lower:
                primal, lower = cand, cand_lower
            cand, cand_upper = _dual_bound(rho * u, edge_index)
            if cand_upper < upper:
                dual, upper = cand, cand_upper
            best = ThetaResult(lower, primal, dual, iterations, max(upper - lower, 0.0))
            if best.gap <= tol:
                return best
        if iterations % _BALANCE_EVERY == 0:
            # residual balancing keeps the two projection streams comparable;
            # it rescales u, so the Anderson history no longer applies
            r_norm = float(np.linalg.norm(x - f[0]))
            s_norm = float(rho * np.linalg.norm(f[0] - z))
            if r_norm > 10.0 * s_norm or s_norm > 10.0 * r_norm:
                scale = 2.0 if r_norm > s_norm else 0.5
                rho *= scale
                f[1] /= scale
                ones_over_rho = np.full((n, n), 1.0 / rho)
                accel.clear()
                w = f
                continue

        w = accel.step(f.reshape(-1), (f - w).reshape(-1)).reshape(w.shape)
        # the extrapolation is symmetric only up to rounding
        w = (w + w.swapaxes(1, 2)) / 2.0

    raise ConvergenceError(
        f"theta solver did not reach gap {tol} in {MAX_ITERATIONS} iterations; "
        f"best certified gap {best.gap:.3e} ({best.value:.10f} <= theta <= {upper:.10f})",
        result=best,
    )


def odd_cycle_theta(n: int) -> float:
    """Closed form for the Lovasz number of an odd cycle C_n."""
    if n < 3 or n % 2 == 0:
        raise InvalidInputError("closed form applies to odd cycles only")
    c = np.cos(np.pi / n)
    return float(n * c / (1.0 + c))

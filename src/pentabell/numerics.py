"""Dense real linear algebra used by every other module: validated
symmetric matrices, one interior-point core for semidefinite programs in
standard form (sdp_path) and one loop that walks its path keeping the best
certified bounds and decides when to stop (certified_solve).  The loop
returns what it proved and why it stopped; whether an open gap is an error
is its caller's decision.

All operations work on plain numpy arrays in 64-bit floating point and
validate their inputs (finiteness, shape, symmetry) before delegating to
numpy's LAPACK-backed routines.  The tolerances stated in the docstrings
are part of the public contract and are exercised by the test suite.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator

import numpy as np

from .errors import CapacityError, InvalidInputError

MAX_ORDER = 64

# Relative asymmetry accepted before a matrix is rejected as non-symmetric.
SYMMETRY_RTOL = 1e-8

# certified_solve stops as "stalled" when the best certified gap has not
# shrunk by STALL_FACTOR over a block of STALL_WINDOW iterations
STALL_WINDOW = 10
STALL_FACTOR = 2.0


def as_sym_matrix(a) -> np.ndarray:
    """Validate a square symmetric matrix and return a symmetrized copy.

    Asymmetry beyond SYMMETRY_RTOL (relative to the largest entry) is an
    error; smaller round-off asymmetry is silently symmetrized so that
    downstream code sees entries[i, j] == entries[j, i] exactly.
    """
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.size == 0:
        raise InvalidInputError(f"expected a 2-d matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidInputError("matrix has non-finite entries")
    if m.shape[0] != m.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {m.shape}")
    if np.abs(m - m.T).max() > SYMMETRY_RTOL * max(1.0, np.abs(m).max()):
        raise InvalidInputError("matrix is not symmetric")
    return (m + m.T) / 2.0


def sdp_path(c, b, rows, pairs, coef) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Points (X, y, Z), one per step, of a dense infeasible primal-dual
    interior-point method for the semidefinite program in standard form

        minimize <C, X>  s.t.  <A_k, X> = b_k (k < m),  X PSD,
        maximize b^T y   s.t.  Z = C - sum_k y_k A_k PSD.

    Every A_k is a combination of unit-pair matrices
    U_ij = (e_i e_j^T + e_j e_i^T) / 2: term t adds coef[t] U_ij with
    (i, j) = pairs[t] to A_k with k = rows[t]; rows is non-decreasing and
    names every k < m = len(b).

    Each step takes the HKM direction (Helmberg, Rendl, Vanderbei &
    Wolkowicz, SIAM J. Optim. 6, 1996) with a Mehrotra predictor-corrector
    (SIAM J. Optim. 2, 1992), solved through the Schur matrix
    M_kl = tr(A_k X A_l Z^-1).  X and Z stay positive definite, and a step
    of length alpha scales the residuals b - A(X) and C - A^T(y) - Z by
    1 - alpha, so a side that starts feasible stays feasible.

    The start is scaled to the problem data, as in SDPT3 (Toh, Todd &
    Tutuncu, Optim. Methods Softw. 11, 1999): X = xi I with
    xi = <A(I), b> / |A(I)|^2 when that is positive, else xi = 1; y = 0;
    and Z = C when C is positive definite, else Z = max(1, |C|_F) I.  It is
    exactly primal-feasible when b is a positive multiple of A(I) (theta's
    edge form starts at X = I/n) and exactly dual-feasible when C is
    positive definite (theta's free-entry form, C = I/n).

    The predictor (sigma = 0) runs to the cone's boundary with step lengths
    alpha_P and alpha_D, and predicts that mu = <X, Z>/n falls to mu_pred.
    The corrector centres with sigma = (mu_pred / mu)^2, Mehrotra's
    exponent 2 rather than the cubic rule, and steps the fraction
    gamma = 0.9 + 0.099 min(alpha_P, alpha_D) of the way to the boundary:
    SDPT3's rule with its cap raised from 0.99 to 0.999.  Both were chosen
    by total iterations of Lovasz theta on graphs outside the benchmark's
    fixed family (tools/theta_iterations.py), where they take fewer than
    the cubic rule with the 0.99 cap.

    The path continues from that damped point, but what it yields is the
    point where the corrector's step meets the boundary: X + min(1,
    alpha_max) dX on the primal side and likewise (y, Z) on the dual, the
    full Newton step when that stays inside the cone.  It is PSD on both
    sides within rounding (singular on a side whose step was cut), a side
    that starts feasible stays feasible there too, and its gap is smaller
    than the damped point's, which the step leaves about 1/1000 of the way
    from the boundary, so callers that test certificates on it stop sooner.

    The caller decides when to stop; the generator ends by itself when a
    step fails, by a failed factorisation or a floating-point overflow,
    invalid value or division by zero, which near the optimum means the
    iterates have run out of precision.  Only the step runs under that
    error state; the caller's is in force between iterates.
    """
    c = as_sym_matrix(c)
    n = len(c)
    if n > MAX_ORDER:
        raise CapacityError(f"order {n} exceeds the {MAX_ORDER} envelope")
    b = np.asarray(b, dtype=float)
    rows = np.asarray(rows, dtype=int)
    pairs = np.asarray(pairs, dtype=int)
    coef = np.asarray(coef, dtype=float)
    if b.ndim != 1 or not np.all(np.isfinite(b)) or not np.all(np.isfinite(coef)):
        raise InvalidInputError("b and coef must be finite vectors")
    if pairs.shape != (len(rows), 2) or coef.shape != rows.shape or pairs.size == 0:
        raise InvalidInputError("rows, pairs and coef must describe the same terms")
    if pairs.min() < 0 or pairs.max() >= n:
        raise InvalidInputError("a pair indexes outside the matrix")
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    if not np.array_equal(rows[starts], np.arange(len(b))):
        raise InvalidInputError("rows must be non-decreasing and name every constraint")
    i, j = pairs.T

    def op(x):  # A(X) for a symmetric X
        return np.add.reduceat(coef * x[i, j], starts)

    def adjoint(y):  # A^T(y)
        out = np.zeros((n, n))
        half = coef * y[rows] / 2.0
        np.add.at(out, (i, j), half)
        np.add.at(out, (j, i), half)
        return out

    def schur(x, w):
        # tr(U_p X U_q W) for every pair of terms p, q, summed over the
        # terms of each constraint: M = S G S^T with S the coefficients
        xi, xj, wi, wj = x[i], x[j], w[i], w[j]
        g = xi[:, j] * wj[:, i]
        g += g.T
        g += xi[:, i] * wj[:, j]
        g += xj[:, j] * wi[:, i]
        g *= coef / 4.0
        g *= coef[:, None]
        return np.add.reduceat(np.add.reduceat(g, starts, axis=0), starts, axis=1)

    def newton(x, y, z):
        # one predictor-corrector step; a failed factorisation raises
        lx = np.linalg.inv(np.linalg.cholesky(x))
        lz = np.linalg.inv(np.linalg.cholesky(z))
        w = _sym(lz.T @ lz)
        rp = b - op(x)
        rd = c - adjoint(y) - z
        m = schur(x, w)

        def direction(target, second_order, fraction):
            # dX = target W - X - sym((X dZ + second_order) W) with
            # dZ = rd - A^T(dy), where M dy = rp - A(dX at dZ = rd)
            r = target * w - x - _sym((x @ rd + second_order) @ w)
            dy = np.linalg.solve(m, rp - op(r))
            if not np.all(np.isfinite(dy)):
                raise np.linalg.LinAlgError("Schur system has no finite solution")
            dz = rd - adjoint(dy)
            dx = target * w - x - _sym((x @ dz + second_order) @ w)
            return dx, dy, dz, _step_lengths(lx, dx, fraction), _step_lengths(lz, dz, fraction)

        # the predictor runs to the boundary; the corrector stays a share of
        # the way inside it, the larger the longer the predictor's steps
        dx, dy, dz, (step_x, _), (step_z, _) = direction(0.0, 0.0, 1.0)
        gap = np.sum(x * z)
        predicted = np.sum((x + step_x * dx) * (z + step_z * dz))
        fraction = 0.9 + 0.099 * min(step_x, step_z)
        target = (predicted / gap) ** 2 * gap / n
        dx, dy, dz, (step_x, edge_x), (step_z, edge_z) = direction(target, dx @ dz, fraction)
        # the path goes on from the damped point; the caller gets the one
        # where the step meets the boundary
        damped = x + step_x * dx, y + step_z * dy, z + step_z * dz
        return damped, (x + edge_x * dx, y + edge_z * dy, z + edge_z * dz)

    def iterates():
        a_eye = op(np.eye(n))
        scale = float(a_eye @ b)
        x = (scale / float(a_eye @ a_eye) if scale > 0 else 1.0) * np.eye(n)
        y = np.zeros(len(b))
        z = c if np.linalg.eigvalsh(c)[0] > 0 else max(1.0, float(np.linalg.norm(c))) * np.eye(n)
        while True:
            try:
                with np.errstate(over="raise", invalid="raise", divide="raise"):
                    (x, y, z), boundary = newton(x, y, z)
            except (np.linalg.LinAlgError, FloatingPointError):
                return
            yield boundary

    return iterates()


def certified_solve(points, bounds, tol: float, max_iterations: int, lower=(), upper=(math.inf, None)):
    """The best certified bounds along an interior-point path, and why it
    stopped.

    bounds(point) maps one point of the path to an upper bound, as
    (bound, certificate), and a list of lower candidates.  A candidate is
    (cap, compute): compute() returns (bound, certificate), and cap(u) is at
    least that bound whenever u is the best upper bound so far, so a costly
    lower bound is computed only when it can change the answer.  lower
    holds the candidates known before the path starts, and upper the upper
    bound.  The least upper bound is kept, the earliest on a tie, and the
    greatest lower bound, the earliest candidate on a tie.

    The walk stops with one of four reasons:
      closed       the best upper bound is within tol of the best lower;
      stalled      the best gap has not shrunk by STALL_FACTOR since the
                   last stall check, made at every multiple of STALL_WINDOW;
      cap          max_iterations points were read;
      failed step  the path ended.
    It returns (lower, upper, iterations, stop): the best (bound,
    certificate) of each side, the number of points read and the reason.
    It raises nothing of its own: an open gap is a correct answer here,
    and a caller for which it is an error raises (theta.lovasz_theta does).

    Candidates are settled once per iteration, highest cap first, so that
    a bound computed early drops every candidate whose cap falls below it:
    those whose cap reaches the best upper bound less tol are computed, less
    max(tol, the gap that would count as progress) at a stall check, and
    any gap when the walk ends.  A candidate left pending cannot meet the
    closed test or the stall test, so the stop and the bounds returned are
    those of computing every candidate at once.

    The stall window and factor were chosen as sdp_path's step rule was, by
    Lovasz theta on the held-out graphs of tools/theta_iterations.py with
    one BLAS thread.  A window of 10 with any factor from 1.001 to 10 ends
    no solve that closes at tol 1e-7 or 1e-10, and leaves the best gap of
    every solve that does not close as it was to three digits; windows of 8
    or less end a solve that closes.  The factor 2 asks that the gap at
    least halve.
    """
    # a candidate is (order, cap, compute), order = -rank so that the larger
    # order is the earlier candidate
    orders = itertools.count(0, -1)
    pending = [(next(orders), cap, compute) for cap, compute in lower]
    best = (-math.inf, -math.inf, None)  # (bound, order, certificate)

    def settle(threshold):
        # highest cap first: compute while the top cap reaches the threshold
        # and the best bound, then drop every cap below the best bound
        nonlocal pending, best
        reach = lambda candidate: candidate[1](upper[0])
        pending.sort(key=reach, reverse=True)
        while pending and reach(pending[0]) >= max(threshold, best[0]):
            order, _, compute = pending.pop(0)
            bound, certificate = compute()
            if (bound, order) > best[:2]:
                best = (bound, order, certificate)
        pending = [candidate for candidate in pending if reach(candidate) >= best[0]]

    iterations, stop, progress = 0, "failed step", math.inf
    for iterations, point in enumerate(points, 1):
        bound, found = bounds(point)
        pending += [(next(orders), cap, compute) for cap, compute in found]
        if bound[0] < upper[0]:
            upper = bound
        check = iterations % STALL_WINDOW == 0
        settle(upper[0] - (max(tol, progress / STALL_FACTOR) if check else tol))
        if upper[0] - best[0] <= tol:
            stop = "closed"
            break
        if check:
            if best[0] < upper[0] - progress / STALL_FACTOR:
                stop = "stalled"
                break
            progress = upper[0] - best[0]
        if iterations == max_iterations:
            stop = "cap"
            break
    settle(-math.inf)
    return (best[0], best[2]), upper, iterations, stop


def _sym(a: np.ndarray) -> np.ndarray:
    return (a + a.T) / 2.0


def _step_lengths(l_inv: np.ndarray, d: np.ndarray, fraction: float) -> tuple[float, float]:
    """(damped, boundary): fraction of the longest step alpha keeping
    L L^T + alpha D PSD, and that longest step itself, each at most 1."""
    lam = float(np.linalg.eigvalsh(l_inv @ d @ l_inv.T)[0])
    return 1.0 if lam >= -fraction else -fraction / lam, 1.0 if lam >= -1.0 else -1.0 / lam

"""Dense real linear algebra used by every other module.

All operations work on plain numpy arrays in 64-bit floating point and
validate their inputs (finiteness, shape, symmetry) before delegating to
numpy's LAPACK-backed routines.  The tolerances stated in the docstrings
are part of the public contract and are exercised by the test suite.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import CapacityError, InvalidInputError

MAX_ORDER = 64

# Relative asymmetry accepted before a matrix is rejected as non-symmetric.
SYMMETRY_RTOL = 1e-8


class EigDecomposition(NamedTuple):
    """Eigenvalues in ascending order and orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


class SvdDecomposition(NamedTuple):
    """Thin SVD: orthonormal columns u, v and descending singular values."""

    u: np.ndarray
    singular_values: np.ndarray
    v: np.ndarray


def as_matrix(a) -> np.ndarray:
    """Validate a general real matrix: 2-d, finite, dimensions >= 1."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise InvalidInputError(f"expected a 2-d matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidInputError("matrix has non-finite entries")
    return m


def as_sym_matrix(a) -> np.ndarray:
    """Validate a square symmetric matrix and return a symmetrized copy.

    Asymmetry beyond SYMMETRY_RTOL (relative to the largest entry) is an
    error; smaller round-off asymmetry is silently symmetrized so that
    downstream code sees entries[i][j] == entries[j][i] exactly.
    """
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {m.shape}")
    scale = max(1.0, float(np.abs(m).max()))
    if float(np.abs(m - m.T).max()) > SYMMETRY_RTOL * scale:
        raise InvalidInputError("matrix is not symmetric")
    return (m + m.T) / 2.0


def eig_sym(a) -> EigDecomposition:
    """Eigendecomposition of a symmetric matrix, eigenvalues ascending.

    Guarantees (checked by the tests): V^T V = I within 1e-10 and
    M v_k = lambda_k v_k within 1e-9 * ||M||.
    """
    m = as_sym_matrix(a)
    if m.shape[0] > MAX_ORDER:
        raise CapacityError(f"order {m.shape[0]} exceeds the {MAX_ORDER} envelope")
    w, v = np.linalg.eigh(m)
    return EigDecomposition(w, v)


def max_eig(a) -> float:
    """Largest eigenvalue of a symmetric matrix."""
    return float(eig_sym(a).eigenvalues[-1])


def svd(a) -> SvdDecomposition:
    """Thin singular value decomposition A = U diag(s) V^T.

    Singular values are non-negative and descending; U and V have
    orthonormal columns; the reconstruction holds within 1e-9 * ||A||.
    """
    m = as_matrix(a)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    return SvdDecomposition(u, s, vh.T)


def project_psd(a) -> np.ndarray:
    """Frobenius-nearest positive semidefinite matrix.

    Negative eigenvalues are clipped to zero; the result is symmetric,
    PSD (min eigenvalue >= -1e-10) and idempotent within 1e-10.
    """
    m = as_sym_matrix(a)
    if m.shape[0] > MAX_ORDER:
        raise CapacityError(f"order {m.shape[0]} exceeds the {MAX_ORDER} envelope")
    return _psd_part(m)


def _psd_part(m: np.ndarray) -> np.ndarray:
    """project_psd without its input checks, for a finite symmetric matrix
    of order at most MAX_ORDER that the caller has already validated."""
    w, v = np.linalg.eigh(m)
    if w[0] >= 0.0:
        return m
    x = (v * np.clip(w, 0.0, None)) @ v.T
    return (x + x.T) / 2.0

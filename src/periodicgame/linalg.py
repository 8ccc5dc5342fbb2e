"""Dense linear algebra for tiny matrices (n <= 8): finite-difference
Jacobians, characteristic-polynomial values, and eigenvalues.

Eigenvalues come from LAPACK through ``np.linalg.eigvals``;
``char_poly_eval`` (the LAPACK determinant of M - lam I, through
``np.linalg.det``) is the independent cross-check on any claimed
eigenvalue: it factors the matrix instead of iterating to its spectrum.
"""

from __future__ import annotations

import math

import numpy as np

from .dynamics import require_step_size
from .errors import InputError, NumericalError

MAX_EIG_DIM = 8
_FD_STEP = 1e-6


def jacobian_fd(func, point) -> np.ndarray:
    """Central finite-difference Jacobian; column j probes point +- _FD_STEP e_j."""
    x = np.asarray(point, dtype=np.float64)
    if x.ndim != 1:
        raise InputError("point must be a vector")
    n = x.size
    jac = np.empty((n, n))
    for j in range(n):
        step = np.zeros(n)
        step[j] = _FD_STEP
        hi = np.asarray(func(x + step), dtype=np.float64)
        lo = np.asarray(func(x - step), dtype=np.float64)
        if hi.shape != (n,) or lo.shape != (n,):
            raise InputError("map must return a vector of the same dimension")
        jac[:, j] = (hi - lo) / (2.0 * _FD_STEP)
    return jac


def _check_square(M) -> np.ndarray:
    a = np.asarray(M)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError(f"matrix must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InputError("matrix entries must be finite")
    return a


def char_poly_eval(M, lam: complex) -> complex:
    """det(M - lam I) from LAPACK's partial-pivot LU (``np.linalg.det``)."""
    m = _check_square(M)
    return complex(np.linalg.det(m.astype(np.complex128) - complex(lam) * np.eye(m.shape[0])))


def eigenvalues_small(M) -> np.ndarray:
    """All eigenvalues of a small matrix (LAPACK), sorted by modulus
    descending, then by real and imaginary part descending."""
    a = _check_square(M)
    if a.shape[0] > MAX_EIG_DIM:
        raise InputError(f"eigenvalues_small handles n <= {MAX_EIG_DIM}")
    roots = np.linalg.eigvals(a).astype(np.complex128)
    order = np.lexsort((roots.imag, roots.real, np.abs(roots)))[::-1]
    return roots[order]


def unit_eigenvector(M) -> np.ndarray:
    """Eigenvector for an eigenvalue near 1 by one inverse-iteration solve of
    (M - (1 + 1e-9) I) v = e_last, normalized to unit length."""
    a = _check_square(M).astype(np.float64)
    n = a.shape[0]
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    try:
        v = np.linalg.solve(a - (1.0 + 1e-9) * np.eye(n), rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"inverse iteration solve failed: {exc}") from exc
    norm = np.linalg.norm(v)
    if norm == 0 or not np.isfinite(norm):
        raise NumericalError("inverse iteration produced a degenerate vector")
    return v / norm


def interior_eigenvalue_pair(eta: float) -> tuple:
    """The two analytic eigenvalue branches of the composed reduced map's
    Jacobian at the interior equilibrium (each has multiplicity two)."""
    require_step_size(eta)
    root = math.sqrt((eta * eta + eta + 1.0) * (eta * eta - eta + 1.0))
    base = eta * eta / 2.0 + 0.5
    return base - root / 2.0, base + root / 2.0


def boundary_eigenvalue(a: float, eta: float) -> float:
    """The nontrivial analytic eigenvalue modulus of the composed reduced
    map's Jacobian on the boundary fixed-point curve."""
    require_step_size(eta)
    e3 = math.exp(3.0 * eta)
    return math.exp(-2.0 * eta * a * (1.0 - a) * (e3 - 1.0) / (a + (1.0 - a) * e3))

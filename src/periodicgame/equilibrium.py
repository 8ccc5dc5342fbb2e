"""Solve, verify, and construct equilibria of bilinear zero-sum games.

Desk scale only (m, n <= 6): a full-support linear solve first, then
support enumeration over square support pairs in lexicographic order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InputError, NumericalError
from .simplex import JointState, PayoffMatrix, PeriodicGame, Simplex

DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class EquilibriumResult:
    x_star: Simplex
    y_star: Simplex
    value: float
    gap: float
    fully_mixed: bool

    @property
    def joint(self) -> JointState:
        return JointState(self.x_star, self.y_star)


def verify_equilibrium(A: PayoffMatrix, x: Simplex, y: Simplex,
                       tol: float = DEFAULT_TOL):
    """Best-response gap certificate.

    gap = max over pure deviations of either player's improvement; the row
    player maximizes x^T A y, the column player minimizes.
    """
    if len(x) != A.m or len(y) != A.n:
        raise InputError(
            f"strategy dimensions ({len(x)}, {len(y)}) do not match matrix {A.entries.shape}"
        )
    a = A.entries
    px, py = x.probabilities, y.probabilities
    v = float(px @ a @ py)
    gap = max(float((a @ py).max()) - v, v - float((a.T @ px).min()), 0.0)
    return gap <= tol, gap


def _equalizing_pair(sub: np.ndarray):
    """Solve A y = v 1, 1^T y = 1 and the transposed system on a square
    support block.  Returns (x, y, v) or None when the block is singular."""
    k = sub.shape[0]
    m = np.zeros((k + 1, k + 1))
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    m[:k, :k] = sub
    m[:k, k] = -1.0
    m[k, :k] = 1.0
    try:
        sol = np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError:
        return None
    y, v_row = sol[:k], sol[k]
    m[:k, :k] = sub.T
    try:
        sol = np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError:
        return None
    x, v_col = sol[:k], sol[k]
    return x, y, v_row, v_col


def _clip_probs(p: np.ndarray, tol: float) -> Optional[np.ndarray]:
    if p.min() < -tol:
        return None
    q = np.clip(p, 0.0, None)
    total = q.sum()
    if total <= 0:
        return None
    return q / total


def solve_zero_sum(A: PayoffMatrix) -> EquilibriumResult:
    """Find an equilibrium of a small zero-sum game.

    Tries the fully-mixed linear solve first (the common case here); falls
    back to support enumeration, smallest square supports first, returning
    the first pair that verifies (gap at most ``DEFAULT_TOL``).
    """
    if A.m > 6 or A.n > 6:
        raise InputError("solver is desk-scale only (m, n <= 6)")
    a = A.entries

    if A.m == A.n:
        full = _equalizing_pair(a)
        if full is not None:
            x, y, _, _ = full
            xc, yc = _clip_probs(x, DEFAULT_TOL), _clip_probs(y, DEFAULT_TOL)
            if xc is not None and yc is not None:
                res = _build_result(A, xc, yc)
                if res is not None:
                    return res

    for k in range(1, min(A.m, A.n) + 1):
        for rows in itertools.combinations(range(A.m), k):
            for cols in itertools.combinations(range(A.n), k):
                sub = a[np.ix_(rows, cols)]
                pair = _equalizing_pair(sub)
                if pair is None:
                    continue
                xs, ys, _, _ = pair
                xc, yc = _clip_probs(xs, 1e-9), _clip_probs(ys, 1e-9)
                if xc is None or yc is None:
                    continue
                x = np.zeros(A.m)
                y = np.zeros(A.n)
                x[list(rows)] = xc
                y[list(cols)] = yc
                res = _build_result(A, x, y)
                if res is not None:
                    return res
    raise NumericalError("support enumeration found no verifiable equilibrium")


def _build_result(A: PayoffMatrix, x: np.ndarray, y: np.ndarray) -> Optional[EquilibriumResult]:
    xs, ys = Simplex.from_probabilities(x), Simplex.from_probabilities(y)
    ok, gap = verify_equilibrium(A, xs, ys)
    if not ok:
        return None
    value = float(x @ A.entries @ y)
    fully_mixed = bool(x.min() > 0 and y.min() > 0)
    return EquilibriumResult(xs, ys, value, gap, fully_mixed)


def common_equilibrium(game: PeriodicGame) -> Optional[EquilibriumResult]:
    """An equilibrium of matrices[0] that verifies against every matrix in
    the schedule, or None when the schedule has no such point."""
    res = solve_zero_sum(game.matrices[0])
    worst = res.gap
    for a in game.matrices:
        ok, gap = verify_equilibrium(a, res.x_star, res.y_star)
        if not ok:
            return None
        worst = max(worst, gap)
    return EquilibriumResult(res.x_star, res.y_star, res.value, worst, res.fully_mixed)


def full_support_values(A: PayoffMatrix):
    """Game values from the y-system and the x-system of the fully mixed
    solve (None when the system is singular).  Useful as a duality check."""
    if A.m != A.n:
        raise InputError("full-support solve needs a square matrix")
    pair = _equalizing_pair(A.entries)
    if pair is None:
        return None
    _, _, v_row, v_col = pair
    return float(v_row), float(v_col)


def generate_common_equilibrium_game(x_star: Simplex, y_star: Simplex,
                                     B: PayoffMatrix) -> PayoffMatrix:
    """Project a seed matrix so that (x*, y*) becomes an exact interior
    equilibrium of value 0: A y* = 0 and x*^T A = 0 by construction."""
    px, py = x_star.probabilities, y_star.probabilities
    if px.min() <= 0 or py.min() <= 0:
        raise InputError("x_star and y_star must be interior")
    b = B.entries
    if b.shape != (px.size, py.size):
        raise InputError("seed matrix shape does not match the target equilibrium")
    row_avg = px @ b          # (n,)
    col_avg = b @ py          # (m,)
    total = float(px @ b @ py)
    a = b - row_avg[None, :] - col_avg[:, None] + total
    return PayoffMatrix(a)

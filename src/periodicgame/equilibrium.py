"""Solve, verify, and construct equilibria of bilinear zero-sum games.

Desk scale only (m, n <= 6): support enumeration over square support
pairs, the full support of a square game first.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InputError, NumericalError
from .simplex import JointState, PayoffMatrix, PeriodicGame, Simplex

DEFAULT_TOL = 1e-10
# Solved probabilities down to -_CLIP_TOL are rounding noise and clip to 0.
_CLIP_TOL = 1e-9


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


def _clip_probs(p: np.ndarray) -> Optional[np.ndarray]:
    if p.min() < -_CLIP_TOL:
        return None
    q = np.clip(p, 0.0, None)
    total = q.sum()
    if total <= 0:
        return None
    return q / total


def solve_zero_sum(A: PayoffMatrix) -> EquilibriumResult:
    """Find an equilibrium of a small zero-sum game.

    Support enumeration over square supports: for a square game the fully
    mixed solve first (the common case here), then smallest supports first,
    returning the first pair that verifies (gap at most ``DEFAULT_TOL``).
    """
    if A.m > 6 or A.n > 6:
        raise InputError("solver is desk-scale only (m, n <= 6)")
    a = A.entries
    sizes = list(range(1, min(A.m, A.n) + 1))
    if A.m == A.n:
        sizes.insert(0, sizes.pop())
    for k in sizes:
        for rows in itertools.combinations(range(A.m), k):
            for cols in itertools.combinations(range(A.n), k):
                pair = _equalizing_pair(a[np.ix_(rows, cols)])
                if pair is None:
                    continue
                xs, ys, _, _ = pair
                xc, yc = _clip_probs(xs), _clip_probs(ys)
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


def _equalizer(mats: np.ndarray) -> Optional[np.ndarray]:
    """A point y of the simplex with A_t y = v_t 1 for every matrix of the
    (T, m, n) stack, each v_t free, so that every row is a best response to
    y in every A_t; None when there is none.

    Least squares on the full support first, then on ever smaller column
    supports: when the solutions form a line or plane, its least-squares
    point can leave the simplex while one of its vertices stays inside.
    """
    periods, m, n = mats.shape
    lhs = np.zeros((periods * m + 1, n + periods))
    lhs[:-1, :n] = mats.reshape(periods * m, n)
    lhs[:-1, n:] = -np.repeat(np.eye(periods), m, axis=0)
    lhs[-1, :n] = 1.0
    rhs = np.zeros(periods * m + 1)
    rhs[-1] = 1.0
    for k in range(n, 0, -1):
        for cols in itertools.combinations(range(n), k):
            sol = np.linalg.lstsq(lhs[:, [*cols, *range(n, n + periods)]], rhs, rcond=None)[0]
            yc = _clip_probs(sol[:k])
            if yc is None:
                continue
            y = np.zeros(n)
            y[list(cols)] = yc
            payoffs = mats @ y
            if (payoffs.max(axis=1) - payoffs.min(axis=1)).max() <= DEFAULT_TOL:
                return y
    return None


def _on_every_matrix(game: PeriodicGame,
                     res: Optional[EquilibriumResult]) -> Optional[EquilibriumResult]:
    # res with its gap raised to the worst over the schedule, or None when
    # res is None or fails to verify on some matrix.
    if res is None:
        return None
    worst = res.gap
    for a in game.matrices:
        ok, gap = verify_equilibrium(a, res.x_star, res.y_star)
        if not ok:
            return None
        worst = max(worst, gap)
    return EquilibriumResult(res.x_star, res.y_star, res.value, worst, res.fully_mixed)


def common_equilibrium(game: PeriodicGame) -> Optional[EquilibriumResult]:
    """An equilibrium that verifies against every matrix in the schedule, or
    None when none is found.

    The first candidate is ``solve_zero_sum(matrices[0])``.  When a
    continuum of equilibria lets that point miss the other matrices, the
    second solves every matrix's equalizing equations at once, for x and
    for y.
    """
    common = _on_every_matrix(game, solve_zero_sum(game.matrices[0]))
    if common is not None:
        return common
    stack = game.stacked()
    x, y = _equalizer(stack.transpose(0, 2, 1)), _equalizer(stack)
    if x is None or y is None:
        return None
    return _on_every_matrix(game, _build_result(game.matrices[0], x, y))


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

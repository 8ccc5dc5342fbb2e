"""Solve, verify, and construct equilibria of bilinear zero-sum games.

Desk scale only (m, n <= 6): support enumeration over square support
pairs, the full support of a square game first.  The blocks of one support
size are solved as one stack, less any exactly singular block; the
candidates are clipped and placed on their supports once, a vectorised
best-response gap screens them, and the exact certificate
(``verify_equilibrium``) decides.
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


def _solve_stack(systems: np.ndarray, rhs: np.ndarray):
    """Solve a (B, k+1, k+1) stack against a (B, k+1, 1) right-hand side
    in one LAPACK call.  When LAPACK refuses the stack, a stacked
    ``slogdet`` marks the blocks whose LU factorization meets an exactly
    zero pivot (sign 0, the blocks ``solve`` refuses), and the others are
    solved as one smaller stack.  Returns the (B, k+1) solutions and a mask
    of the blocks that solved (rows outside the mask are zero)."""
    try:
        return np.linalg.solve(systems, rhs)[..., 0], np.ones(len(systems), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    solved = np.linalg.slogdet(systems)[0] != 0
    sol = np.zeros(rhs.shape[:2])
    sol[solved] = np.linalg.solve(systems[solved], rhs[solved])[..., 0]
    return sol, solved


def _equalizing_pair(blocks: np.ndarray):
    """Solve A y = v 1, 1^T y = 1 and the transposed system on every
    square block of a (B, k, k) stack.  Returns (x, y, v_row, v_col,
    solved): (B, k) candidates, (B,) values and the mask of the blocks
    whose two systems are both nonsingular."""
    count, k, _ = blocks.shape
    systems = np.zeros((count, k + 1, k + 1))
    systems[:, :k, k] = -1.0
    systems[:, k, :k] = 1.0
    rhs = np.zeros((count, k + 1, 1))
    rhs[:, k] = 1.0
    systems[:, :k, :k] = blocks
    sol_y, solved_y = _solve_stack(systems, rhs)
    systems[:, :k, :k] = blocks.transpose(0, 2, 1)
    sol_x, solved_x = _solve_stack(systems, rhs)
    return sol_x[:, :k], sol_y[:, :k], sol_y[:, k], sol_x[:, k], solved_x & solved_y


def _clipped_rows(p: np.ndarray) -> np.ndarray:
    # Mask of the rows of p that are probabilities up to rounding: no entry
    # below -_CLIP_TOL and a positive clipped total (a maximum above 0).  A
    # NaN row passes, and the certificate raises on it.
    return ~(p.min(axis=1) < -_CLIP_TOL) & ~(p.max(axis=1) <= 0)


def _scatter(p: np.ndarray, support: np.ndarray, size: int) -> np.ndarray:
    # Clip and normalise each row of p and place it on its support.
    q = np.maximum(p, 0.0)
    out = np.zeros((len(p), size))
    out[np.arange(len(p))[:, None], support] = q / q.sum(axis=1, keepdims=True)
    return out


def _screen(a: np.ndarray, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Mask of the candidate rows of px, py worth the exact certificate:
    best-response gap at most ``DEFAULT_TOL + 1e-6 * max(1, max|A|)``,
    computed for all of them at once.  A NaN gap (from an overflowing
    solve) passes, so that the exact path raises on it as before."""
    bound = DEFAULT_TOL + 1e-6 * max(1.0, float(np.abs(a).max()))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        ay = py @ a.T
        v = (px * ay).sum(axis=1)
        gap = np.maximum(ay.max(axis=1) - v, v - (px @ a).min(axis=1))
    return ~(gap > bound)


def solve_zero_sum(A: PayoffMatrix) -> EquilibriumResult:
    """Find an equilibrium of a small zero-sum game.

    Support enumeration over square supports: for a square game the fully
    mixed solve first (the common case here), then smallest supports first,
    with the support pairs of one size in ``itertools.combinations`` order
    (rows outer, columns inner).  All blocks of one size are solved in one
    stacked call; when more than one candidate survives clipping, a
    vectorised best-response gap with slack ``1e-6 * max(1, max|A|)``
    screens them.  The rest go, in order, to the exact certificate, and the
    first pair that verifies (gap at most ``DEFAULT_TOL``) is returned.
    """
    if A.m > 6 or A.n > 6:
        raise InputError("solver is desk-scale only (m, n <= 6)")
    a = A.entries
    sizes = list(range(1, min(A.m, A.n) + 1))
    if A.m == A.n:
        sizes.insert(0, sizes.pop())
    for k in sizes:
        row_sets = np.array(list(itertools.combinations(range(A.m), k)))
        col_sets = np.array(list(itertools.combinations(range(A.n), k)))
        rows = np.repeat(row_sets, len(col_sets), axis=0)
        cols = np.tile(col_sets, (len(row_sets), 1))
        xs, ys, _, _, solved = _equalizing_pair(a[rows[:, :, None], cols[:, None, :]])
        live = np.flatnonzero(solved & _clipped_rows(xs) & _clipped_rows(ys))
        px = _scatter(xs[live], rows[live], A.m)
        py = _scatter(ys[live], cols[live], A.n)
        # Screening a lone candidate costs about as much as the one exact
        # check it could save.
        if live.size > 1:
            keep = _screen(a, px, py)
            px, py = px[keep], py[keep]
        for x, y in zip(px, py):
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
            cand = sol[None, :k]
            if not _clipped_rows(cand)[0]:
                continue
            y = _scatter(cand, np.array([cols]), n)[0]
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
    _, _, v_row, v_col, solved = _equalizing_pair(A.entries[None])
    if not solved[0]:
        return None
    return float(v_row[0]), float(v_col[0])


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

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import periodicgame as pg
from conftest import generated_periodic_game

from periodicgame.equilibrium import DEFAULT_TOL, full_support_values

# Full-support solve of the second exp1 matrix, done by hand:
# y from A y = v 1 and x from A^T x = v 1 with unit sums gives v = 3/8.
EXP1_ODD = [[0.0, 0.25, 0.75], [1.5, 0.0, 0.0], [0.0, 1.0, 0.0]]
EXP1_X = (0.5, 0.25, 0.25)
EXP1_Y = (0.25, 0.375, 0.375)


def brute_force_gap(a, x, y):
    """Best pure-deviation improvement for either player."""
    a = np.asarray(a, float)
    v = x @ a @ y
    best_row = max((a[i] @ y) - v for i in range(a.shape[0]))
    best_col = max(v - (x @ a[:, j]) for j in range(a.shape[1]))
    return max(best_row, best_col, 0.0)


class TestVerifyEquilibrium:
    def test_matching_pennies_center(self):
        a = pg.PayoffMatrix([[0.0, 1.0], [1.0, 0.0]])
        x = pg.Simplex.from_probabilities([0.5, 0.5])
        ok, gap = pg.verify_equilibrium(a, x, x)
        assert ok and gap == 0.0

    def test_pure_profile_gap(self):
        a = pg.PayoffMatrix([[0.0, 1.0], [1.0, 0.0]])
        e1 = pg.Simplex.from_probabilities([1.0, 0.0])
        half = pg.Simplex.from_probabilities([0.5, 0.5])
        # Against x = (1,0) the minimizer improves by moving all mass to
        # column 1, so this profile is half a unit away from equilibrium.
        ok, gap = pg.verify_equilibrium(a, e1, half)
        assert not ok and gap == pytest.approx(0.5)
        assert gap == pytest.approx(brute_force_gap(a.entries, [1.0, 0.0], [0.5, 0.5]))
        ok, gap = pg.verify_equilibrium(a, e1, e1)
        assert not ok and gap == pytest.approx(1.0)

    def test_agrees_with_brute_force(self, rps):
        rng = np.random.default_rng(11)
        for _ in range(100):
            a = rng.normal(size=(3, 4))
            x = rng.dirichlet(np.ones(3))
            y = rng.dirichlet(np.ones(4))
            _, gap = pg.verify_equilibrium(
                pg.PayoffMatrix(a),
                pg.Simplex.from_probabilities(x),
                pg.Simplex.from_probabilities(y))
            assert gap == pytest.approx(brute_force_gap(a, x, y), abs=1e-12)


class TestSolveZeroSum:
    def test_matching_variant(self):
        res = pg.solve_zero_sum(pg.PayoffMatrix([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(res.x_star.probabilities, [0.5, 0.5], atol=1e-12)
        assert np.allclose(res.y_star.probabilities, [0.5, 0.5], atol=1e-12)
        assert res.value == pytest.approx(0.5, abs=1e-12)
        assert res.fully_mixed

    def test_rock_paper_scissors(self, rps):
        res = pg.solve_zero_sum(rps)
        assert np.abs(res.x_star.probabilities - 1 / 3).max() <= 1e-12
        assert np.abs(res.y_star.probabilities - 1 / 3).max() <= 1e-12
        assert abs(res.value) <= 1e-12

    def test_exp1_matrix_hand_solution(self):
        res = pg.solve_zero_sum(pg.PayoffMatrix(EXP1_ODD))
        assert np.abs(res.x_star.probabilities - EXP1_X).max() <= 1e-12
        assert np.abs(res.y_star.probabilities - EXP1_Y).max() <= 1e-12
        assert res.value == pytest.approx(0.375, abs=1e-12)

    def test_pure_equilibrium_game(self):
        # saddle point at (row 1, col 0): row minimum that is a column maximum
        a = pg.PayoffMatrix([[0.0, 3.0], [2.0, 4.0]])
        res = pg.solve_zero_sum(a)
        assert res.gap <= 1e-10
        assert np.allclose(res.x_star.probabilities, [0.0, 1.0], atol=1e-12)
        assert np.allclose(res.y_star.probabilities, [1.0, 0.0], atol=1e-12)
        assert res.value == pytest.approx(2.0)
        assert not res.fully_mixed

    def test_random_games_verify(self):
        rng = np.random.default_rng(12)
        for k in range(100):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(2, 5))
            a = pg.PayoffMatrix(rng.normal(size=(m, n)))
            res = pg.solve_zero_sum(a)
            ok, gap = pg.verify_equilibrium(a, res.x_star, res.y_star, tol=1e-8)
            assert ok, f"game {k}: gap {gap}"

    def test_duality_on_full_support_solves(self):
        rng = np.random.default_rng(13)
        seen = 0
        for _ in range(100):
            a = pg.PayoffMatrix(rng.normal(size=(3, 3)))
            vals = full_support_values(a)
            if vals is None:
                continue
            seen += 1
            assert abs(vals[0] - vals[1]) <= 1e-10
        assert seen > 50

    def test_desk_scale_guard(self):
        with pytest.raises(pg.InputError):
            pg.solve_zero_sum(pg.PayoffMatrix(np.zeros((7, 7))))


def per_block_solve(A):
    """The solver's support enumeration written one block at a time: two
    ``np.linalg.solve`` calls per square support pair, clipping at 1e-9 and
    the exact certificate on every surviving candidate, in the same order.
    The oracle for the stacked solver, which must agree with it bit for bit."""
    a = A.entries
    sizes = list(range(1, min(A.m, A.n) + 1))
    if A.m == A.n:
        sizes.insert(0, sizes.pop())

    def equalize(sub):
        k = sub.shape[0]
        system = np.zeros((k + 1, k + 1))
        rhs = np.zeros(k + 1)
        rhs[k] = 1.0
        system[:k, k] = -1.0
        system[k, :k] = 1.0
        system[:k, :k] = sub
        y = np.linalg.solve(system, rhs)[:k]
        system[:k, :k] = sub.T
        return np.linalg.solve(system, rhs)[:k], y

    def clip(p):
        if p.min() < -1e-9:
            return None
        q = np.clip(p, 0.0, None)
        total = q.sum()
        return None if total <= 0 else q / total

    for k in sizes:
        for rows in itertools.combinations(range(A.m), k):
            for cols in itertools.combinations(range(A.n), k):
                try:
                    xs, ys = equalize(a[np.ix_(rows, cols)])
                except np.linalg.LinAlgError:
                    continue
                xc, yc = clip(xs), clip(ys)
                if xc is None or yc is None:
                    continue
                x, y = np.zeros(A.m), np.zeros(A.n)
                x[list(rows)] = xc
                y[list(cols)] = yc
                sx, sy = pg.Simplex.from_probabilities(x), pg.Simplex.from_probabilities(y)
                ok, gap = pg.verify_equilibrium(A, sx, sy)
                if ok:
                    return pg.EquilibriumResult(sx, sy, float(x @ a @ y), gap,
                                                bool(x.min() > 0 and y.min() > 0))
    raise pg.NumericalError("support enumeration found no verifiable equilibrium")


PARITY_KINDS = ["normal", "ternary", "tenths", "large", "small", "huge", "generated"]


def parity_matrix(rng, kind):
    m, n = (int(v) for v in rng.integers(2, 7, size=2))
    if rng.random() < 0.4:
        n = m
    a = rng.normal(size=(m, n))
    if kind == "ternary":
        return rng.integers(-1, 2, size=(m, n)).astype(float)
    if kind == "tenths":
        return np.round(a, 1)
    if kind == "large":
        return a * 1e6
    if kind == "small":
        return a * 1e-6
    if kind == "huge":  # overflowing solves give non-finite candidates
        return a * 1e307
    if kind == "generated":
        x, y = rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(n))
        return pg.generate_common_equilibrium_game(
            pg.Simplex.from_probabilities(x), pg.Simplex.from_probabilities(y),
            pg.PayoffMatrix(a)).entries
    return a


def outcome(solve, A):
    try:
        res = solve(A)
    except (pg.InputError, pg.NumericalError) as exc:
        return type(exc)
    return (res.x_star.log_weights.tobytes(), res.y_star.log_weights.tobytes(),
            res.value, res.gap, res.fully_mixed)


@pytest.fixture
def linalg_calls(monkeypatch):
    """Arm with ``arm()``; afterwards every ``np.linalg.solve`` call logs
    ("solve", ndim of the system) and every ``np.linalg.slogdet`` call logs
    ("slogdet", number of zero signs)."""
    solve, slogdet, log = np.linalg.solve, np.linalg.slogdet, []

    def logged_solve(a, b):
        log.append(("solve", a.ndim))
        return solve(a, b)

    def logged_slogdet(a):
        sign, logdet = slogdet(a)
        log.append(("slogdet", int(np.count_nonzero(sign == 0))))
        return sign, logdet

    def arm():
        monkeypatch.setattr(np.linalg, "solve", logged_solve)
        monkeypatch.setattr(np.linalg, "slogdet", logged_slogdet)
        return log

    return arm


def assert_singular_blocks_masked(log):
    # Every solve is stacked (3-d), and some stack met an exactly singular
    # block, which the slogdet mask found.
    assert all(ndim == 3 for kind, ndim in log if kind == "solve")
    assert any(kind == "slogdet" and zeros > 0 for kind, zeros in log)


class TestStackedSolverParity:
    @pytest.mark.parametrize("kind", PARITY_KINDS)
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_bitwise_equal_to_per_block_enumeration(self, kind, linalg_calls):
        # 60 matrices of one kind, 2x2 to 6x6, square and not.
        rng = np.random.default_rng(PARITY_KINDS.index(kind) + 40)
        mats = [pg.PayoffMatrix(parity_matrix(rng, kind)) for _ in range(60)]
        expected = [outcome(per_block_solve, a) for a in mats]
        log = linalg_calls()
        got = [outcome(pg.solve_zero_sum, a) for a in mats]
        for a, want, have in zip(mats, expected, got):
            assert have == want, a.entries
        assert not all(isinstance(e, type) for e in expected)
        if kind == "ternary":
            assert_singular_blocks_masked(log)
        if kind == "huge":
            assert pg.InputError in expected

    def test_singular_blocks_are_masked_out(self, rps, linalg_calls):
        # A duplicated strategy makes every block holding both copies
        # singular; the slogdet mask drops those blocks from the stack.
        a = pg.PayoffMatrix(np.vstack([rps.entries, rps.entries[:1]]))
        expected = outcome(per_block_solve, a)
        log = linalg_calls()
        assert outcome(pg.solve_zero_sum, a) == expected
        assert_singular_blocks_masked(log)


class TestCommonEquilibrium:
    def test_alternating_game(self, game2x2):
        res = pg.common_equilibrium(game2x2)
        assert res is not None and res.fully_mixed
        assert np.allclose(res.x_star.probabilities, [0.5, 0.5], atol=1e-12)
        assert np.allclose(res.y_star.probabilities, [0.5, 0.5], atol=1e-12)

    def test_exp1_and_exp2(self):
        res = pg.common_equilibrium(pg.experiment_by_name("exp1").game)
        assert res is not None
        assert np.abs(res.x_star.probabilities - EXP1_X).max() <= 1e-10
        assert np.abs(res.y_star.probabilities - EXP1_Y).max() <= 1e-10

        res = pg.common_equilibrium(pg.experiment_by_name("exp2").game)
        assert res is not None
        assert np.abs(res.x_star.probabilities - 1 / 3).max() <= 1e-10
        assert np.abs(res.y_star.probabilities - 1 / 3).max() <= 1e-10

    def test_nocommon3_has_none(self):
        assert pg.common_equilibrium(pg.experiment_by_name("nocommon3").game) is None

    def test_generated_schedule(self):
        rng = np.random.default_rng(14)
        game, eq = generated_periodic_game(rng, 3, 3, 3)
        res = pg.common_equilibrium(game)
        assert res is not None and res.fully_mixed
        assert res.joint.max_norm_distance(eq) <= 1e-9

    @settings(max_examples=80, deadline=None)
    @given(m=st.integers(2, 6), n=st.integers(2, 6), period=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_found_on_generated_schedules(self, m, n, period, seed):
        # Non-square schedules have a continuum of equilibria in matrices[0],
        # so the solver's point for it alone may miss the other matrices.
        game, _ = generated_periodic_game(np.random.default_rng(seed), m, n, period)
        res = pg.common_equilibrium(game)
        assert res is not None and res.gap <= DEFAULT_TOL
        for a in game.matrices:
            assert pg.verify_equilibrium(a, res.x_star, res.y_star)[0]


class TestGenerator:
    def test_zero_seed_gives_zero_game(self):
        x = pg.Simplex.from_probabilities([0.5, 0.5])
        y = pg.Simplex.from_probabilities([0.25, 0.75])
        a = pg.generate_common_equilibrium_game(x, y, pg.PayoffMatrix(np.zeros((2, 2))))
        assert not a.entries.any()

    def test_exact_equalization(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(2, 5))
            x = pg.Simplex.from_probabilities(rng.dirichlet(np.ones(m) * 3))
            y = pg.Simplex.from_probabilities(rng.dirichlet(np.ones(n) * 3))
            a = pg.generate_common_equilibrium_game(
                x, y, pg.PayoffMatrix(rng.normal(size=(m, n))))
            assert np.abs(a.entries @ y.probabilities).max() <= 1e-12
            assert np.abs(x.probabilities @ a.entries).max() <= 1e-12
            ok, gap = pg.verify_equilibrium(a, x, y, tol=1e-12)
            assert ok, gap

    def test_specific_3x3_case(self):
        rng = np.random.default_rng(16)
        x = pg.Simplex.from_probabilities([0.2, 0.3, 0.5])
        y = pg.Simplex.from_probabilities([0.25, 0.375, 0.375])
        a = pg.generate_common_equilibrium_game(
            x, y, pg.PayoffMatrix(rng.normal(size=(3, 3))))
        _, gap = pg.verify_equilibrium(a, x, y)
        assert gap <= 1e-12

    def test_boundary_target_rejected(self):
        x = pg.Simplex.from_probabilities([1.0, 0.0])
        y = pg.Simplex.from_probabilities([0.5, 0.5])
        with pytest.raises(pg.InputError):
            pg.generate_common_equilibrium_game(x, y, pg.PayoffMatrix(np.zeros((2, 2))))

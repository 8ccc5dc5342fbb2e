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

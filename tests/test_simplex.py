import math

import numpy as np
import pytest

import periodicgame as pg
from periodicgame.simplex import LOG_ZERO

# 0.5*ln(4/3) to 50 digits (offline extended-precision evaluation)
KL_QUARTER_THREEQ = 0.14384103622589046371960950299691371575175485544888


def joint(p1, p2):
    return pg.JointState.from_probabilities(p1, p2)


class TestSimplex:
    def test_softmax_normalization(self):
        s = pg.Simplex([0.0, 0.0])
        assert np.allclose(s.probabilities, [0.5, 0.5])
        assert abs(s.probabilities.sum() - 1.0) < 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            w = rng.uniform(-2.0, 2.0, size=4)
            c = rng.choice([-1.5, 0.25, 2.0])
            a = pg.normalize_log_weights(w)
            b = pg.normalize_log_weights(w + c)
            assert np.abs(a.log_weights - b.log_weights).max() <= 1e-15

    def test_shift_invariance_exact_probabilities(self):
        # When w + c carries no rounding at all, softmax sees the exact same
        # differences and the probabilities are bit-equal.
        rng = np.random.default_rng(10)
        for _ in range(100):
            w = rng.integers(-2000, 2000, size=3) / 1024.0
            a = pg.Simplex(w).probabilities
            b = pg.Simplex(w + 3.0).probabilities
            assert np.array_equal(a, b)

    def test_overflow_safe(self):
        s = pg.normalize_log_weights([1000.0, 1000.0 + math.log(3.0)])
        assert np.allclose(s.probabilities, [0.25, 0.75], atol=1e-15)

    def test_constant_weights_uniform(self):
        for c in (-7.0, 0.0, 123.456):
            s = pg.normalize_log_weights([c, c, c])
            assert np.allclose(s.probabilities, [1 / 3] * 3, atol=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            p = rng.dirichlet(np.ones(5))
            s = pg.Simplex.from_probabilities(p)
            back = pg.Simplex.from_probabilities(s.probabilities)
            assert np.abs(back.probabilities - p).max() <= 1e-14

    def test_boundary_weights_allowed(self):
        s = pg.Simplex([0.0, -np.inf])
        assert np.allclose(s.probabilities, [1.0, 0.0])

    def test_rejects_bad_input(self):
        with pytest.raises(pg.InputError):
            pg.Simplex([1.0])
        with pytest.raises(pg.InputError):
            pg.Simplex([-np.inf, -np.inf])
        with pytest.raises(pg.InputError):
            pg.Simplex([0.0, np.nan])
        with pytest.raises(pg.InputError):
            pg.Simplex.from_probabilities([0.6, 0.6])

    def test_sum_error_prints_a_plain_number(self):
        with pytest.raises(pg.InputError, match=r"must sum to 1, got 0\.4$"):
            pg.Simplex.from_probabilities(np.array([0.2, 0.2]))


class TestKlDivergence:
    def test_identity_is_zero(self):
        p = joint([0.5, 0.5], [0.5, 0.5])
        assert pg.kl_divergence(p, p) == 0.0

    def test_boundary_gives_inf(self):
        p = joint([0.5, 0.5], [0.5, 0.5])
        q = pg.JointState(pg.Simplex([0.0, -np.inf]), pg.Simplex([0.0, 0.0]))
        assert pg.kl_divergence(p, q) == math.inf

    def test_scalar_example(self):
        p = joint([0.5, 0.5], [0.5, 0.5])
        q = joint([0.25, 0.75], [0.5, 0.5])
        assert pg.kl_divergence(p, q) == pytest.approx(KL_QUARTER_THREEQ, abs=1e-14)

    def test_positive_off_diagonal(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            p = joint(rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(4)))
            q = joint(rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(4)))
            assert pg.kl_divergence(p, q) >= 0.0
            assert pg.kl_divergence(p, p) == 0.0
        assert pg.kl_divergence(p, q) > 0.0

    def test_zero_reference_mass_ignored(self):
        p = pg.JointState(pg.Simplex([0.0, -np.inf]), pg.Simplex([0.0, 0.0]))
        q = joint([0.5, 0.5], [0.5, 0.5])
        # 0 * ln(0/0.5) contributes nothing
        assert pg.kl_divergence(p, q) == pytest.approx(math.log(2.0), rel=1e-14)

    def test_underflow_cutoff(self):
        p = joint([0.5, 0.5], [0.5, 0.5])
        deep = pg.JointState(pg.Simplex([0.0, LOG_ZERO - 10.0]), pg.Simplex([0.0, 0.0]))
        shallow = pg.JointState(pg.Simplex([0.0, LOG_ZERO + 10.0]), pg.Simplex([0.0, 0.0]))
        assert pg.kl_divergence(p, deep) == math.inf
        assert math.isfinite(pg.kl_divergence(p, shallow))

    def test_dimension_mismatch(self):
        with pytest.raises(pg.InputError):
            pg.kl_divergence(joint([0.5, 0.5], [0.5, 0.5]),
                             joint([0.5, 0.5], [1 / 3] * 3))


class TestGameTypes:
    def test_matrix_validation(self):
        with pytest.raises(pg.InputError):
            pg.PayoffMatrix([[1.0, np.inf], [0.0, 0.0]])
        with pytest.raises(pg.InputError):
            pg.PayoffMatrix([[1.0, 2.0]])

    def test_schedule_wraps(self, game2x2):
        assert game2x2.period == 2
        assert np.array_equal(game2x2.matrix_at(0).entries, game2x2.matrix_at(4).entries)
        assert np.array_equal(game2x2.matrix_at(-1).entries, game2x2.matrix_at(1).entries)

    def test_mixed_shapes_rejected(self):
        with pytest.raises(pg.InputError):
            pg.PeriodicGame((np.zeros((2, 2)), np.zeros((3, 3))))

import itertools
import math

import numpy as np
import pytest

import periodicgame as pg
from periodicgame.linalg import boundary_eigenvalue, interior_eigenvalue_pair


def composite(eta):
    return lambda z: pg.omwu_reduced_composite(z, eta)


class TestJacobianFd:
    def test_identity_map(self):
        jac = pg.jacobian_fd(lambda z: z, np.array([0.3, 0.4, 0.1]))
        assert np.abs(jac - np.eye(3)).max() <= 1e-10

    def test_linear_map(self):
        rng = np.random.default_rng(20)
        m = rng.normal(size=(4, 4))
        jac = pg.jacobian_fd(lambda z: m @ z, rng.normal(size=4))
        assert np.abs(jac - m).max() <= 1e-9


class TestCharPoly:
    def test_identity_root(self):
        assert abs(pg.char_poly_eval(np.eye(2), 1.0)) == 0.0

    def test_diagonal_values(self):
        m = np.diag([2.0, 3.0])
        assert abs(pg.char_poly_eval(m, 2.0)) <= 1e-14
        assert pg.char_poly_eval(m, 0.0) == pytest.approx(6.0)

    def test_matches_leibniz_expansion(self):
        # The permutation-sum definition of the determinant shares no code
        # with LAPACK's LU.
        def leibniz(a):
            n = a.shape[0]
            total = 0j
            for perm in itertools.permutations(range(n)):
                inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
                total += (-1) ** inversions * math.prod(a[i, perm[i]] for i in range(n))
            return total

        rng = np.random.default_rng(21)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            m = rng.normal(size=(n, n))
            lam = complex(rng.normal(), rng.normal())
            ref = leibniz(m - lam * np.eye(n))
            assert pg.char_poly_eval(m, lam) == pytest.approx(ref, rel=1e-9, abs=1e-12)


class TestEigenvaluesSmall:
    def test_diagonal(self):
        eigs = pg.eigenvalues_small(np.diag([1.0, 0.5, 0.25]))
        assert np.allclose(sorted(np.abs(eigs), reverse=True), [1.0, 0.5, 0.25],
                           atol=1e-10)

    def test_rotation_pair(self):
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        eigs = pg.eigenvalues_small(rot)
        assert np.allclose(np.abs(eigs), [1.0, 1.0], atol=1e-10)
        assert np.allclose(sorted(e.imag for e in eigs), [-1.0, 1.0], atol=1e-10)

    def test_matches_lapack(self):
        # set-to-set (Hausdorff) comparison: sorting complex pairs by real
        # part makes near-conjugate orderings unstable
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            m = rng.normal(size=(n, n))
            mine = pg.eigenvalues_small(m)
            ref = np.linalg.eigvals(m)
            h = max(
                max(min(abs(a - b) for b in mine) for a in ref),
                max(min(abs(a - b) for b in ref) for a in mine),
            )
            assert h <= 1e-8 * max(1.0, np.abs(ref).max())
        # No size cap: the one-period map of OMWU on a 6x6 schedule is 20-d.
        m = rng.normal(size=(20, 20))
        assert np.allclose(np.sort_complex(pg.eigenvalues_small(m)),
                           np.sort_complex(np.linalg.eigvals(m)), rtol=0, atol=1e-12)

    def test_repeated_roots(self):
        # a triple root is conditioned like eps^(1/3)
        eigs = pg.eigenvalues_small(np.eye(3))
        assert np.abs(eigs - 1.0).max() <= 1e-4
        eigs = pg.eigenvalues_small(np.diag([1.0, 1.0, 0.25]))
        assert np.abs(np.sort(np.abs(eigs)) - [0.25, 1.0, 1.0]).max() <= 1e-7

    def test_dimension_guard(self):
        for bad in (np.ones((2, 3)), np.ones(4)):
            with pytest.raises(pg.InputError):
                pg.eigenvalues_small(bad)


class TestReducedMapSpectra:
    def test_interior_eigenvalues_on_char_poly(self):
        # FD Jacobian at the interior equilibrium, probed at the two analytic
        # eigenvalue branches (each a double root of the quartic).
        for eta in (0.01, 0.05, 0.0855, 0.1):
            jac = pg.jacobian_fd(composite(eta), np.full(4, 0.5))
            lo, hi = interior_eigenvalue_pair(eta)
            assert abs(pg.char_poly_eval(jac, lo)) <= 1e-8
            assert abs(pg.char_poly_eval(jac, hi)) <= 1e-8
            assert hi > 1.0 > lo > 0.0
            mods = np.sort(np.abs(pg.eigenvalues_small(jac)))
            assert np.abs(mods - [lo, lo, hi, hi]).max() <= 1e-9

    def test_boundary_spectrum_and_eigenvector(self):
        for eta in (0.05, 0.1):
            for a in (0.1, 0.3, 0.5, 0.7, 0.9):
                z = pg.boundary_fixed_point(a, eta)
                assert np.abs(pg.omwu_reduced_composite(z, eta) - z).max() <= 1e-12
                jac = pg.jacobian_fd(composite(eta), z)
                mods = np.sort(np.abs(pg.eigenvalues_small(jac)))
                expect = np.sort([0.0, 0.0, 1.0, boundary_eigenvalue(a, eta)])
                assert np.abs(mods - expect).max() <= 1e-6
                vec = pg.unit_eigenvector(jac)
                assert np.abs(vec[:2]).max() <= 1e-8

    def test_unit_eigenvector_on_known_matrix(self):
        m = np.diag([0.2, 0.4, 1.0])
        vec = pg.unit_eigenvector(m)
        assert abs(abs(vec[2]) - 1.0) <= 1e-8
        assert np.abs(vec[:2]).max() <= 1e-8

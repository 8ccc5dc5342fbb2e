"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import periodicgame as pg
from periodicgame.linalg import boundary_eigenvalue, interior_eigenvalue_pair

EQ22 = pg.JointState.from_probabilities([0.5, 0.5], [0.5, 0.5])


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {label}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {label}: PASS")


def composite(eta):
    return lambda z: pg.omwu_reduced_composite(z, eta)


def test_criterion_01_extra_convergence_2x2(game2x2):
    with criterion(1, "extra-mwu convergence on the 2x2 alternating game"):
        eta = 0.5
        assert eta < pg.max_step_size(game2x2)
        rng = np.random.default_rng(101)
        # warm the JIT so the per-run wall-clock bound times steady state
        pg.run_trajectory(game2x2, "extra", EQ22, eta, 10, record_every=1,
                          reference=EQ22)
        slowest = 0.0
        for _ in range(50):
            init = pg.JointState.from_probabilities(
                rng.dirichlet(np.ones(2)), rng.dirichlet(np.ones(2)))
            start = time.perf_counter()
            traj = pg.run_trajectory(game2x2, "extra", init, eta, 10_000,
                                     record_every=1, reference=EQ22)
            report = pg.check_extra_kl_decrease(traj, EQ22, tol=1e-12)
            slowest = max(slowest, time.perf_counter() - start)
            assert report.passed, report.summary()
            assert traj.kl_to_ref[-1] < 1e-6
        assert slowest < 1.0, f"slowest run took {slowest:.3f}s"


def test_criterion_02_extra_convergence_generated_games():
    with criterion(2, "extra-mwu convergence on generated periodic games"):
        rng = np.random.default_rng(102)
        for trial in range(20):
            period = 2 + trial % 3
            n = 3 + trial % 2
            x = pg.Simplex.from_probabilities(rng.dirichlet(np.full(3, 5.0)))
            y = pg.Simplex.from_probabilities(rng.dirichlet(np.full(n, 5.0)))
            mats = tuple(
                pg.generate_common_equilibrium_game(
                    x, y, pg.PayoffMatrix(rng.normal(size=(3, n))))
                for _ in range(period))
            game = pg.PeriodicGame(mats)
            eq = pg.JointState(x, y)
            for a in game.matrices:
                ok, _ = pg.verify_equilibrium(a, x, y, tol=1e-10)
                assert ok
            assert x.probabilities.min() > 0 and y.probabilities.min() > 0
            eta = 0.9 * pg.max_step_size(game)
            init = pg.JointState.from_probabilities(
                rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(n)))
            traj = pg.run_trajectory(game, "extra", init, eta, 50_000,
                                     record_every=1, reference=eq)
            report = pg.check_extra_kl_decrease(traj, eq, tol=1e-12)
            assert report.passed, f"trial {trial}: {report.summary()}"
            assert traj.kl_to_ref[-1] < 1e-5, f"trial {trial}"


def test_criterion_03_omwu_divergence_2x2(game2x2):
    with criterion(3, "omwu divergence under the step-size hypothesis"):
        init = pg.JointState.from_probabilities([0.45, 0.55], [0.45, 0.55])
        p = 0.025
        eta = pg.omwu_eta_bound_for_divergence(init)
        assert eta == pytest.approx((p / 16.0) ** 2, rel=1e-9)

        window = pg.run_trajectory(game2x2, "omwu", init, eta, 20_000,
                                   record_every=1, reference=EQ22)
        report = pg.check_omwu_increments(window, p, eta)
        assert report.passed, report.summary()
        assert report.stats["min_kl_2step_gain"] >= 0.375 * p * p * eta ** 3

        extended = pg.run_trajectory(game2x2, "omwu", init, eta, 10_000_000,
                                     record_every=1000, reference=EQ22)
        crossed = np.nonzero(extended.min_component < 1e-12)[0]
        if crossed.size:
            assert extended.kl_to_ref[crossed[0]] > 25.0
            print("  boundary reached before the step cap")
        else:
            # cap hit: the run must still have drifted outward past the window
            assert extended.kl_to_ref[-1] > window.kl_to_ref[-1]
            assert extended.min_component[-1] < window.min_component[-1]
            print(f"  step cap hit: kl {window.kl_to_ref[-1]:.10g} -> "
                  f"{extended.kl_to_ref[-1]:.10g}, min_component "
                  f"{window.min_component[-1]:.10g} -> {extended.min_component[-1]:.10g}")


def test_criterion_04_interior_instability():
    with criterion(4, "interior equilibrium is unstable for the reduced map"):
        for eta in (0.01, 0.05, 0.1):
            jac = pg.jacobian_fd(composite(eta), np.full(4, 0.5))
            lo, hi = interior_eigenvalue_pair(eta)
            assert abs(pg.char_poly_eval(jac, lo)) <= 1e-7
            assert abs(pg.char_poly_eval(jac, hi)) <= 1e-7
            top = np.abs(pg.eigenvalues_small(jac)).max()
            assert top >= 1.0 + eta * eta / 4.0


def test_criterion_05_boundary_fixed_point_curve():
    with criterion(5, "boundary fixed-point curve and its spectrum"):
        samples = [(k + 1) / 21.0 for k in range(20)]
        for eta in (0.05, 0.1):
            for a in samples:
                z = pg.boundary_fixed_point(a, eta)
                residual = np.abs(pg.omwu_reduced_composite(z, eta) - z).max()
                assert residual <= 1e-12
                jac = pg.jacobian_fd(composite(eta), z)
                mods = np.sort(np.abs(pg.eigenvalues_small(jac)))
                expect = np.sort([0.0, 0.0, 1.0, boundary_eigenvalue(a, eta)])
                assert np.abs(mods - expect).max() <= 1e-6


def test_criterion_06_ratio_identities(game2x2):
    with criterion(6, "two-step ratio identities along omwu runs"):
        rng = np.random.default_rng(106)
        for eta in (1e-3, 1e-2):
            for _ in range(20):
                init = pg.JointState.from_probabilities(
                    rng.dirichlet(np.ones(2)), rng.dirichlet(np.ones(2)))
                traj = pg.run_trajectory(game2x2, "omwu", init, eta, 1000,
                                         record_every=1)
                report = pg.check_omwu_ratio_identities(traj, eta, tol=1e-10)
                assert report.passed, report.summary()


def test_criterion_07_bregman_identities():
    with criterion(7, "three-points and exp-weights KL identities"):
        rng = np.random.default_rng(107)
        worst = 0.0
        for dim in (2, 3, 4, 5):
            for _ in range(250):
                p, x, xp = (pg.Simplex.from_probabilities(rng.dirichlet(np.ones(dim)))
                            for _ in range(3))
                y = rng.normal(size=dim) * 2.0
                report = pg.check_bregman_identities(p, x, xp, y, tol=1e-10)
                assert report.passed
                worst = max(worst, max(report.stats["residuals"]))
        assert worst <= 1e-10
        print(f"  worst residual {worst:.3g}")


# Equilibrium points quoted in the descriptions these two schedules came
# from; they appear swapped between the experiments, so they are reported
# against the solver output but not asserted.
QUOTED_PLAYER2_POINTS = {"exp1": (1 / 3, 1 / 3, 1 / 3), "exp2": (0.25, 0.375, 0.375)}

# Interior starting point used for the convergence runs (the criterion
# leaves it free; this one sits at max-norm distance 0.1 from both games'
# equilibria, far enough to cross three decades on the way in).
ACC8_INIT = pg.JointState.from_probabilities([0.4, 0.3, 0.3], [0.3, 0.35, 0.35])


def test_criterion_08_experiments_1_and_2():
    with criterion(8, "experiment schedules: extra converges, omwu diverges"):
        for name in ("exp1", "exp2"):
            game = pg.experiment_by_name(name).game
            eq = pg.common_equilibrium(game)
            assert eq is not None and eq.fully_mixed

            traj = pg.run_trajectory(game, "extra", ACC8_INIT, 0.1, 20_000,
                                     record_every=10, reference=eq.joint)
            final = traj.final_state
            d1 = np.abs(final.x1.probabilities - eq.x_star.probabilities).max()
            d2 = np.abs(final.x2.probabilities - eq.y_star.probabilities).max()
            assert max(d1, d2) <= 1e-4, f"{name}: distance {max(d1, d2):.3g}"

            omwu = pg.run_trajectory(game, "omwu", pg.default_init(3, 3), 0.01,
                                     400_000, record_every=100, reference=eq.joint)
            at100 = np.searchsorted(omwu.times, 100)
            assert omwu.kl_to_ref[-1] > omwu.kl_to_ref[at100]
            assert omwu.min_component[-1] < 1e-3

            quoted = np.asarray(QUOTED_PLAYER2_POINTS[name])
            other = "exp2" if name == "exp1" else "exp1"
            cross = np.asarray(QUOTED_PLAYER2_POINTS[other])
            solved = eq.y_star.probabilities
            own = np.abs(quoted - solved).max() < 1e-6
            swapped = np.abs(cross - solved).max() < 1e-6
            print(f"  {name}: solver y* = {np.round(solved, 6).tolist()}; quoted "
                  f"point {'matches' if own else 'does NOT match'}; the other "
                  f"experiment's quoted point {'matches' if swapped else 'does not'}"
                  " (reported, not asserted)")


def test_criterion_09_no_common_equilibrium():
    with criterion(9, "3-periodic schedule without a common equilibrium"):
        spec = pg.experiment_by_name("nocommon3")
        assert pg.common_equilibrium(spec.game) is None
        init = pg.default_init(3, 3)

        start = time.perf_counter()
        extra = pg.run_trajectory(spec.game, "extra", init, 0.1, 30_000,
                                  record_every=1)
        verdict = pg.detect_periodic_orbit(extra)
        extra_elapsed = time.perf_counter() - start
        assert verdict is pg.OrbitVerdict.CONVERGED_ORBIT
        probs = np.hstack([extra.probabilities1, extra.probabilities2])
        tail = probs[-31:]
        assert np.abs(tail[3:] - tail[:-3]).max() <= 1e-8
        assert np.abs(tail[1:] - tail[:-1]).max() >= 1e-3
        assert extra_elapsed < 10.0

        start = time.perf_counter()
        omwu = pg.run_trajectory(spec.game, "omwu", init, 0.05, 100_000,
                                 record_every=1)
        verdict = pg.detect_periodic_orbit(omwu)
        omwu_elapsed = time.perf_counter() - start
        assert verdict is pg.OrbitVerdict.DIVERGING_BOUNDARY
        assert omwu_elapsed < 10.0
        print(f"  extra {extra_elapsed:.2f}s, omwu {omwu_elapsed:.2f}s")


def test_criterion_10_solver_anchors(rps):
    with criterion(10, "solver reproduces the anchor equilibria"):
        res = pg.solve_zero_sum(rps)
        assert np.abs(res.x_star.probabilities - 1 / 3).max() <= 1e-12
        assert np.abs(res.y_star.probabilities - 1 / 3).max() <= 1e-12
        ok, gap = pg.verify_equilibrium(rps, res.x_star, res.y_star)
        assert ok

        hand_x = pg.Simplex.from_probabilities([0.5, 0.25, 0.25])
        hand_y = pg.Simplex.from_probabilities([0.25, 0.375, 0.375])
        odd = pg.PayoffMatrix([[0.0, 0.25, 0.75], [1.5, 0.0, 0.0], [0.0, 1.0, 0.0]])
        res = pg.solve_zero_sum(odd)
        assert np.abs(res.x_star.probabilities - hand_x.probabilities).max() <= 1e-12
        assert np.abs(res.y_star.probabilities - hand_y.probabilities).max() <= 1e-12
        assert res.value == pytest.approx(0.375, abs=1e-12)

        # the hand-derived points are exact dyadics: the gap must vanish exactly
        for a, x, y in ((rps, pg.Simplex.from_probabilities([1 / 3] * 3),
                         pg.Simplex.from_probabilities([1 / 3] * 3)),
                        (odd, hand_x, hand_y)):
            _, gap = pg.verify_equilibrium(a, x, y)
            assert gap == 0.0

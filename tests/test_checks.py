import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import periodicgame as pg
from conftest import generated_periodic_game, old_kl_simplex, random_interior_joint
from periodicgame.checks import _kl_step_differences, _max_deviation
from periodicgame.simplex import LOG_ZERO, fold_columns

EQ22 = pg.JointState.from_probabilities([0.5, 0.5], [0.5, 0.5])
INIT_4555 = pg.JointState.from_probabilities([0.45, 0.55], [0.45, 0.55])


def synthetic_trajectory(p1_rows, p2_rows, algo="extra", period=3, eta=0.1):
    lp1 = np.log(np.asarray(p1_rows, float))
    lp2 = np.log(np.asarray(p2_rows, float))
    minc = np.minimum(np.exp(lp1).min(axis=1), np.exp(lp2).min(axis=1))
    return pg.Trajectory(
        times=np.arange(lp1.shape[0]), log_probs1=lp1, log_probs2=lp2,
        kl_to_ref=np.full(lp1.shape[0], np.nan), min_component=minc,
        period=period, eta=eta, algo=algo,
    )


# Violation lists recorded from the checkers' per-violation loops before
# they shared one recording helper: every (t, lhs, rhs, slack) of a failing
# run of each checker, in report order.
IDENTITIES_WRONG_ETA = [
    (2, -0.20368584166408965, -0.20368735628428355, 1.514520193904248e-06),
    (4, -0.20370091583190642, -0.2037024232486881, 1.5073167816764294e-06),
    (6, -0.20371599108378446, -0.2037174986089723, 1.5074251878216012e-06),
    (2, -0.19768524915039754, -0.19768670451922202, 1.4552688244822727e-06),
    (4, -0.1976998777615615, -0.197701340622678, 1.4627611164912986e-06),
    (6, -0.19771450742796381, -0.19771597039460415, 1.462866640330965e-06),
    (2, -0.20071525498053355, -0.20071674048903318, 1.4854084996268086e-06),
    (4, -0.2007301107719507, -0.20073159635109236, 1.4854791416745756e-06),
    (6, -0.20074496763380523, -0.20074645331999072, 1.4855861854928294e-06),
    (2, -0.20071524161249688, -0.20071672667519141, 1.4849626945395184e-06),
    (4, -0.20073009294488053, -0.20073157807811906, 1.4850332385268368e-06),
    (6, -0.20074494534639076, -0.20074643058654187, 1.485140151116729e-06),
    (2, -0.20071525498053355, -0.20041819631217797, 0.00029705856835558205),
    (4, -0.2007301107719507, -0.2004330302659551, 0.0002970804059955839),
    (6, -0.20074496763380523, -0.20044786528880731, 0.0002971022449979127),
    (2, -0.19768524915039754, -0.1973837349668821, 0.0003015140835154278),
    (4, -0.1976998777615615, -0.19739834137646806, 0.0003015362850934483),
    (6, -0.19771450742796381, -0.19741294887627217, 0.00030155845169164416),
]
INCREMENTS_PERTURBED = [
    (10, 0.00010018127463973237, 7.324218750000001e-06, 9.285705588973236e-05),
    (10, -9.999999978083096e-05, 2.7284841053187865e-19, 9.999999978083123e-05),
    (10, -2.0222631083421927e-05, 3.4106051316484836e-21, 2.022263108342193e-05),
]
KL_MWU_RISING = [
    (1, 0.0006186874904116069, 1e-12, 0.0006186874894116069),
    (2, 0.0006564338591580898, 1e-12, 0.0006564338581580898),
    (3, 0.0006958429394871013, 1e-12, 0.0006958429384871013),
    (4, 0.0007381677041953805, 1e-12, 0.0007381677031953805),
    (5, 0.0007822559550967334, 1e-12, 0.0007822559540967334),
    (6, 0.000829674640485889, 1e-12, 0.000829674639485889),
    (1, 0.0006186874904116069, 0.0, 0.0006186874904116069),
    (2, 0.0006564338591580898, 0.0, 0.0006564338591580898),
    (3, 0.0006958429394871013, 0.0, 0.0006958429394871013),
    (4, 0.0007381677041953805, 0.0, 0.0007381677041953805),
    (5, 0.0007822559550967334, 0.0, 0.0007822559550967334),
    (6, 0.000829674640485889, 0.0, 0.000829674640485889),
]
KL_RISE_AND_STALL = [
    (1, 0.019716916683724883, 1e-12, 0.019716916682724885),
    (2, 0.021105077836530206, 1e-12, 0.021105077835530207),
    (3, 0.02257432203853882, 1e-12, 0.02257432203753882),
    (1, 0.019716916683724883, 0.0, 0.019716916683724883),
    (2, 0.021105077836530206, 0.0, 0.021105077836530206),
    (3, 0.02257432203853882, 0.0, 0.02257432203853882),
    (13, 0.0, 0.0, 0.0),
    (23, 0.0, 0.0, 0.0),
]


def as_tuples(report):
    return [(v.t, v.lhs, v.rhs, v.slack) for v in report.violations]


class TestGoldenViolations:
    def test_identities_at_wrong_eta(self, game2x2):
        traj = pg.run_trajectory(game2x2, "omwu", INIT_4555, 1e-2, 8, record_every=1)
        report = pg.check_omwu_ratio_identities(traj, 1.1e-2)
        assert as_tuples(report) == IDENTITIES_WRONG_ETA

    def test_increments_on_perturbed_run(self, game2x2):
        # Lifting x22 at t = 10 breaches the upper bound on x22[t]-x22[t+1]
        # and the lower bounds on x22[t+2]-x22[t] and the KL gain.
        p = 0.025
        eta = (p / 16.0) ** 2
        traj = pg.run_trajectory(game2x2, "omwu", INIT_4555, eta, 24, record_every=1)
        lp2 = traj.log_probs2.copy()
        b = float(np.exp(lp2[10, 1])) + 1e-4
        lp2[10] = np.log([1.0 - b, b])
        report = pg.check_omwu_increments(dataclasses.replace(traj, log_probs2=lp2), p, eta)
        assert as_tuples(report) == INCREMENTS_PERTURBED

    def test_kl_decrease_on_mwu_run(self, game2x2):
        traj = pg.run_trajectory(game2x2, "mwu", INIT_4555, 0.5, 6, record_every=1,
                                 reference=EQ22)
        report = pg.check_extra_kl_decrease(dataclasses.replace(traj, algo="extra"), EQ22)
        assert as_tuples(report) == KL_MWU_RISING

    def test_kl_decrease_rise_and_stall(self):
        # Three steps away from the equilibrium, 21 stalled steps, three back.
        x = np.concatenate([0.3 - 0.01 * np.arange(4), np.full(21, 0.27),
                            0.27 + 0.01 * np.arange(1, 4)])
        rows = np.column_stack([x, 1.0 - x])
        traj = synthetic_trajectory(rows, rows, algo="extra", period=2)
        report = pg.check_extra_kl_decrease(traj, EQ22)
        assert as_tuples(report) == KL_RISE_AND_STALL


class TestTolerance:
    @pytest.mark.parametrize("tol", [-1e-12, math.nan, math.inf])
    def test_bad_tol_rejected(self, game2x2, tol):
        omwu = pg.run_trajectory(game2x2, "omwu", INIT_4555, 1e-3, 10, record_every=1)
        extra = pg.run_trajectory(game2x2, "extra", INIT_4555, 0.1, 10, record_every=1,
                                  reference=EQ22)
        u = pg.Simplex.from_probabilities([0.5, 0.5])
        for check in (lambda: pg.check_omwu_ratio_identities(omwu, 1e-3, tol=tol),
                      lambda: pg.check_extra_kl_decrease(extra, EQ22, tol=tol),
                      lambda: pg.check_bregman_identities(u, u, u, np.zeros(2), tol=tol)):
            with pytest.raises(pg.InputError, match="tol must be"):
                check()

    @pytest.mark.filterwarnings("error")
    def test_zero_tol_is_exact(self, game2x2):
        # At tol = 0 any rounding residual is a violation, and the worst
        # relative residual is still a finite number.
        traj = pg.run_trajectory(game2x2, "omwu", INIT_4555, 1e-3, 200, record_every=1)
        report = pg.check_omwu_ratio_identities(traj, 1e-3, tol=0.0)
        assert not report.passed
        assert 0.0 < report.stats["worst_relative_residual"] <= 1e-14


class TestBoundaryFixedPoint:
    def test_endpoints(self):
        assert np.array_equal(pg.boundary_fixed_point(0.0, 0.1), [0, 0, 0, 0])
        assert np.array_equal(pg.boundary_fixed_point(1.0, 0.1), [0, 0, 1, 1])

    def test_midpoint_value(self):
        # fourth coordinate is 1/(1+e^{0.3}), evaluated offline at 50 digits
        z = pg.boundary_fixed_point(0.5, 0.1)
        assert z[3] == pytest.approx(0.42555748318834101284792873476534823497, abs=1e-16)

    def test_curve_is_fixed(self):
        for eta in (0.05, 0.1):
            for a in np.linspace(0.0, 1.0, 21):
                z = pg.boundary_fixed_point(a, eta)
                assert np.abs(pg.omwu_reduced_composite(z, eta) - z).max() <= 1e-12

    def test_domain(self):
        with pytest.raises(pg.InputError):
            pg.boundary_fixed_point(1.5, 0.1)


class TestRatioIdentities:
    def test_stationary_at_equilibrium(self, game2x2):
        traj = pg.run_trajectory(game2x2, "omwu", EQ22, 1e-2, 50, record_every=1)
        report = pg.check_omwu_ratio_identities(traj, 1e-2)
        assert report.passed
        assert report.stats["worst_relative_residual"] <= 1e-14

    def test_long_run_passes(self, game2x2):
        traj = pg.run_trajectory(game2x2, "omwu", INIT_4555, 1e-3, 500, record_every=1)
        report = pg.check_omwu_ratio_identities(traj, 1e-3)
        assert report.passed

    def test_corruption_is_detected(self, game2x2):
        traj = pg.run_trajectory(game2x2, "omwu", INIT_4555, 1e-3, 100, record_every=1)
        lp1 = traj.log_probs1.copy()
        lp1[40, 0] += 1e-3
        broken = dataclasses.replace(traj, log_probs1=lp1)
        report = pg.check_omwu_ratio_identities(broken, 1e-3)
        assert not report.passed
        assert any(abs(v.t - 40) <= 2 for v in report.violations)

    def test_wrong_algo_rejected(self, game2x2):
        traj = pg.run_trajectory(game2x2, "extra", EQ22, 0.1, 50, record_every=1)
        with pytest.raises(pg.InputError):
            pg.check_omwu_ratio_identities(traj, 0.1)

    def test_coarse_recording_rejected(self, game2x2):
        traj = pg.run_trajectory(game2x2, "omwu", EQ22, 0.1, 50, record_every=5)
        with pytest.raises(pg.InputError):
            pg.check_omwu_ratio_identities(traj, 0.1)

    def test_checker_is_idempotent(self, game2x2):
        traj = pg.run_trajectory(game2x2, "omwu", INIT_4555, 1e-3, 200, record_every=1)
        first = pg.check_omwu_ratio_identities(traj, 1e-3)
        second = pg.check_omwu_ratio_identities(traj, 1e-3)
        assert first.violations == second.violations
        assert first.stats == second.stats
        assert first.checked_steps == second.checked_steps


class TestIncrements:
    def test_strict_hypothesis_run_passes(self, game2x2):
        p = 0.025
        eta = pg.omwu_eta_bound_for_divergence(INIT_4555)
        traj = pg.run_trajectory(game2x2, "omwu", INIT_4555, eta, 2000,
                                 record_every=1)
        report = pg.check_omwu_increments(traj, p, eta)
        assert report.passed
        assert report.stats["min_kl_2step_gain"] >= report.stats["kl_floor"]

    def test_eta_above_bound_rejected(self, game2x2):
        traj = pg.run_trajectory(game2x2, "omwu", INIT_4555, 1e-3, 100,
                                 record_every=1)
        with pytest.raises(pg.InputError):
            pg.check_omwu_increments(traj, 0.025, 1e-3)

    def test_degenerate_p_rejected(self, game2x2):
        traj = pg.run_trajectory(game2x2, "omwu", EQ22, 1e-8, 100, record_every=1)
        with pytest.raises(pg.InputError):
            pg.check_omwu_increments(traj, 0.0, 1e-8)

    def test_init_outside_region_rejected(self, game2x2):
        bad = pg.JointState.from_probabilities([0.55, 0.45], [0.45, 0.55])
        eta = (0.025 / 16.0) ** 2
        traj = pg.run_trajectory(game2x2, "omwu", bad, eta, 100, record_every=1)
        with pytest.raises(pg.InputError):
            pg.check_omwu_increments(traj, 0.025, eta)

    def test_early_boundary_crossing_truncates_window(self, game2x2):
        # splice a crossing of 1 - sqrt(eta) into a real run: the window
        # then ends before any checkable even step remains
        p = 0.025
        eta = (p / 16.0) ** 2
        traj = pg.run_trajectory(game2x2, "omwu", INIT_4555, eta, 60, record_every=1)
        lp1 = traj.log_probs1.copy()
        hi = 1.0 - 0.5 * math.sqrt(eta)
        lp1[5] = np.log([1.0 - hi, hi])
        spliced = dataclasses.replace(traj, log_probs1=lp1)
        with pytest.raises(pg.InputError, match="window too short"):
            pg.check_omwu_increments(spliced, p, eta)


class TestExtraKlDecrease:
    def test_stationary_run_has_zero_slack(self, game2x2):
        traj = pg.run_trajectory(game2x2, "extra", EQ22, 0.5, 100, record_every=1,
                                 reference=EQ22)
        report = pg.check_extra_kl_decrease(traj, EQ22)
        assert report.passed
        assert report.stats["max_increase"] == 0.0

    def test_alternating_game_converges(self, game2x2):
        traj = pg.run_trajectory(game2x2, "extra", INIT_4555, 0.5, 10_000,
                                 record_every=1, reference=EQ22)
        report = pg.check_extra_kl_decrease(traj, EQ22)
        assert report.passed
        assert traj.kl_to_ref[-1] < 1e-6

    def test_generated_schedule(self):
        rng = np.random.default_rng(30)
        game, eq = generated_periodic_game(rng, 3, 3, 3)
        eta = 0.9 * pg.max_step_size(game)
        traj = pg.run_trajectory(game, "extra", random_interior_joint(rng, 3, 3),
                                 eta, 20_000, record_every=1, reference=eq)
        report = pg.check_extra_kl_decrease(traj, eq)
        assert report.passed

    def test_mwu_cycling_fails_monotonicity(self, game2x2):
        # plain MWU does not contract; relabeling its trajectory as extra
        # must trip the checker
        traj = pg.run_trajectory(game2x2, "mwu", INIT_4555, 0.5, 2000,
                                 record_every=1, reference=EQ22)
        relabeled = dataclasses.replace(traj, algo="extra")
        report = pg.check_extra_kl_decrease(relabeled, EQ22)
        assert not report.passed

    def test_stalled_run_is_flagged(self):
        rows1 = np.tile([0.3, 0.7], (50, 1))
        rows2 = np.tile([0.4, 0.6], (50, 1))
        traj = synthetic_trajectory(rows1, rows2, algo="extra", period=2)
        report = pg.check_extra_kl_decrease(traj, EQ22)
        # 49 stalled steps: one violation per ten, at the step ending each ten.
        assert [v.t for v in report.violations] == [10, 20, 30, 40]
        assert all((v.lhs, v.rhs, v.slack) == (0.0, 0.0, 0.0) for v in report.violations)

    @settings(max_examples=60, deadline=None)
    @given(segments=st.lists(st.tuples(st.booleans(), st.sampled_from([9, 10, 11, 20, 25])),
                             min_size=1, max_size=12))
    def test_stall_scan_matches_run_counter(self, segments):
        # Rows that either hold still (a stalled stretch) or step toward the
        # equilibrium (KL strictly falls), in runs of the sampled lengths.
        moves = np.concatenate([np.full(n, not still) for still, n in segments])
        x = 0.2 + 1e-4 * np.concatenate([[0], np.cumsum(moves)])
        rows = np.column_stack([x, 1.0 - x])
        traj = synthetic_trajectory(rows, rows, algo="extra", period=2)
        report = pg.check_extra_kl_decrease(traj, EQ22)

        # The per-step run counter the scan replaces.
        expected, run = [], 0
        for k, stalled in enumerate(~moves):
            run = run + 1 if stalled else 0
            if run == 10:
                expected.append(k + 1)
                run = 0
        assert [v.t for v in report.violations] == expected


class TestBregmanIdentities:
    def test_uniform_triple_reduces_to_zero(self):
        u = pg.Simplex.from_probabilities([0.25] * 4)
        report = pg.check_bregman_identities(u, u, u, np.zeros(4))
        assert report.passed
        assert max(report.stats["residuals"]) == 0.0

    def test_seeded_cases(self):
        rng = np.random.default_rng(31)
        worst = 0.0
        for _ in range(1000):
            p, x, xp = (pg.Simplex.from_probabilities(rng.dirichlet(np.ones(3)))
                        for _ in range(3))
            y = rng.normal(size=3)
            report = pg.check_bregman_identities(p, x, xp, y)
            assert report.passed
            worst = max(worst, max(report.stats["residuals"]))
        assert worst <= 1e-10

    def test_constant_payoff_case(self):
        rng = np.random.default_rng(32)
        p = pg.Simplex.from_probabilities(rng.dirichlet(np.ones(3)))
        x = pg.Simplex.from_probabilities(rng.dirichlet(np.ones(3)))
        report = pg.check_bregman_identities(p, x, x, np.full(3, 2.5))
        assert report.passed

    def test_boundary_rejected(self):
        b = pg.Simplex.from_probabilities([1.0, 0.0])
        u = pg.Simplex.from_probabilities([0.5, 0.5])
        with pytest.raises(pg.InputError):
            pg.check_bregman_identities(b, u, u, np.zeros(2))


def _old_bregman(p, x, x_prime, y, tol=1e-10):
    """check_bregman_identities as it was before it worked on plain arrays:
    Simplex objects for x-dagger and a KL block per pair."""
    if not (math.isfinite(tol) and tol >= 0):
        raise pg.InputError(f"tol must be a nonnegative finite number, got {tol!r}")
    for name, s in (("p", p), ("x", x), ("x_prime", x_prime)):
        if s.probabilities.min() <= 0:
            raise pg.InputError(f"{name} must be interior")
    if not (len(p) == len(x) == len(x_prime)):
        raise pg.InputError("dimension mismatch among p, x, x_prime")
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (len(x),) or not np.isfinite(y).all():
        raise pg.InputError("y must be a finite vector matching x")

    violations = []
    log_ratio = x_prime.log_probabilities - x.log_probabilities
    lhs1 = old_kl_simplex(p, x_prime)
    rhs1 = old_kl_simplex(p, x) + old_kl_simplex(x, x_prime) + float(
        log_ratio @ (x.probabilities - p.probabilities)
    )
    if abs(lhs1 - rhs1) > tol:
        violations.append(pg.Violation(0, lhs1, rhs1, abs(lhs1 - rhs1) - tol))

    x_dag = pg.exp_weights_step(x, y, 1.0)
    lhs2 = old_kl_simplex(p, x_dag)
    rhs2 = old_kl_simplex(p, x) - old_kl_simplex(x_dag, x) + float(
        y @ (x_dag.probabilities - p.probabilities)
    )
    if abs(lhs2 - rhs2) > tol:
        violations.append(pg.Violation(1, lhs2, rhs2, abs(lhs2 - rhs2) - tol))
    return violations, (abs(lhs1 - rhs1), abs(lhs2 - rhs2))


def _float_bits(values):
    """Each float's bit pattern, with every NaN as one pattern."""
    return [b"nan" if math.isnan(v) else struct.pack("<d", v) for v in values]


def _bregman_outcome(check, *args, **kwargs):
    """The error a check raises, or its violations and residuals as bits."""
    try:
        with np.errstate(all="ignore"):
            out = check(*args, **kwargs)
    except pg.InputError as exc:
        return "InputError", str(exc)
    if isinstance(out, pg.PropertyReport):
        out = out.violations, out.stats["residuals"]
    violations, residuals = out
    return ([(v.t, _float_bits((v.lhs, v.rhs, v.slack))) for v in violations],
            _float_bits(residuals))


_BELOW = float(np.nextafter(LOG_ZERO, -np.inf))
# Log-weights: interior ones in the main, and ones that put mass at zero
# (-inf, a 745 gap) or make x.log_weights + y overflow (1e308).
_LW = st.one_of(st.floats(-30.0, 30.0), st.floats(-30.0, 30.0),
                st.sampled_from([0.0, -0.0, -np.inf, -745.0, 1e308, -1e308]))
# Payoffs y: ordinary ones, ones that leave x-dagger's log-probabilities at,
# just below or far below LOG_ZERO, ones that overflow, and non-finite ones.
_Y = st.one_of(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0),
               st.sampled_from([0.0, -0.0, LOG_ZERO, _BELOW, -LOG_ZERO, 800.0, -800.0,
                                1e308, -1e308, np.inf, np.nan]))


@st.composite
def _bregman_case(draw):
    k = draw(st.integers(2, 8))
    lengths = draw(st.sampled_from([(k, k, k)] * 9 + [(k, k, k + 1), (k + 1, k, k)]))
    simplices = [pg.Simplex(draw(st.lists(_LW, min_size=n, max_size=n).filter(
        lambda lw: np.isfinite(lw).any()))) for n in lengths]
    y = draw(st.lists(_Y, min_size=k, max_size=k))
    tol = draw(st.sampled_from([1e-10, 1e-10, 0.0, 1e-3]))
    return (*simplices, y), tol


class TestBregmanOracle:
    """check_bregman_identities on plain arrays gives the old routine's
    errors, violations and residuals, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(_bregman_case())
    def test_matches_the_simplex_routine(self, case):
        args, tol = case
        assert (_bregman_outcome(pg.check_bregman_identities, *args, tol=tol)
                == _bregman_outcome(_old_bregman, *args, tol=tol))

    def test_seeded_interior_cases(self):
        rng = np.random.default_rng(33)
        for k in range(2, 9):
            for _ in range(60):
                p, x, xp = (pg.Simplex.from_probabilities(rng.dirichlet(np.ones(k)))
                            for _ in range(3))
                y = rng.normal(size=k) * 10.0 ** rng.integers(-1, 3)
                new = _bregman_outcome(pg.check_bregman_identities, p, x, xp, y)
                assert new == _bregman_outcome(_old_bregman, p, x, xp, y)

    def test_vanished_x_dagger(self):
        u = pg.Simplex([0.0, 0.0, 0.0])
        for y in ([0.0, 0.0, LOG_ZERO], [0.0, 0.0, _BELOW], [0.0, -0.0, -800.0]):
            new = _bregman_outcome(pg.check_bregman_identities, u, u, u, y)
            assert new == _bregman_outcome(_old_bregman, u, u, u, y)

    def test_overflowing_shift_still_raises(self):
        x = pg.Simplex([1e308, 1e308])  # interior: uniform
        with np.errstate(over="ignore"), pytest.raises(
                pg.InputError, match="must not contain NaN or \\+inf"):
            pg.check_bregman_identities(x, x, x, [1e308, 0.0])


class TestDistanceOracle:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 8).flatmap(lambda k: st.tuples(
        st.lists(st.floats(-20.0, 5.0), min_size=k, max_size=k),
        st.lists(st.one_of(st.floats(-20.0, 5.0),
                           st.sampled_from([-np.inf, np.inf, np.nan, 0.0, -0.0, 800.0,
                                            LOG_ZERO, _BELOW])),
                 min_size=3 * k, max_size=3 * k))))
    def test_matches_the_broadcast_block(self, case):
        lw, rows = case
        s = pg.Simplex(lw)
        lp = np.array(rows).reshape(3, len(lw))
        with np.errstate(all="ignore"):
            old = fold_columns(np.maximum, np.abs(np.exp(lp) - s.probabilities))
            new = _max_deviation(lp, s)
        assert _float_bits(new.tolist()) == _float_bits(old.tolist())


def _old_max_deviation(log_probs, s):
    """_max_deviation as it was when it exponentiated the whole block."""
    e = np.exp(log_probs)
    q = s.probabilities.tolist()
    acc = np.abs(np.subtract(e[:, 0], q[0]))
    col = np.empty_like(acc)
    for j in range(1, len(q)):
        np.abs(np.subtract(e[:, j], q[j], out=col), out=col)
        np.maximum(acc, col, out=acc)
    return acc


# A row of a block: ordinary log-probabilities, ones with special entries,
# or a whole row at -inf, at LOG_ZERO or just below it.
_ROW_FILL = st.sampled_from([-np.inf, LOG_ZERO, _BELOW])


class TestColumnExpOracle:
    """_max_deviation, which exponentiates one copied column at a time,
    gives the bits of the old body, which exponentiated the whole (R, m)
    block: np.exp gives a column the bits it gives the block.  Blocks of up
    to 300 rows cover numpy's vector loops and their remainders."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 8).flatmap(lambda k: st.tuples(
        st.lists(st.floats(-20.0, 5.0), min_size=k, max_size=k),
        st.lists(st.one_of(
            st.lists(st.one_of(st.floats(-800.0, 5.0),
                               st.sampled_from([-np.inf, np.nan, 0.0, -0.0, 800.0,
                                                LOG_ZERO, _BELOW])),
                     min_size=k, max_size=k),
            _ROW_FILL.map(lambda v: [v] * k)), min_size=1, max_size=300),
        st.booleans())))
    def test_matches_the_block_exp(self, case):
        lw, rows, fortran = case
        s = pg.Simplex(lw)
        lp = np.array(rows, order="F" if fortran else "C")
        with np.errstate(all="ignore"):
            old = _old_max_deviation(lp, s)
            new = _max_deviation(lp, s)
        assert _float_bits(new.tolist()) == _float_bits(old.tolist())

    def test_long_block(self):
        rng = np.random.default_rng(47)
        lp = np.log(rng.dirichlet(np.ones(3), size=10_001))
        lp[::7, 1] = -np.inf
        lp[::11] = LOG_ZERO
        s = pg.Simplex.from_probabilities([0.2, 0.3, 0.5])
        with np.errstate(all="ignore"):
            assert _max_deviation(lp, s).tobytes() == _old_max_deviation(lp, s).tobytes()


def _kl_steps_formula(traj, ref, stride):
    """d1 @ r1 + d2 @ r2 in fresh arrays: what _kl_step_differences computed
    before it shared one buffer."""
    d1 = traj.log_probs1[:-stride] - traj.log_probs1[stride:]
    d2 = traj.log_probs2[:-stride] - traj.log_probs2[stride:]
    return d1 @ ref.x1.probabilities + d2 @ ref.x2.probabilities


class TestKlStepOracle:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 700), st.integers(2, 6), st.integers(2, 6),
           st.integers(1, 3), st.lists(st.sampled_from([-np.inf, LOG_ZERO, _BELOW, -0.0, -800.0]),
                                       max_size=12))
    def test_matches_the_formula(self, seed, rows, m, n, stride, specials):
        rng = np.random.default_rng(seed)
        lp1, lp2 = rng.uniform(-30.0, 0.0, (rows, m)), rng.uniform(-30.0, 0.0, (rows, n))
        for v in specials:   # boundary values at random cells of either block
            lp = (lp1, lp2)[int(rng.integers(2))]
            lp[rng.integers(rows), rng.integers(lp.shape[1])] = v
        ref = pg.JointState(pg.Simplex(rng.normal(size=m)), pg.Simplex(rng.normal(size=n)))
        traj = pg.Trajectory(times=np.arange(rows), log_probs1=lp1, log_probs2=lp2,
                             kl_to_ref=np.full(rows, np.nan), min_component=np.zeros(rows),
                             period=1, eta=0.1, algo="extra")
        with np.errstate(invalid="ignore"):
            want = _kl_steps_formula(traj, ref, stride)
            got = _kl_step_differences(traj, ref, stride)
        assert _float_bits(got.tolist()) == _float_bits(want.tolist())

    @pytest.mark.parametrize("stride", [1, 2])
    def test_long_run_matches_the_formula(self, game2x2, stride):
        traj = pg.run_trajectory(game2x2, "extra", INIT_4555, 0.1, 9_999, record_every=1)
        got = _kl_step_differences(traj, EQ22, stride)
        assert got.tobytes() == _kl_steps_formula(traj, EQ22, stride).tobytes()


class TestComparisonInequality:
    """The scalar inequality behind the increment bounds, checked as plain
    arithmetic on seeded samples."""

    @pytest.mark.parametrize("eta", [1e-2, 1e-4])
    def test_two_sided_bounds(self, eta):
        rng = np.random.default_rng(33)
        top = 1.0 - math.sqrt(eta)
        checked_le = checked_ge = 0
        for _ in range(10_000):
            u = rng.uniform(0.5, top)
            v = rng.uniform(0.5, top)
            w = rng.uniform(1e-6, 1.0)
            lhs = (1.0 - v) / v
            rhs = (1.0 - u) / u * math.exp(w)
            if lhs <= rhs:
                assert u - v <= w
                checked_le += 1
            if lhs >= rhs:
                assert u - v >= 0.5 * w * math.sqrt(eta)
                checked_ge += 1
        assert checked_le > 100 and checked_ge > 100


class TestOrbitDetector:
    def test_constant_trajectory_is_point(self):
        rows1 = np.tile([0.3, 0.3, 0.4], (40, 1))
        rows2 = np.tile([0.2, 0.5, 0.3], (40, 1))
        traj = synthetic_trajectory(rows1, rows2, period=3)
        assert pg.detect_periodic_orbit(traj) is pg.OrbitVerdict.CONVERGED_POINT

    def test_synthetic_orbit(self):
        cycle = np.array([[0.2, 0.8], [0.5, 0.5], [0.7, 0.3]])
        rows1 = np.tile(cycle, (14, 1))
        rows2 = np.tile([0.4, 0.6], (42, 1))
        traj = synthetic_trajectory(rows1, rows2, period=3)
        assert pg.detect_periodic_orbit(traj) is pg.OrbitVerdict.CONVERGED_ORBIT

    def test_synthetic_boundary_decay(self):
        n = 40
        eps = 1e-4 * np.exp(-0.5 * np.arange(n))
        rows1 = np.column_stack([eps, 1.0 - eps])
        rows2 = np.tile([0.5, 0.5], (n, 1))
        traj = synthetic_trajectory(rows1, rows2, period=3)
        assert pg.detect_periodic_orbit(traj) is pg.OrbitVerdict.DIVERGING_BOUNDARY

    def test_saturated_boundary_with_wiggle(self):
        # deep below the threshold the smallest component may wobble while
        # the live coordinates keep cycling; still a boundary verdict
        n = 40
        eps = 1e-20 * (1.0 + 0.5 * np.sin(np.arange(n)))
        rows1 = np.column_stack([eps, 1.0 - eps])
        cycle = np.array([[0.2, 0.8], [0.5, 0.5], [0.7, 0.3]])
        rows2 = np.tile(cycle, (14, 1))[:n]
        traj = synthetic_trajectory(rows1, rows2, period=3)
        assert pg.detect_periodic_orbit(traj) is pg.OrbitVerdict.DIVERGING_BOUNDARY

    def test_wandering_is_inconclusive(self):
        rng = np.random.default_rng(34)
        rows1 = rng.dirichlet(np.ones(2), size=40)
        rows2 = rng.dirichlet(np.ones(2), size=40)
        traj = synthetic_trajectory(rows1, rows2, period=3)
        assert pg.detect_periodic_orbit(traj) is pg.OrbitVerdict.INCONCLUSIVE

    def test_short_trajectory_rejected(self):
        rows = np.tile([0.5, 0.5], (10, 1))
        traj = synthetic_trajectory(rows, rows, period=3)
        with pytest.raises(pg.InputError):
            pg.detect_periodic_orbit(traj)


class TestOmwuQuadrants:
    """KL climbs from every quadrant around the equilibrium, not just the
    one the increment bounds analyze."""

    @pytest.mark.parametrize("q1,q2", [(0.45, 0.45), (0.55, 0.45),
                                       (0.45, 0.55), (0.55, 0.55)])
    def test_kl_grows(self, game2x2, q1, q2):
        init = pg.JointState.from_probabilities([q1, 1 - q1], [q2, 1 - q2])
        traj = pg.run_trajectory(game2x2, "omwu", init, 0.01, 20_000,
                                 record_every=100, reference=EQ22)
        assert traj.kl_to_ref[-1] > traj.kl_to_ref[1] > 0.0

import itertools
import math

import numpy as np
import pytest

import periodicgame as pg
from periodicgame import dynamics
from conftest import generated_periodic_game, random_interior_joint

# One OMWU step on the alternating 2x2 game from ((0.45,0.55),(0.45,0.55))
# twice at eta = 0.01, evaluated offline at 50 digits.
OMWU_STEP_X1 = (0.44925761191500372966911071633069457695, 0.55074238808499627033088928366930542305)
OMWU_STEP_X2 = (0.45074261083466715761697533140199307374, 0.54925738916533284238302466859800692626)

# One extra-gradient step with A = [[0,1],[1,0]] from ((0.5,0.5),(0.4,0.6)),
# eta = 0.1, evaluated offline at 50 digits.  Player 2 sees a constant payoff
# at the half step, so its half step (and hence player 1's full step) stays put.
EXTRA_HALF_X1 = (0.50499983333999973016966445985441974876, 0.49500016666000026983033554014558025124)
EXTRA_NEXT_X2 = (0.40024001598111807950656828813742040926, 0.59975998401888192049343171186257959074)

EXP2 = tuple(np.asarray(m, float) for m in pg.experiments.EXP2)


def joint(p1, p2):
    return pg.JointState.from_probabilities(p1, p2)


class TestExpWeightsStep:
    def test_constant_payoff_is_identity(self):
        x = pg.Simplex.from_probabilities([0.5, 0.5])
        for c in (0.0, 3.7, -1.0):
            out = pg.exp_weights_step(x, [c, c], 0.25)
            assert np.allclose(out.probabilities, [0.5, 0.5], atol=1e-15)

    def test_exact_ratio(self):
        x = pg.Simplex.from_probabilities([0.5, 0.5])
        out = pg.exp_weights_step(x, [1.0, 0.0], math.log(3.0))
        assert np.allclose(out.probabilities, [0.75, 0.25], atol=1e-15)

    def test_rejects_mismatch(self):
        x = pg.Simplex.from_probabilities([0.5, 0.5])
        with pytest.raises(pg.InputError):
            pg.exp_weights_step(x, [1.0, 2.0, 3.0], 0.1)
        with pytest.raises(pg.InputError):
            pg.exp_weights_step(x, [np.nan, 0.0], 0.1)


class TestOmwuStep:
    def test_equilibrium_is_fixed(self, game2x2):
        eq = joint([0.5, 0.5], [0.5, 0.5])
        state = pg.OmwuState.repeated(eq)
        for t in range(4):
            state = pg.omwu_joint_step(game2x2, t, state, 0.1)
            assert np.allclose(state.current.x1.probabilities, [0.5, 0.5], atol=1e-15)
            assert np.allclose(state.current.x2.probabilities, [0.5, 0.5], atol=1e-15)

    def test_matches_exp_weights_decomposition(self, game2x2):
        rng = np.random.default_rng(3)
        state = pg.OmwuState(random_interior_joint(rng, 2, 2),
                             random_interior_joint(rng, 2, 2))
        eta = 0.05
        t = 2
        a = game2x2.matrix_at(t).entries
        ap = game2x2.matrix_at(t - 1).entries
        combined = (2 * eta * (a @ state.current.x2.probabilities)
                    - eta * (ap @ state.previous.x2.probabilities))
        expect = pg.exp_weights_step(state.current.x1, combined, 1.0)
        got = pg.omwu_joint_step(game2x2, t, state, eta).current.x1
        assert np.abs(got.probabilities - expect.probabilities).max() < 1e-12

    def test_one_step_against_oracle(self, game2x2):
        state = pg.OmwuState.repeated(joint([0.45, 0.55], [0.45, 0.55]))
        out = pg.omwu_joint_step(game2x2, 0, state, 0.01)
        assert np.abs(out.current.x1.probabilities - OMWU_STEP_X1).max() < 1e-15
        assert np.abs(out.current.x2.probabilities - OMWU_STEP_X2).max() < 1e-15
        assert out.previous is state.current

    def test_wraps_to_last_matrix_at_t0(self, game2x2):
        # The t = 0 step must read A_{-1} from the end of the schedule; using
        # A_0 there instead would change the answer.
        state = pg.OmwuState.repeated(joint([0.3, 0.7], [0.6, 0.4]))
        out = pg.omwu_joint_step(game2x2, 0, state, 0.1)
        a0 = game2x2.matrix_at(0).entries
        wrong = 2 * 0.1 * (a0 @ state.current.x2.probabilities) - 0.1 * (
            a0 @ state.previous.x2.probabilities)
        wrong_x1 = pg.exp_weights_step(state.current.x1, wrong, 1.0)
        assert np.abs(out.current.x1.probabilities - wrong_x1.probabilities).max() > 1e-3


class TestExtraStep:
    def test_zero_matrix_is_identity(self):
        a = pg.PayoffMatrix(np.zeros((2, 3)))
        state = joint([0.4, 0.6], [0.2, 0.3, 0.5])
        half, nxt = pg.extra_mwu_joint_step(a, state, 0.5)
        for s in (half, nxt):
            assert np.allclose(s.x1.probabilities, state.x1.probabilities, atol=1e-15)
            assert np.allclose(s.x2.probabilities, state.x2.probabilities, atol=1e-15)

    def test_stationary_at_common_equilibrium(self):
        rng = np.random.default_rng(4)
        game, eq = generated_periodic_game(rng, 3, 3, 2)
        for a in game.matrices:
            half, nxt = pg.extra_mwu_joint_step(a, eq, 0.2)
            for s in (half, nxt):
                assert s.max_norm_distance(eq) <= 1e-14

    def test_one_step_against_oracle(self):
        a = pg.PayoffMatrix([[0.0, 1.0], [1.0, 0.0]])
        state = joint([0.5, 0.5], [0.4, 0.6])
        half, nxt = pg.extra_mwu_joint_step(a, state, 0.1)
        assert np.abs(half.x1.probabilities - EXTRA_HALF_X1).max() < 1e-15
        assert np.abs(half.x2.probabilities - (0.4, 0.6)).max() < 1e-15
        assert np.abs(nxt.x1.probabilities - EXTRA_HALF_X1).max() < 1e-15
        assert np.abs(nxt.x2.probabilities - EXTRA_NEXT_X2).max() < 1e-15


class TestRunTrajectory:
    def test_single_step_zero_game(self):
        game = pg.PeriodicGame((np.zeros((2, 2)),))
        traj = pg.run_trajectory(game, "mwu", pg.JointState.uniform(2, 2), 0.1, 1)
        assert traj.n_records == 2
        assert np.array_equal(traj.log_probs1[0], traj.log_probs1[1])

    def test_bit_identical_reruns(self, game2x2):
        init = joint([0.45, 0.55], [0.45, 0.55])
        runs = [pg.run_trajectory(game2x2, "omwu", init, 0.01, 500, record_every=1)
                for _ in range(2)]
        assert np.array_equal(runs[0].log_probs1, runs[1].log_probs1)
        assert np.array_equal(runs[0].log_probs2, runs[1].log_probs2)

    def test_recording_grid(self, game2x2):
        traj = pg.run_trajectory(game2x2, "mwu", pg.JointState.uniform(2, 2),
                                 0.1, 105, record_every=10)
        assert traj.times[0] == 0
        assert traj.times[-1] == 105
        assert np.array_equal(traj.times[:-1], np.arange(0, 101, 10))

    @pytest.mark.parametrize("steps", [1, 7, 10, 10_000])
    @pytest.mark.parametrize("every", [1, 3, 10, 100])
    def test_record_times_match_sorted_union(self, game2x2, steps, every):
        traj = pg.run_trajectory(game2x2, "mwu", pg.JointState.uniform(2, 2), 0.1, steps,
                                 record_every=every)
        expected = np.unique(np.concatenate([np.arange(0, steps + 1, every), [steps]]))
        assert np.array_equal(traj.times, expected.astype(np.int64))

    def test_matches_single_step_functions(self, game2x2):
        rng = np.random.default_rng(5)
        init = pg.OmwuState(random_interior_joint(rng, 2, 2),
                            random_interior_joint(rng, 2, 2))
        eta = 0.02
        traj = pg.run_trajectory(game2x2, "omwu", init, eta, 6, record_every=1)
        state = init
        for t in range(6):
            state = pg.omwu_joint_step(game2x2, t, state, eta)
            assert np.abs(state.current.x1.probabilities
                          - traj.probabilities1[t + 1]).max() < 1e-12

        init_j = random_interior_joint(rng, 2, 2)
        traj = pg.run_trajectory(game2x2, "extra", init_j, eta, 4, record_every=1)
        s = init_j
        for t in range(4):
            _, s = pg.extra_mwu_joint_step(game2x2.matrix_at(t), s, eta)
            assert np.abs(s.x1.probabilities - traj.probabilities1[t + 1]).max() < 1e-12

    def test_extra_converges_on_2x2(self, game2x2):
        eq = joint([0.5, 0.5], [0.5, 0.5])
        traj = pg.run_trajectory(game2x2, "extra", pg.JointState.uniform(2, 2),
                                 0.1, 10_000, record_every=100, reference=eq)
        assert traj.final_state.max_norm_distance(eq) < 1e-6

    def test_omwu_diverges_on_2x2(self, game2x2):
        eq = joint([0.5, 0.5], [0.5, 0.5])
        init = joint([0.45, 0.55], [0.45, 0.55])
        traj = pg.run_trajectory(game2x2, "omwu", init, 0.01, 10_000,
                                 record_every=10, reference=eq)
        k10 = np.searchsorted(traj.times, 10)
        assert traj.kl_to_ref[-1] > traj.kl_to_ref[k10]
        # the collapse to the boundary takes a few million steps at this eta
        long = pg.run_trajectory(game2x2, "omwu", init, 0.01, 4_500_000,
                                 record_every=1000, reference=eq)
        assert long.min_component[-1] < 1e-6
        assert long.kl_to_ref[-1] > traj.kl_to_ref[-1]

    def test_interior_stays_interior(self, game2x2):
        rng = np.random.default_rng(6)
        for algo in ("mwu", "omwu", "extra"):
            traj = pg.run_trajectory(game2x2, algo, random_interior_joint(rng, 2, 2),
                                     0.1, 200, record_every=1)
            probs = np.hstack([traj.probabilities1, traj.probabilities2])
            assert probs.min() > 0.0
            assert np.abs(probs[:, :2].sum(axis=1) - 1.0).max() < 1e-12
            assert np.abs(probs[:, 2:].sum(axis=1) - 1.0).max() < 1e-12

    def test_payoff_shift_invariance(self, game2x2):
        rng = np.random.default_rng(7)
        init = pg.OmwuState(random_interior_joint(rng, 2, 2),
                            random_interior_joint(rng, 2, 2))
        shifted = pg.PeriodicGame(tuple(a.entries + 5.25 for a in game2x2.matrices))
        for algo in ("mwu", "omwu", "extra"):
            t1 = pg.run_trajectory(game2x2, algo, init, 0.1, 100, record_every=1)
            t2 = pg.run_trajectory(shifted, algo, init, 0.1, 100, record_every=1)
            assert np.abs(t1.probabilities1 - t2.probabilities1).max() < 1e-12
            assert np.abs(t1.probabilities2 - t2.probabilities2).max() < 1e-12

    def test_validation(self, game2x2):
        init = pg.JointState.uniform(2, 2)
        with pytest.raises(pg.InputError):
            pg.run_trajectory(game2x2, "extra", init, 0.1, 0)
        with pytest.raises(pg.InputError):
            pg.run_trajectory(game2x2, "extra", init, -0.1, 10)
        with pytest.raises(pg.InputError):
            pg.run_trajectory(game2x2, "extra", pg.JointState.uniform(3, 3), 0.1, 10)

    @pytest.mark.parametrize("counts", [dict(steps=2.5), dict(steps=4.0),
                                        dict(steps=5, record_every=1.5),
                                        dict(steps=5, record_every=np.float64(2.0)),
                                        dict(steps="5")])
    def test_counts_must_be_integers(self, game2x2, counts):
        with pytest.raises(pg.InputError, match="must be an integer"):
            pg.run_trajectory(game2x2, "mwu", pg.JointState.uniform(2, 2), 0.1, **counts)

    @pytest.mark.parametrize("steps, record_every, records", [
        (10**20, 10, 10**19 + 1),       # more record times than numpy can hold
        (2**63, 2**62, 3),              # a final time past int64
    ])
    def test_record_times_numpy_cannot_hold(self, game2x2, steps, record_every, records):
        with pytest.raises(pg.InputError, match=f"numpy cannot hold the {records} int64"):
            pg.run_trajectory(game2x2, "extra", pg.JointState.uniform(2, 2), 0.1, steps,
                              record_every=record_every)

    def test_numpy_integer_counts(self, game2x2):
        traj = pg.run_trajectory(game2x2, "mwu", pg.JointState.uniform(2, 2), 0.1,
                                 np.int64(5), record_every=np.int32(2))
        assert traj.times.tolist() == [0, 2, 4, 5]


class TestMaxStepSize:
    def test_alternating_game_is_one(self, game2x2):
        assert pg.max_step_size(game2x2) == pytest.approx(1.0, rel=1e-10)

    def test_scaled_identity(self):
        game = pg.PeriodicGame((2.0 * np.eye(2),))
        assert pg.max_step_size(game) == pytest.approx(0.5, rel=1e-10)

    def test_zero_schedule_sentinel(self):
        game = pg.PeriodicGame((np.zeros((2, 2)),))
        assert pg.max_step_size(game) == math.inf

    @pytest.mark.parametrize("mats", [
        *(pytest.param((m,), id=f"exp2-t{k}") for k, m in enumerate(EXP2)),
        *(pytest.param((m,), id=f"random-{k}")
          for k, m in enumerate(np.random.default_rng(8).normal(size=(5, 3, 4)))),
        # A^T A maps the all-ones vector to zero here.
        pytest.param((np.array([[1.0, -1.0], [-1.0, 1.0]]),), id="ones-null-space"),
        pytest.param(EXP2, id="exp2-schedule"),
    ])
    def test_against_svd(self, mats):
        top = max(np.linalg.svd(m, compute_uv=False)[0] for m in mats)
        game = pg.PeriodicGame(mats)
        assert pg.max_step_size(game) == pytest.approx(1.0 / top, rel=1e-10)


class TestReducedMap:
    def test_equilibrium_fixed(self):
        z = np.array([0.5, 0.5, 0.5, 0.5])
        out = pg.omwu_reduced_composite(z, 0.1)
        assert np.abs(out - z).max() < 1e-15

    def test_boundary_curve_fixed_point(self):
        z = pg.boundary_fixed_point(0.3, 0.1)
        out = pg.omwu_reduced_composite(z, 0.1)
        assert np.abs(out - z).max() < 1e-14

    def test_matches_full_dynamics(self, game2x2):
        rng = np.random.default_rng(9)
        for eta in (1e-3, 1e-2):
            for _ in range(200):
                cur = random_interior_joint(rng, 2, 2)
                prev = random_interior_joint(rng, 2, 2)
                traj = pg.run_trajectory(game2x2, "omwu", pg.OmwuState(cur, prev),
                                         eta, 200, record_every=1)
                z0 = np.array([prev.x1.probabilities[0], cur.x1.probabilities[0],
                               prev.x2.probabilities[0], cur.x2.probabilities[0]])
                red = pg.iterate_reduced(z0, eta, 100)
                x11 = traj.probabilities1[:, 0]
                x21 = traj.probabilities2[:, 0]
                k = np.arange(1, 101)
                rel = max(
                    (np.abs(red[1:, 1] - x11[2 * k]) / x11[2 * k]).max(),
                    (np.abs(red[1:, 3] - x21[2 * k]) / x21[2 * k]).max(),
                    (np.abs(red[1:, 0] - x11[2 * k - 1]) / x11[2 * k - 1]).max(),
                    (np.abs(red[1:, 2] - x21[2 * k - 1]) / x21[2 * k - 1]).max(),
                )
                assert rel < 1e-10

    def test_domain_validation(self):
        with pytest.raises(pg.InputError):
            pg.omwu_reduced_map("even", [0.5, 0.5, 0.5, 1.5], 0.1)
        with pytest.raises(pg.InputError):
            pg.omwu_reduced_map("sideways", [0.5] * 4, 0.1)
        # small excursions outside [0,1] are allowed for derivative probes
        pg.omwu_reduced_map("even", [-1e-6, 0.5, 0.5, 0.5], 0.1)

    def test_step_size_past_exp_rejected(self):
        # At the bound every corner of the admitted box maps to finite
        # coordinates; past it the step size is refused before any exp.
        eta = dynamics._REDUCED_ETA_MAX
        slack = dynamics._REDUCED_SLACK
        for z in itertools.product((-slack, 0.0, 1.0, 1.0 + slack), repeat=4):
            for parity in ("even", "odd"):
                assert np.isfinite(pg.omwu_reduced_map(parity, z, eta)).all()
        past = math.nextafter(eta, math.inf)
        for call in (lambda: pg.omwu_reduced_map("even", [0.5] * 4, past),
                     lambda: pg.iterate_reduced([0.5] * 4, past, 3)):
            with pytest.raises(pg.InputError, match="eta must be at most 235.886"):
                call()

    @pytest.mark.parametrize("i", range(4))
    def test_nan_coordinate_rejected(self, i):
        z = [0.4, 0.45, 0.55, 0.6]
        z[i] = math.nan
        for call in (lambda: pg.omwu_reduced_map("even", z, 0.05),
                     lambda: pg.omwu_reduced_map("odd", z, 0.05),
                     lambda: pg.omwu_reduced_composite(z, 0.05),
                     lambda: pg.iterate_reduced(z, 0.05, 3)):
            with pytest.raises(pg.InputError, match=r"must lie in \[0, 1\]"):
                call()

    @pytest.mark.parametrize("n_steps", [2.5, 3.0, np.float64(2.0), "3"])
    def test_step_count_must_be_an_integer(self, n_steps):
        with pytest.raises(pg.InputError, match="n_steps must be an integer"):
            pg.iterate_reduced([0.4, 0.45, 0.55, 0.6], 0.05, n_steps)

    def test_step_count_range(self):
        z = [0.4, 0.45, 0.55, 0.6]
        with pytest.raises(pg.InputError, match="n_steps must be >= 0"):
            pg.iterate_reduced(z, 0.05, -1)
        assert pg.iterate_reduced(z, 0.05, 0).tolist() == [z]
        path = pg.iterate_reduced(z, 0.05, np.int64(2))
        assert path.shape == (3, 4) and path[0].tolist() == z


class TestEtaBound:
    def test_symmetric_offset(self):
        init = pg.JointState.from_probabilities([0.45, 0.55], [0.45, 0.55])
        assert pg.omwu_eta_bound_for_divergence(init) == pytest.approx(
            (0.025 / 16.0) ** 2, rel=1e-9)

    def test_axis_point_rejected(self):
        init = pg.JointState.from_probabilities([0.5, 0.5], [0.4, 0.6])
        with pytest.raises(pg.InputError):
            pg.omwu_eta_bound_for_divergence(init)

    def test_asymmetric_offsets(self):
        init = pg.JointState.from_probabilities([0.2, 0.8], [0.3, 0.7])
        assert pg.omwu_eta_bound_for_divergence(init) == pytest.approx(
            3.90625e-5, rel=1e-9)


BAD_ETAS = [float("nan"), float("inf"), -float("inf"), 0.0, -0.05]


class TestStepSizeGuard:
    """Every entry point that takes a step size rejects a non-finite or
    non-positive one instead of returning NaNs."""

    @pytest.mark.parametrize("eta", BAD_ETAS)
    def test_one_step_rules(self, eta, game2x2):
        state = joint([0.45, 0.55], [0.45, 0.55])
        with pytest.raises(pg.InputError, match="eta must be a positive finite number"):
            pg.exp_weights_step(state.x1, [1.0, 0.0], eta)
        with pytest.raises(pg.InputError, match="eta must be a positive finite number"):
            pg.omwu_joint_step(game2x2, 0, pg.OmwuState.repeated(state), eta)
        with pytest.raises(pg.InputError, match="eta must be a positive finite number"):
            pg.extra_mwu_joint_step(game2x2.matrices[0], state, eta)

    @pytest.mark.parametrize("eta", BAD_ETAS)
    @pytest.mark.parametrize("algo", ["mwu", "omwu", "extra"])
    def test_run_trajectory(self, eta, algo, game2x2):
        init = joint([0.45, 0.55], [0.45, 0.55])
        with pytest.raises(pg.InputError, match="eta must be a positive finite number"):
            pg.run_trajectory(game2x2, algo, init, eta, 10)

    @pytest.mark.parametrize("eta", BAD_ETAS)
    def test_reduced_map(self, eta):
        z = [0.4, 0.45, 0.55, 0.6]
        with pytest.raises(pg.InputError, match="eta must be a positive finite number"):
            pg.omwu_reduced_map("even", z, eta)
        with pytest.raises(pg.InputError, match="eta must be a positive finite number"):
            pg.omwu_reduced_composite(z, eta)
        with pytest.raises(pg.InputError, match="eta must be a positive finite number"):
            pg.iterate_reduced(z, eta, 5)

    @pytest.mark.parametrize("eta", BAD_ETAS)
    def test_boundary_fixed_point(self, eta):
        with pytest.raises(pg.InputError, match="eta must be a positive finite number"):
            pg.boundary_fixed_point(0.3, eta)

    @pytest.mark.parametrize("eta", BAD_ETAS)
    def test_analytic_eigenvalues(self, eta):
        with pytest.raises(pg.InputError, match="eta must be a positive finite number"):
            pg.interior_eigenvalue_pair(eta)
        with pytest.raises(pg.InputError, match="eta must be a positive finite number"):
            pg.boundary_eigenvalue(0.3, eta)

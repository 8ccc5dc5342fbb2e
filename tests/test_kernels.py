"""Edge inputs and invariants of the trajectory kernels, on each backend."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import periodicgame as pg
from periodicgame import _kernels, _kernels_py
from periodicgame.simplex import kl_to_reference

from conftest import random_interior_joint

ALGOS = (_kernels.ALGO_MWU, _kernels.ALGO_OMWU, _kernels.ALGO_EXTRA)


def run(run_schedule, algo, mats, eta, steps, lw1, lw2, lwp1=None, lwp2=None, rec=None):
    """(out1, out2) recorded at every step (or at ``rec``)."""
    rec = np.arange(steps + 1, dtype=np.int64) if rec is None else rec
    out1 = np.empty((rec.size, lw1.size))
    out2 = np.empty((rec.size, lw2.size))
    lwp1 = lw1 if lwp1 is None else lwp1
    lwp2 = lw2 if lwp2 is None else lwp2
    written = run_schedule(algo, mats, eta, steps, rec, lw1.copy(), lw2.copy(),
                           lwp1, lwp2, out1, out2)
    assert written == rec.size
    return out1, out2


def _lse(rows):
    top = rows.max(axis=1, keepdims=True)
    return (top + np.log(np.exp(rows - top).sum(axis=1, keepdims=True)))[:, 0]


def _first_step(algo, game, init, eta):
    """The one-step oracle of dynamics.py for each rule."""
    a = game.matrices[0].entries
    if algo == _kernels.ALGO_MWU:
        return (pg.exp_weights_step(init.x1, a @ init.x2.probabilities, eta),
                pg.exp_weights_step(init.x2, -(a.T @ init.x1.probabilities), eta))
    if algo == _kernels.ALGO_OMWU:
        nxt = pg.omwu_joint_step(game, 0, pg.OmwuState.repeated(init), eta).current
    else:
        nxt = pg.extra_mwu_joint_step(game.matrices[0], init, eta)[1]
    return nxt.x1, nxt.x2


@pytest.mark.parametrize("algo", ALGOS)
def test_period_one(kernels, algo):
    # With T = 1 every step, and OMWU's wrapped previous matrix, use A_0.
    rng = np.random.default_rng(11)
    a = rng.normal(size=(1, 3, 4))
    init = random_interior_joint(rng, 3, 4)
    lw1, lw2 = init.x1.log_probabilities, init.x2.log_probabilities
    once = run(kernels.run_schedule, algo, a, 0.2, 50, lw1, lw2)
    twice = run(kernels.run_schedule, algo, np.concatenate([a, a]), 0.2, 50, lw1, lw2)
    assert np.array_equal(once[0], twice[0]) and np.array_equal(once[1], twice[1])
    x1, x2 = _first_step(algo, pg.PeriodicGame((pg.PayoffMatrix(a[0]),)), init, 0.2)
    assert np.abs(x1.log_probabilities - once[0][1]).max() < 1e-13
    assert np.abs(x2.log_probabilities - once[1][1]).max() < 1e-13


@pytest.mark.parametrize("algo", ALGOS)
def test_eta_at_max_step_size(kernels, algo, game2x2):
    eta = pg.max_step_size(game2x2)
    assert eta == 1.0
    lw = np.log([0.45, 0.55])
    out1, out2 = run(kernels.run_schedule, algo, game2x2.stacked(), eta, 2_000, lw, lw)
    assert np.isfinite(out1).all() and np.isfinite(out2).all()
    assert np.abs(_lse(out1)).max() < 1e-12 and np.abs(_lse(out2)).max() < 1e-12
    ref = run(_kernels_py.run_schedule_py, algo, game2x2.stacked(), eta, 2_000, lw, lw)
    assert np.array_equal(out1, ref[0]) and np.array_equal(out2, ref[1])


@pytest.mark.parametrize("algo", ALGOS)
def test_minus_inf_coordinate_stays_out(kernels, algo):
    # A coordinate with zero mass adds exact zeros to every sum, so the run
    # equals the run of the game without that row and column, bit for bit.
    rng = np.random.default_rng(12)
    mats = rng.normal(size=(3, 4, 3))
    lw1 = np.log(rng.dirichlet(np.ones(4)))
    lw2 = np.log(rng.dirichlet(np.ones(3)))
    lw1[2] = -np.inf
    lw2[0] = -np.inf
    lw1 -= np.logaddexp.reduce(lw1)
    lw2 -= np.logaddexp.reduce(lw2)
    full = run(kernels.run_schedule, algo, mats, 0.15, 200, lw1, lw2)
    keep1, keep2 = [0, 1, 3], [1, 2]
    sub_mats = np.ascontiguousarray(mats[:, keep1][:, :, keep2])
    sub = run(kernels.run_schedule, algo, sub_mats, 0.15, 200, lw1[keep1], lw2[keep2])
    assert (full[0][:, 2] == -np.inf).all() and (full[1][:, 0] == -np.inf).all()
    assert np.array_equal(full[0][:, keep1], sub[0])
    assert np.array_equal(full[1][:, keep2], sub[1])


def test_omwu_period_three_wraps_to_last_matrix(kernels):
    # At t = 0 OMWU's previous matrix is A_{-1} = A_2; matrix_at and the
    # one-step oracle agree with the kernel, which A_1 in its place would not.
    rng = np.random.default_rng(13)
    game = pg.PeriodicGame(tuple(pg.PayoffMatrix(a) for a in rng.normal(size=(3, 3, 3))))
    init = pg.OmwuState(random_interior_joint(rng, 3, 3), random_interior_joint(rng, 3, 3))
    cur, prev = init.current, init.previous
    out1, out2 = run(kernels.run_schedule, _kernels.ALGO_OMWU, game.stacked(), 0.1, 7,
                     cur.x1.log_probabilities, cur.x2.log_probabilities,
                     prev.x1.log_probabilities, prev.x2.log_probabilities)
    state = init
    for t in range(7):
        state = pg.omwu_joint_step(game, t, state, 0.1)
        assert np.abs(state.current.x1.log_probabilities - out1[t + 1]).max() < 1e-12
        assert np.abs(state.current.x2.log_probabilities - out2[t + 1]).max() < 1e-12
    wrong = (game.matrices[0], game.matrices[1], game.matrices[1])
    bad1, _ = run(kernels.run_schedule, _kernels.ALGO_OMWU, pg.PeriodicGame(wrong).stacked(),
                  0.1, 1, cur.x1.log_probabilities, cur.x2.log_probabilities,
                  prev.x1.log_probabilities, prev.x2.log_probabilities)
    assert np.abs(bad1[1] - out1[1]).max() > 1e-6


@pytest.mark.parametrize("algo", ALGOS)
@pytest.mark.parametrize("every", [2, 7, 50])
def test_record_every_k_is_every_kth_row(kernels, algo, every, game2x2):
    lw = np.log([0.3, 0.7])
    steps = 203
    dense = run(kernels.run_schedule, algo, game2x2.stacked(), 0.1, steps, lw, lw)
    rec = np.unique(np.append(np.arange(0, steps + 1, every), steps)).astype(np.int64)
    sparse = run(kernels.run_schedule, algo, game2x2.stacked(), 0.1, steps, lw, lw, rec=rec)
    assert np.array_equal(sparse[0], dense[0][rec])
    assert np.array_equal(sparse[1], dense[1][rec])


@st.composite
def _runs(draw):
    m, n = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    periods = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    game = pg.PeriodicGame(tuple(pg.PayoffMatrix(a) for a in rng.normal(size=(periods, m, n))))
    eta = draw(st.floats(0.01, 0.99)) * pg.max_step_size(game)
    return (draw(st.sampled_from(ALGOS)), game, eta, random_interior_joint(rng, m, n),
            random_interior_joint(rng, m, n))


@settings(max_examples=60, deadline=None)
@given(case=_runs())
def test_recorded_rows_stay_normalised_and_kl_is_a_divergence(kernels, case):
    algo, game, eta, init, ref = case
    lw1, lw2 = init.x1.log_probabilities, init.x2.log_probabilities
    out1, out2 = run(kernels.run_schedule, algo, game.stacked(), eta, 100, lw1, lw2)
    assert np.abs(_lse(out1)).max() <= 1e-12
    assert np.abs(_lse(out2)).max() <= 1e-12
    assert (kl_to_reference(ref, out1, out2) >= 0.0).all()
    for r in (0, 50, 100):
        state = pg.JointState(pg.Simplex(out1[r]), pg.Simplex(out2[r]))
        assert pg.kl_divergence(ref, state) >= 0.0
        assert pg.kl_divergence(state, state) == 0.0
        own = kl_to_reference(state, state.x1.log_probabilities[None, :],
                                         state.x2.log_probabilities[None, :])
        assert own[0] == 0.0


@st.composite
def _shifted_runs(draw):
    m, n = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    periods = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = rng.normal(size=(periods, m, n))
    eta = draw(st.floats(0.01, 0.99)) * pg.max_step_size(pg.PeriodicGame(tuple(mats)))
    return (draw(st.sampled_from(ALGOS)), mats, draw(st.floats(-5.0, 5.0)), eta,
            random_interior_joint(rng, m, n))


@settings(max_examples=60, deadline=None)
@given(case=_shifted_runs())
def test_payoff_shift_changes_nothing(kernels, case):
    # A_t + c adds c to every entry of both players' payoff vectors, a
    # uniform log-weight shift that normalisation removes; only rounding of
    # the shifted entries remains (at most 1.6e-13 over 3,000 seeded draws).
    algo, mats, c, eta, init = case
    lw1, lw2 = init.x1.log_probabilities, init.x2.log_probabilities
    plain = run(kernels.run_schedule, algo, mats, eta, 100, lw1, lw2)
    shifted = run(kernels.run_schedule, algo, mats + c, eta, 100, lw1, lw2)
    for a, b in zip(plain, shifted):
        assert np.abs(a - b).max() <= 1e-10

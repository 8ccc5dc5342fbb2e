"""claims-sweep: the paper's verification traffic, in process, closed loop.

Each round is a fixed mix of short seeded trajectories, each ending in a
verdict checked against the one the theory predicts (acceptance criteria
01/02/03/06 on trajectories, 04/05 on the reduced map's spectrum, 07 on the
Bregman identities, and the solver).  The mix is the same every round and
for every seed; the seed only draws the values.  Runs are grouped so several
inits share one game.  The kernel does most of the work here, `output` none.
"""

from __future__ import annotations

import numpy as np

import periodicgame as pg
from periodicgame.linalg import boundary_eigenvalue, interior_eigenvalue_pair

from common import Fingerprint, Op, common_game, paired, random_joint

NAME = "claims-sweep"
MIN_UNITS = 2
SETUP_REPEATS = 5
# Distinct seeded rounds made in set-up; later rounds reuse them in turn.
PREBUILT_ROUNDS = 24

EQ22 = pg.JointState.from_probabilities([0.5, 0.5], [0.5, 0.5])
GAME2X2 = pg.experiment_by_name("game2x2").game

C01_STEPS = 10_000     # the criterion-01 unit: one run plus its check
RATIO_STEPS = 1_000
INCR_STEPS = 6_000
MWU_STEPS = 3_000
REDUCED_STEPS = 30_000
# Every round has the same 32 ops in the same slots, so rounds cost the
# same, and op sizes are set so the latency percentiles fall inside groups
# of similar ops rather than in a gap between groups: 13 ops under 40 ms,
# 13 of 100-200 ms (the criterion-02 runs, MWU, increments, reduced map)
# around the median, and the 6 criterion-01 runs (~350 ms) at the top, a
# fifth of the ops, so p90 falls in the middle of that group.
# Criterion-02 steps shrink with the game size so those runs cost about the
# same.
C01_PER_ROUND = 6
C02_SHAPES = {(3, 3): 3_000, (4, 5): 2_400, (3, 6): 2_400, (6, 6): 1_600}
MWU_SHAPE = (5, 5)
SOLVE_SHAPES = ((2, 2), (3, 4), (5, 3), (6, 6))
COMMON_SIZES = (3, 6)
BREGMAN_DIMS = (2, 3, 4, 5)
# The spectral ops draw from the step sizes and curve points of acceptance
# criteria 04 and 05.  Away from them eigenvalues_small can fail to
# converge on the interior double eigenvalues (eta = 0.0855 is one case).
INTERIOR_ETAS = (0.01, 0.05, 0.1)
BOUNDARY_ETAS = (0.05, 0.1)
BOUNDARY_AS = tuple((k + 1) / 21.0 for k in range(20))

EXPECTED = {
    "kernels.run_schedule", "kernels.run_reduced_composite",
    "dynamics.run_trajectory", "dynamics.max_step_size", "dynamics.iterate_reduced",
    "dynamics.omwu_reduced_composite", "simplex.kl_to_reference",
    "checks.check_extra_kl_decrease", "checks.check_omwu_ratio_identities",
    "checks.check_omwu_increments", "checks.check_bregman_identities",
    "equilibrium.solve_zero_sum", "equilibrium.verify_equilibrium",
    "equilibrium.common_equilibrium",
    "linalg.jacobian_fd", "linalg.eigenvalues_small", "linalg.char_poly_eval",
}


def _round_inputs(seed, r):
    rng = np.random.default_rng([seed, r])
    inp = {"c01": [random_joint(rng, 2, 2) for _ in range(C01_PER_ROUND)], "c02": []}
    for i, ((m, n), steps) in enumerate(C02_SHAPES.items()):
        # A single non-square matrix has a continuum of equilibria, so KL
        # to the constructed one can stall; two or more pin it down.
        period = 1 + (r + i) % 4 if m == n else 2 + (r + i) % 3
        game, eq = common_game(rng, m, n, period)
        inp["c02"].append((game, eq, steps, [random_joint(rng, m, n) for _ in range(2)]))
    m, n = MWU_SHAPE
    game, eq = common_game(rng, m, n, 1 + r % 4)
    inp["mwu"] = [(game, eq, [random_joint(rng, m, n) for _ in range(2)])]
    inp["ratio"] = [(eta, random_joint(rng, 2, 2)) for eta in (1e-3, 1e-2) for _ in range(2)]
    inp["incr"] = [tuple(rng.uniform(0.04, 0.1, size=2)) for _ in range(2)]
    inp["interior_eta"] = float(rng.choice(INTERIOR_ETAS))
    inp["boundary"] = (float(rng.choice(BOUNDARY_AS)), float(rng.choice(BOUNDARY_ETAS)))
    inp["reduced"] = 0.5 + rng.uniform(-0.03, 0.03, size=4)
    inp["bregman"] = [(tuple(pg.Simplex.from_probabilities(rng.dirichlet(np.ones(dim)))
                             for _ in range(3)), rng.normal(size=dim) * 2.0)
                      for dim in BREGMAN_DIMS for _ in range(12)]
    inp["solve"] = [pg.PayoffMatrix(rng.normal(size=shape)) for shape in SOLVE_SHAPES]
    inp["common"] = [common_game(rng, k, k, 2 + i) for i, k in enumerate(COMMON_SIZES)]
    return inp


def setup(seed, workdir, src, speed):
    return {"rounds": [_round_inputs(seed, r) for r in range(PREBUILT_ROUNDS)],
            "eig_err": 0.0, "c01_slowest": 0.0, "fingerprint": Fingerprint(),
            "fingerprint_open": True}


# Each op returns (verdict ok, kernel steps, records, trajectory or None).

def _op_c01(state, init):
    traj = pg.run_trajectory(GAME2X2, "extra", init, 0.5, C01_STEPS,
                             record_every=1, reference=EQ22)
    report = pg.check_extra_kl_decrease(traj, EQ22, tol=1e-12)
    ok = report.passed and traj.kl_to_ref[-1] < 1e-6
    return ok, C01_STEPS, traj.n_records, traj


def _op_c02(state, game, eq, steps, init):
    eta = 0.9 * pg.max_step_size(game)
    traj = pg.run_trajectory(game, "extra", init, eta, steps,
                             record_every=1, reference=eq)
    report = pg.check_extra_kl_decrease(traj, eq, tol=1e-12)
    ok = report.passed and traj.kl_to_ref[-1] < traj.kl_to_ref[0]
    return ok, steps, traj.n_records, traj


def _op_mwu(state, game, eq, init):
    eta = 0.9 * pg.max_step_size(game)
    traj = pg.run_trajectory(game, "mwu", init, eta, MWU_STEPS,
                             record_every=1, reference=eq)
    return traj.kl_to_ref[-1] > traj.kl_to_ref[0], MWU_STEPS, traj.n_records, traj


def _op_ratio(state, eta, init):
    traj = pg.run_trajectory(GAME2X2, "omwu", init, eta, RATIO_STEPS, record_every=1)
    ok = pg.check_omwu_ratio_identities(traj, eta, tol=1e-10).passed
    return ok, RATIO_STEPS, traj.n_records, traj


def _op_incr(state, offsets):
    o1, o2 = offsets
    init = pg.JointState.from_probabilities([0.5 - o1, 0.5 + o1], [0.5 - o2, 0.5 + o2])
    # Shrink p by a hair so rounding in the stored probabilities cannot put
    # the start below the hypothesis 1/2 + 2p.
    p = 0.5 * min(o1, o2) * (1.0 - 1e-9)
    eta = (p / 16.0) ** 2
    traj = pg.run_trajectory(GAME2X2, "omwu", init, eta, INCR_STEPS,
                             record_every=1, reference=EQ22)
    ok = pg.check_omwu_increments(traj, p, eta).passed
    return ok, INCR_STEPS, traj.n_records, traj


def _composite(eta):
    return lambda z: pg.omwu_reduced_composite(z, eta)


def _op_interior(state, eta):
    jac = pg.jacobian_fd(_composite(eta), np.full(4, 0.5))
    lo, hi = interior_eigenvalue_pair(eta)
    residual = max(abs(pg.char_poly_eval(jac, lo)), abs(pg.char_poly_eval(jac, hi)))
    eigs = pg.eigenvalues_small(jac)
    err = max(min(abs(z - lo), abs(z - hi)) for z in eigs)
    state["eig_err"] = max(state["eig_err"], float(err))
    ok = residual <= 1e-7 and np.abs(eigs).max() >= 1.0 + eta * eta / 4.0
    return ok, 0, 0, None


def _op_boundary(state, a, eta):
    z = pg.boundary_fixed_point(a, eta)
    residual = np.abs(pg.omwu_reduced_composite(z, eta) - z).max()
    jac = pg.jacobian_fd(_composite(eta), z)
    mods = np.sort(np.abs(pg.eigenvalues_small(jac)))
    expect = np.sort([0.0, 0.0, 1.0, boundary_eigenvalue(a, eta)])
    err = float(np.abs(mods - expect).max())
    state["eig_err"] = max(state["eig_err"], err)
    return residual <= 1e-12 and err <= 1e-6, 0, 0, None


def _op_reduced(state, z0):
    # The interior equilibrium is unstable: iterates drift toward the boundary.
    out = pg.iterate_reduced(z0, 0.05, REDUCED_STEPS)
    edge = np.minimum(out, 1.0 - out).min(axis=1)
    ok = bool(np.isfinite(out).all()) and edge[-1] < edge[0]
    return ok, 0, 0, None


def _op_bregman(state, cases):
    ok = all(pg.check_bregman_identities(p, x, xp, y, tol=1e-10).passed
             for (p, x, xp), y in cases)
    return ok, 0, 0, None


def _op_solve(state, a):
    res = pg.solve_zero_sum(a)
    # Independent certificate: best-response gap from the raw matrix.
    x, y, m = res.x_star.probabilities, res.y_star.probabilities, a.entries
    v = x @ m @ y
    gap = max((m @ y).max() - v, v - (m.T @ x).min())
    return gap <= 1e-9 and abs(v - res.value) <= 1e-9, 0, 0, None


def _op_common(state, game, eq):
    res = pg.common_equilibrium(game)
    ok = res is not None and max(
        np.abs(res.x_star.probabilities - eq.x1.probabilities).max(),
        np.abs(res.y_star.probabilities - eq.x2.probabilities).max()) <= 1e-8
    return ok, 0, 0, None


def _ops(inp):
    """The round's ops in execution order: (kind, fn, args)."""
    ops = [("c01", _op_c01, (init,)) for init in inp["c01"]]
    for game, eq, steps, inits in inp["c02"]:
        ops += [("c02", _op_c02, (game, eq, steps, init)) for init in inits]
    for game, eq, inits in inp["mwu"]:
        ops += [("mwu_kl", _op_mwu, (game, eq, init)) for init in inits]
    ops += [("omwu_ratio", _op_ratio, args) for args in inp["ratio"]]
    ops += [("omwu_incr", _op_incr, (offsets,)) for offsets in inp["incr"]]
    ops += [("spectral_interior", _op_interior, (inp["interior_eta"],)),
            ("spectral_boundary", _op_boundary, inp["boundary"]),
            ("reduced", _op_reduced, (inp["reduced"],)),
            ("bregman", _op_bregman, (inp["bregman"],))]
    ops += [("solve", _op_solve, (a,)) for a in inp["solve"]]
    ops += [("common_eq", _op_common, args) for args in inp["common"]]
    return ops


def _attempt(fn, state, args):
    try:
        ok, steps, records, traj = fn(state, *args)
    except (pg.InputError, pg.NumericalError) as exc:
        return False, 0, 0, None, repr(exc)
    return bool(ok), steps, records, traj, "" if ok else "verdict differs from the prediction"


def unit(state, k, tracer=None):
    """Round k.  The fingerprint covers the first round 0 only, which every
    run makes."""
    inp = state["rounds"][k % PREBUILT_ROUNDS]
    ops = []
    for kind, fn, args in _ops(inp):
        runs = paired(tracer, f"bench.{kind}", lambda: _attempt(fn, state, args),
                      lambda result: result, state["speed"])
        for traced, seconds, (ok, steps, records, traj, note) in runs:
            if kind == "c01" and not traced:
                state["c01_slowest"] = max(state["c01_slowest"], seconds)
            if k == 0 and state["fingerprint_open"] and traj is not None and not traced:
                state["fingerprint"].arrays(traj.log_probs1, traj.log_probs2,
                                            traj.kl_to_ref, traj.min_component)
            ops.append(Op(kind, seconds, ok, steps, records, note, traced))
    if k == 0:
        state["fingerprint_open"] = False
    return ops


def layer_extras(state):
    return {"linalg.eig_abs_err_max": (state["eig_err"], "abs"),
            "checks.gate_c01_slowest_s": (state["c01_slowest"], "s")}

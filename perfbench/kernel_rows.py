"""Kernel steps/s on fixed inputs, comparable across versions.

The 2x2 rows and the reduced-map row keep the inputs of the earlier
backend benchmark: game2x2 from log(0.45, 0.55), eta 0.1 / 0.01 / 0.1 for
MWU / OMWU / Extra-MWU, and the composite map from z = 0.45 at eta 1e-3.
The 3x3 rows run exp1 and the 6x6 rows a fixed generated period-2 game, at
the same step sizes.  Each row is the median of three timings.
"""

from __future__ import annotations

import statistics

import numpy as np

import periodicgame as pg
from periodicgame import _kernels

from common import clock

ALGOS = (("mwu", _kernels.ALGO_MWU, 0.1), ("omwu", _kernels.ALGO_OMWU, 0.01),
         ("extra", _kernels.ALGO_EXTRA, 0.1))
STEPS = {"2x2": 10_000, "3x3": 5_000, "6x6": 2_000}
REDUCED_STEPS = 25_000
REPEATS = 3


def _games():
    rng = np.random.default_rng(6)
    x = pg.Simplex.from_probabilities(rng.dirichlet(np.full(6, 5.0)))
    y = pg.Simplex.from_probabilities(rng.dirichlet(np.full(6, 5.0)))
    six = pg.PeriodicGame(tuple(pg.generate_common_equilibrium_game(
        x, y, pg.PayoffMatrix(rng.normal(size=(6, 6)))) for _ in range(2)))
    return {"2x2": pg.experiment_by_name("game2x2").game,
            "3x3": pg.experiment_by_name("exp1").game, "6x6": six}


def _time_schedule(algo, mats, eta, steps):
    k = mats.shape[1]
    lw = np.log(np.full(k, 0.45 / (k - 1)))
    lw[-1] = np.log(0.55)
    rec = np.array([0, steps], dtype=np.int64)
    out1, out2 = np.empty((2, k)), np.empty((2, k))
    start = clock()
    _kernels.run_schedule(algo, mats, eta, steps, rec, lw.copy(), lw.copy(),
                          lw.copy(), lw.copy(), out1, out2)
    return clock() - start


def _time_reduced(steps):
    out = np.empty((steps + 1, 4))
    start = clock()
    _kernels.run_reduced_composite(np.full(4, 0.45), 1e-3, steps, out)
    return clock() - start


def rows():
    """{metric name: steps per second}."""
    result = {}
    for shape, game in _games().items():
        mats = game.stacked()
        for label, code, eta in ALGOS:
            steps = STEPS[shape]
            t = statistics.median(_time_schedule(code, mats, eta, steps)
                                  for _ in range(REPEATS))
            result[f"kernels.steps_per_s.{label}.{shape}"] = steps / t
    t = statistics.median(_time_reduced(REDUCED_STEPS) for _ in range(REPEATS))
    result["kernels.reduced.steps_per_s"] = REDUCED_STEPS / t
    return result

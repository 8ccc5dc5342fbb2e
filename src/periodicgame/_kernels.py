"""Hot inner loops for trajectory iteration.

Every kernel is written as plain scalar numpy/math code so that it runs
unchanged either JIT-compiled by numba or as ordinary Python.  The backend
is chosen once at import time: numba is used when it imports and
``PERIODICGAME_NO_NUMBA`` does not disable it (set it to ``1`` to force the
pure-Python path); otherwise the pure-Python kernels run.  The traced
claims-sweep run of ``perfbench/run.py`` reports kernel steps/s for
whichever backend is active, so running it with and without the flag
compares the two.

Log-weights passed in must already be normalized log-probabilities; the
kernels keep them normalized after every step.
"""

import math
import os

import numpy as np

ALGO_MWU = 0
ALGO_OMWU = 1
ALGO_EXTRA = 2


def _numba_requested() -> bool:
    flag = os.environ.get("PERIODICGAME_NO_NUMBA", "").strip().lower()
    return flag in ("", "0", "false", "no")


USING_NUMBA = False
if _numba_requested():
    try:
        from numba import njit

        USING_NUMBA = True
    except ImportError:
        USING_NUMBA = False

if USING_NUMBA:
    _jit = njit(cache=True)
else:
    def _jit(func):
        return func


def backend_name() -> str:
    return "numba" if USING_NUMBA else "python"


@_jit
def _lse_normalize(lw):
    # In-place log-softmax: afterwards logsumexp(lw) == 0.
    m = lw[0]
    for i in range(1, lw.size):
        if lw[i] > m:
            m = lw[i]
    s = 0.0
    for i in range(lw.size):
        s += math.exp(lw[i] - m)
    c = m + math.log(s)
    for i in range(lw.size):
        lw[i] = lw[i] - c


@_jit
def _exp_into(lw, out):
    for i in range(lw.size):
        out[i] = math.exp(lw[i])


@_jit
def _matvec(a, x, out):
    for i in range(a.shape[0]):
        acc = 0.0
        for j in range(a.shape[1]):
            acc += a[i, j] * x[j]
        out[i] = acc


@_jit
def _mat_t_vec(a, x, out):
    for j in range(a.shape[1]):
        acc = 0.0
        for i in range(a.shape[0]):
            acc += a[i, j] * x[i]
        out[j] = acc


@_jit
def run_schedule(algo, mats, eta, steps, rec_times, lw1, lw2, lwp1, lwp2, out1, out2):
    """Iterate one of the three update rules over the periodic schedule.

    mats: (T, m, n).  lw1/lw2: normalized log-probs of the current state,
    updated in place.  lwp1/lwp2: previous state (OMWU only).  Recorded
    states (normalized log-probs) land in out1/out2 at the times listed in
    rec_times, which must be sorted and include the final step.
    """
    periods = mats.shape[0]
    m = mats.shape[1]
    n = mats.shape[2]
    p1 = np.empty(m)
    p2 = np.empty(n)
    q1 = np.empty(m)
    q2 = np.empty(n)
    v1 = np.empty(m)
    v2 = np.empty(n)
    w1 = np.empty(m)
    w2 = np.empty(n)
    h1 = np.empty(m)
    h2 = np.empty(n)

    _exp_into(lw1, p1)
    _exp_into(lw2, p2)
    _exp_into(lwp1, q1)
    _exp_into(lwp2, q2)

    r = 0
    if rec_times[0] == 0:
        for i in range(m):
            out1[0, i] = lw1[i]
        for j in range(n):
            out2[0, j] = lw2[j]
        r = 1

    for t in range(steps):
        a = mats[t % periods]
        if algo == ALGO_MWU:
            _matvec(a, p2, v1)
            _mat_t_vec(a, p1, v2)
            for i in range(m):
                lw1[i] += eta * v1[i]
            for j in range(n):
                lw2[j] -= eta * v2[j]
        elif algo == ALGO_OMWU:
            ap = mats[(t - 1) % periods]
            _matvec(a, p2, v1)
            _mat_t_vec(a, p1, v2)
            _matvec(ap, q2, w1)
            _mat_t_vec(ap, q1, w2)
            for i in range(m):
                q1[i] = p1[i]
            for j in range(n):
                q2[j] = p2[j]
            for i in range(m):
                lw1[i] += eta * (2.0 * v1[i] - w1[i])
            for j in range(n):
                lw2[j] -= eta * (2.0 * v2[j] - w2[j])
        else:
            _matvec(a, p2, v1)
            _mat_t_vec(a, p1, v2)
            for i in range(m):
                h1[i] = lw1[i] + eta * v1[i]
            for j in range(n):
                h2[j] = lw2[j] - eta * v2[j]
            _lse_normalize(h1)
            _lse_normalize(h2)
            _exp_into(h1, q1)
            _exp_into(h2, q2)
            _matvec(a, q2, w1)
            _mat_t_vec(a, q1, w2)
            # Second step restarts from the pre-half-step state.
            for i in range(m):
                lw1[i] += eta * w1[i]
            for j in range(n):
                lw2[j] -= eta * w2[j]
        _lse_normalize(lw1)
        _lse_normalize(lw2)
        _exp_into(lw1, p1)
        _exp_into(lw2, p2)
        if r < rec_times.size and rec_times[r] == t + 1:
            for i in range(m):
                out1[r, i] = lw1[i]
            for j in range(n):
                out2[r, j] = lw2[j]
            r += 1
    return r


@_jit
def reduced_even(z, eta, out):
    # Two-step map applied from an even time index of the 2x2
    # alternating game; exponents follow from x_2 = 1 - x_1 on each simplex.
    z1 = z[0]
    z2 = z[1]
    z3 = z[2]
    z4 = z[3]
    e1 = math.exp(-3.0 * eta + 4.0 * eta * z4 + 2.0 * eta * z3)
    e2 = math.exp(3.0 * eta - 4.0 * eta * z2 - 2.0 * eta * z1)
    out[0] = z2
    out[1] = z2 / (z2 + (1.0 - z2) * e1)
    out[2] = z4
    out[3] = z4 / (z4 + (1.0 - z4) * e2)


@_jit
def reduced_odd(z, eta, out):
    # Companion map applied from an odd time index.
    z1 = z[0]
    z2 = z[1]
    z3 = z[2]
    z4 = z[3]
    e1 = math.exp(3.0 * eta - 4.0 * eta * z4 - 2.0 * eta * z3)
    e2 = math.exp(-3.0 * eta + 4.0 * eta * z2 + 2.0 * eta * z1)
    out[0] = z2
    out[1] = z2 / (z2 + (1.0 - z2) * e1)
    out[2] = z4
    out[3] = z4 / (z4 + (1.0 - z4) * e2)


@_jit
def run_reduced_composite(z0, eta, n_steps, out):
    """Iterate (even-map o odd-map) n_steps times, recording every iterate."""
    z = np.empty(4)
    w = np.empty(4)
    for k in range(4):
        z[k] = z0[k]
        out[0, k] = z0[k]
    for step in range(n_steps):
        reduced_odd(z, eta, w)
        reduced_even(w, eta, z)
        for k in range(4):
            out[step + 1, k] = z[k]

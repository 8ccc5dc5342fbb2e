import math
import os
import shutil

import numpy as np
import pytest

import periodicgame as pg
from periodicgame import _kernels, _kernels_py
from periodicgame.simplex import LOG_ZERO, fold_columns


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def clean_env(**updates):
    """os.environ without ``CC``, with this checkout's src first on
    PYTHONPATH so child processes import the tree under test, plus
    ``updates``."""
    env = {k: v for k, v in os.environ.items() if k != "CC"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.update(updates)
    return env


@pytest.fixture(scope="session")
def native_kernels():
    """The C kernels of the session, built with ``$CC``; where the session
    runs on the Python fallback (a ``$CC`` that names no compiler or cannot
    build the library), the ones built with the default ``cc``, skipped only
    where no ``cc`` is on PATH."""
    if _kernels.backend_name() == "native":
        return _kernels._active
    if shutil.which("cc") is None:
        pytest.skip("no C compiler 'cc' on PATH")
    lib, reason = _kernels._load(clean_env())
    assert lib is not None, reason
    return _kernels._bind(lib)


@pytest.fixture(scope="session", params=["native", "python"])
def kernels(request):
    """Each backend's kernels in turn."""
    if request.param == "python":
        return _kernels_py._PYTHON
    return request.getfixturevalue("native_kernels")


@pytest.fixture(scope="session")
def game2x2():
    return pg.experiment_by_name("game2x2").game


@pytest.fixture(scope="session")
def rps():
    return pg.PayoffMatrix([[0, -1, 1], [1, 0, -1], [-1, 1, 0]])


def random_interior_joint(rng, m, n, concentration=1.0):
    return pg.JointState.from_probabilities(
        rng.dirichlet(np.full(m, concentration)),
        rng.dirichlet(np.full(n, concentration)),
    )


def generated_periodic_game(rng, m, n, period, concentration=5.0):
    """A schedule sharing one interior equilibrium, plus that equilibrium."""
    x = pg.Simplex.from_probabilities(rng.dirichlet(np.full(m, concentration)))
    y = pg.Simplex.from_probabilities(rng.dirichlet(np.full(n, concentration)))
    mats = tuple(
        pg.generate_common_equilibrium_game(x, y, pg.PayoffMatrix(rng.normal(size=(m, n))))
        for _ in range(period)
    )
    return pg.PeriodicGame(mats), pg.JointState(x, y)


# Oracles: the KL routines as they were before they went column by column,
# for the parity tests of the code that replaced them.

def old_kl_rows(ref, log_probs):
    """KL(ref, row) per row: the masked block against the reference's masked
    vectors, folded over its columns."""
    rp = ref.probabilities
    mask = rp > 0.0
    sub = log_probs[:, mask]
    contrib = fold_columns(np.add, rp[mask] * (ref.log_probabilities[mask] - sub))
    contrib[fold_columns(np.logical_or, sub < LOG_ZERO)] = math.inf
    return contrib


def old_kl_simplex(p, q):
    return max(float(old_kl_rows(p, q.log_probabilities[None, :])[0]), 0.0)


# Oracles: the Simplex validators as they were before each became one or two
# NaN-propagating reductions, for the parity tests of the code that replaced
# them.  Each takes the float64 vector its constructor validates.

def old_check_log_weights(lw):
    if np.isnan(lw).any() or np.isposinf(lw).any():
        raise pg.InputError("log_weights must not contain NaN or +inf")
    if not np.isfinite(lw).any():
        raise pg.InputError("log_weights must contain at least one finite entry")
    return lw


def old_log_weights_from_probabilities(p):
    """The log-weights Simplex.from_probabilities built from ``p``."""
    if (p < 0).any() or not np.isfinite(p).all():
        raise pg.InputError("probabilities must be finite and nonnegative")
    # An overflowing sum raises the error below without numpy's warning.
    with np.errstate(over="ignore"):
        total = p.sum()
    if not math.isclose(total, 1.0, rel_tol=0.0, abs_tol=1e-9):
        raise pg.InputError(f"probabilities must sum to 1, got {float(total)!r}")
    with np.errstate(divide="ignore"):
        return old_check_log_weights(np.log(p / total))

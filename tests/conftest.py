import os
import shutil
import types

import numpy as np
import pytest

import periodicgame as pg
from periodicgame import _kernels


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def clean_env(**updates):
    """os.environ without the backend overrides, with this checkout's src
    first on PYTHONPATH so child processes import the tree under test, plus
    ``updates``."""
    env = {k: v for k, v in os.environ.items() if k not in ("CC", "PERIODICGAME_BACKEND")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.update(updates)
    return env


@pytest.fixture(scope="session")
def native_kernels():
    """The C kernels built with the default compiler, whatever CC or
    PERIODICGAME_BACKEND select for the session; skipped only where no
    ``cc`` is on PATH."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler 'cc' on PATH")
    lib, reason = _kernels._load(clean_env())
    assert lib is not None, reason
    names = ("run_schedule", "run_reduced_composite", "format_csv_rows", "format_points")
    return types.SimpleNamespace(**dict(zip(names, _kernels._bind(lib))))


@pytest.fixture(scope="session", params=["native", "python"])
def kernels(request):
    """Each backend's kernels in turn."""
    if request.param == "python":
        return types.SimpleNamespace(run_schedule=_kernels.run_schedule_py,
                                     run_reduced_composite=_kernels.run_reduced_composite_py)
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

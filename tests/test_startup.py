"""What a process loads: ``import periodicgame`` nothing, each CLI command
only the modules it runs, the front end (``--backend-info``, ``--help``,
usage and config errors) no numpy, and the package namespace the same names
and objects as the modules that define them.

Each start-up case runs a fresh interpreter without bytecode caches, as the
CLI's users and its benchmark start it, and lists ``sys.modules`` after the
command."""

import json
import pkgutil
import subprocess
import sys

import pytest

import periodicgame as pg
from periodicgame.cli import build_parser, main

from conftest import clean_env

# Every command's process holds these besides its own modules.
BASE = {"cli", "errors"}

PROBE = (
    "import contextlib, io, json, sys\n"
    "from periodicgame import cli\n"
    "out = io.StringIO()\n"
    "with contextlib.redirect_stdout(out):\n"
    "    try:\n"
    "        code = cli.main(sys.argv[1:])\n"
    "    except SystemExit as exc:   # argparse's --help and usage errors\n"
    "        code = exc.code\n"
    "kernels = sys.modules.get('periodicgame._kernels')\n"
    "print(json.dumps([code, sorted(sys.modules), kernels and kernels.backend_name(),\n"
    "                  out.getvalue()]))\n"
)


def _probe(argv, **env):
    """(exit code, every module loaded, the kernel backend or None, stdout,
    stderr) of ``cli.main(argv)`` in a fresh process."""
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], capture_output=True, text=True,
                          env=clean_env(PYTHONDONTWRITEBYTECODE="1", **env), timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, modules, backend, out = json.loads(proc.stdout.splitlines()[-1])
    return code, modules, backend, out, proc.stderr


def _ours(modules):
    return {m.split(".", 1)[1] for m in modules if m.startswith("periodicgame.")}


def _loaded(argv, **env):
    """(exit code, the periodicgame modules loaded, the kernel backend or
    None) of ``cli.main(argv)`` in a fresh process."""
    code, modules, backend, _, _ = _probe(argv, **env)
    return code, _ours(modules), backend


@pytest.fixture(scope="module")
def exp1_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("startup") / "exp1.csv"
    assert main(["experiment", "exp1", "--steps", "200", "--out-csv", str(path)]) == 0
    return str(path)


def test_import_loads_no_module_and_no_numpy():
    script = "import json, sys, periodicgame; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=clean_env(PYTHONDONTWRITEBYTECODE="1"), timeout=120)
    modules = json.loads(proc.stdout)
    assert [m for m in modules if m.startswith("periodicgame.")] == []
    assert "numpy" not in modules


@pytest.mark.parametrize("argv, allowed", [
    (["--backend-info"], {"_kernels"}),
    (["analyze", "eigen", "--eta", "0.1"], {"dynamics", "simplex", "linalg", "_kernels"}),
    (["analyze", "eigen", "--eta", "0.1", "--boundary-a", "0.3"],
     {"dynamics", "simplex", "linalg", "_kernels", "checks"}),
    (["analyze", "fixed-curve", "--eta", "0.05", "--samples", "3"],
     {"checks", "dynamics", "simplex", "_kernels"}),
], ids=["backend-info", "analyze-eigen", "analyze-eigen-boundary", "analyze-fixed-curve"])
def test_command_loads_only_its_modules(argv, allowed):
    code, ours, _ = _loaded(argv)
    assert code == 0
    assert ours <= BASE | allowed, sorted(ours - BASE - allowed)


@pytest.mark.parametrize("cc", [None, "periodicgame-no-cc"], ids=["default-cc", "no-cc"])
def test_backend_info_loads_no_numpy(cc):
    env = {} if cc is None else {"CC": cc}
    code, modules, backend, out, _ = _probe(["--backend-info"], **env)
    assert "numpy" not in modules and _ours(modules) <= BASE | {"_kernels"}, sorted(modules)
    # The library's cache key is hashed without OpenSSL.
    assert "_hashlib" not in modules
    assert code == 0
    name, reason = out.splitlines()
    assert name == f"kernel backend: {backend}" and reason.startswith(f"{backend}: ")
    if cc is not None:
        assert out == ("kernel backend: python\n"
                       "python: compiler 'periodicgame-no-cc' not found\n")


def test_help_loads_no_numpy(monkeypatch):
    # argparse wraps the help to $COLUMNS, so both processes get one width.
    monkeypatch.setenv("COLUMNS", "80")
    code, modules, _, out, _ = _probe(["--help"], COLUMNS="80")
    assert "numpy" not in modules and _ours(modules) <= BASE, sorted(modules)
    assert (code, out) == (0, build_parser().format_help())


# Every config error that the arguments alone decide is made before the
# handler imports anything, numpy among them.
@pytest.mark.parametrize("argv, error", [
    (["experiment", "--algo", "sgd"], "error: argument --algo: invalid choice"),
    (["experiment", "--list", "--all"], "config error: --list"),
    (["experiment", "--seed", "-1", "exp1"], "config error: --seed"),
    (["experiment", "--all", "--out-csv", "x.csv"], "config error: --out-csv"),
    (["experiment", "exp1", "--out-dir", "o"], "config error: --out-dir"),
    (["experiment", "exp1", "--log-y"], "config error: --log-y"),
    (["experiment"], "config error: experiment name required"),
    (["experiment", "exp1", "--all"], "config error: --all"),
    (["verify", "bregman", "--cases", "0"], "config error: --cases"),
    (["verify", "bregman", "--dim", "1"], "config error: --dim"),
    (["verify", "bregman", "--seed", "-1"], "config error: --seed"),
    (["analyze", "fixed-curve", "--samples", "0"], "config error: --samples"),
    (["experiment", "exp1", "--out-csv", "f", "--out-svg", "./f"], "config error: --out-svg"),
    (["plot", "--in-csv", "f", "--out-svg", "f"], "config error: --out-svg"),
], ids=["usage-error", "experiment-list-with-all", "experiment-seed", "experiment-all-out-csv",
        "experiment-out-dir", "experiment-log-y", "experiment-no-name",
        "experiment-name-with-all", "bregman-cases", "bregman-dim", "bregman-seed",
        "fixed-curve-samples", "experiment-one-file-twice", "plot-over-its-csv"])
def test_argument_error_loads_no_numpy(argv, error):
    code, modules, _, out, err = _probe(argv)
    assert "numpy" not in modules and _ours(modules) <= BASE, sorted(modules)
    assert (code, out) == (1, "")
    assert err.splitlines()[-1].startswith(error), err


def test_plot_loads_only_the_emitters(exp1_csv, tmp_path):
    code, ours, _ = _loaded(["plot", "--in-csv", exp1_csv, "--out-svg", str(tmp_path / "x.svg")])
    assert code == 0
    assert ours <= BASE | {"output", "_kernels"}, sorted(ours)


@pytest.mark.parametrize("argv, excluded", [
    (["verify", "orbit", "--steps", "300", "--expect", "inconclusive"],
     {"equilibrium", "output", "linalg"}),
    (["verify", "identities", "--steps", "100"], {"equilibrium", "output", "linalg"}),
    (["verify", "increments", "--steps", "100"], {"equilibrium", "output", "linalg"}),
    (["experiment", "exp1", "--steps", "100"], {"output", "checks", "linalg"}),
    (["experiment", "--all", "--steps", "100"], {"output", "checks", "linalg"}),
], ids=["verify-orbit", "verify-identities", "verify-increments", "experiment",
        "experiment-all"])
def test_command_skips_what_it_does_not_run(argv, excluded):
    code, ours, _ = _loaded(argv)
    assert code in (0, 3)   # a verdict either way; the modules are the point
    assert not ours & excluded, sorted(ours & excluded)


@pytest.mark.parametrize("cc", [None, "periodicgame-no-cc"], ids=["default-cc", "no-cc"])
def test_python_backend_module_loads_only_without_the_library(cc):
    env = {} if cc is None else {"CC": cc}
    _, ours, backend = _loaded(["experiment", "game2x2", "--steps", "100"], **env)
    if cc is not None:
        assert backend == "python"
    assert ("_kernels_py" in ours) == (backend == "python")


def test_python_backend_module_may_load_first():
    # _kernels, loading on the Python backend, imports _kernels_py, which
    # imports names from _kernels: either may be the first one imported.
    script = ("from periodicgame import _kernels_py, _kernels\n"
              "print(_kernels.run_schedule is _kernels_py.run_schedule_py)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=clean_env(CC="periodicgame-no-cc"), timeout=120)
    assert proc.stdout.split() == ["True"], proc.stderr


def test_racing_first_kernel_reads_bind_one_backend_namespace():
    # Threads that read kernels for the first time at once may each bind
    # them all; every name must end up from the one namespace in _active.
    script = (
        "import sys, threading\n"
        "from periodicgame import _kernels\n"
        "sys.setswitchinterval(1e-6)\n"
        "threads = [threading.Thread(target=getattr, args=(_kernels, name))\n"
        "           for name in _kernels._KERNELS * 4]\n"
        "for thread in threads:\n"
        "    thread.start()\n"
        "for thread in threads:\n"
        "    thread.join(60)\n"
        "print(not any(thread.is_alive() for thread in threads),\n"
        "      all(getattr(_kernels, name) is getattr(_kernels._active, name)\n"
        "          for name in _kernels._KERNELS))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=clean_env(), timeout=120)
    assert proc.stdout.split() == ["True", "True"], proc.stderr


# The names the package bound eagerly, by module, before it became lazy.
EAGER = {
    "_kernels": ["backend_name", "backend_reason"],
    "checks": ["OrbitVerdict", "PropertyReport", "Violation", "boundary_fixed_point",
               "check_bregman_identities", "check_extra_kl_decrease", "check_omwu_increments",
               "check_omwu_ratio_identities", "detect_periodic_orbit"],
    "dynamics": ["Algorithm", "OmwuState", "exp_weights_step", "extra_mwu_joint_step",
                 "iterate_reduced", "max_step_size", "omwu_eta_bound_for_divergence",
                 "omwu_joint_step", "omwu_reduced_composite", "omwu_reduced_map",
                 "run_trajectory"],
    "equilibrium": ["EquilibriumResult", "common_equilibrium",
                    "generate_common_equilibrium_game", "solve_zero_sum",
                    "verify_equilibrium"],
    "errors": ["ConfigError", "InputError", "NumericalError"],
    "experiments": ["ExperimentSpec", "RunConfig", "builtin_experiments", "default_init",
                    "experiment_by_name", "parse_config", "run_experiment"],
    "linalg": ["boundary_eigenvalue", "char_poly_eval", "eigenvalues_small",
               "interior_eigenvalue_pair", "jacobian_fd", "unit_eigenvector"],
    "output": ["emit_csv", "emit_svg_plot", "read_csv"],
    "simplex": ["LOG_ZERO", "JointState", "PayoffMatrix", "PeriodicGame", "Simplex",
                "Trajectory", "kl_divergence", "kl_simplex", "normalize_log_weights"],
}
EAGER_NAMES = [name for names in EAGER.values() for name in names]


class TestNamespace:
    def test_every_name_is_public(self):
        assert sorted(pg.__all__) == sorted(EAGER_NAMES)
        assert set(EAGER_NAMES) <= set(dir(pg))
        assert pg.__version__ == "0.1.0"

    @pytest.mark.parametrize("module", sorted(EAGER))
    def test_names_are_the_modules_objects(self, module):
        values = {name: getattr(pg, name) for name in EAGER[module]}
        defining = sys.modules[f"periodicgame.{module}"]
        for name, value in values.items():
            assert value is getattr(defining, name), name

    def test_every_module_is_an_attribute(self):
        modules = [info.name for info in pkgutil.iter_modules(pg.__path__)]
        assert {"_kernels_py", "cli", *EAGER} <= set(modules)
        for name in modules:
            assert getattr(pg, name) is sys.modules[f"periodicgame.{name}"]
            assert name in dir(pg)

    def test_star_import(self):
        namespace = {}
        exec("from periodicgame import *", namespace)
        assert {name: namespace[name] for name in EAGER_NAMES} == {
            name: getattr(pg, name) for name in EAGER_NAMES}

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            pg.no_such_name
        assert not hasattr(pg, "random")   # a module name, but not one of the package's

    def test_patched_then_restored_name(self):
        # A tracer wraps a module's function while it runs and puts it back:
        # the package must neither pick up the wrapper nor keep it.  A fresh
        # process, so that the name has not been read before.
        script = (
            "import periodicgame as pg\n"
            "from periodicgame import linalg\n"
            "original = linalg.jacobian_fd\n"
            "linalg.jacobian_fd = lambda *args: None\n"
            "during = pg.jacobian_fd\n"
            "linalg.jacobian_fd = original\n"
            "print(during is original, pg.jacobian_fd is original)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=clean_env(), timeout=120)
        assert proc.stdout.split() == ["True", "True"], proc.stderr

"""The C kernels must agree with the pure-Python reference bit for bit, and
the backend switch must build, load and report the kernel it says."""

import itertools
import shutil
import subprocess
import sys

import numpy as np
import pytest

import periodicgame as pg
from periodicgame import _kernels

from conftest import clean_env

ALGOS = (_kernels.ALGO_MWU, _kernels.ALGO_OMWU, _kernels.ALGO_EXTRA)
HAVE_CC = shutil.which("cc") is not None


def _start(rng, k, boundary):
    lw = np.log(rng.dirichlet(np.ones(k)))
    if boundary:
        lw[rng.integers(k)] = -np.inf
        lw -= np.logaddexp.reduce(lw)
    return lw


def _run(fn, algo, mats, eta, steps, rec, lw1, lw2, lwp1, lwp2):
    lw1, lw2 = lw1.copy(), lw2.copy()
    out1 = np.empty((rec.size, lw1.size))
    out2 = np.empty((rec.size, lw2.size))
    written = fn(algo, mats, eta, steps, rec, lw1, lw2, lwp1, lwp2, out1, out2)
    return written, lw1, lw2, out1, out2


def _assert_same(a, b):
    assert a[0] == b[0]
    for x, y in zip(a[1:], b[1:]):
        assert np.array_equal(x, y)


class TestNativeMatchesPython:
    @pytest.mark.parametrize("algo", ALGOS)
    @pytest.mark.parametrize("shape", [(2, 2), (2, 5), (3, 4), (6, 6)])
    def test_run_schedule_bitwise(self, native_kernels, algo, shape):
        m, n = shape
        rng = np.random.default_rng(100 * m + 10 * n + algo)
        steps = 300
        for periods, boundary, dense in itertools.product((1, 2, 3, 4), (False, True),
                                                          (True, False)):
            mats = rng.normal(size=(periods, m, n))
            rec = (np.arange(steps + 1) if dense
                   else np.array([0, 1, 7, 150, steps])).astype(np.int64)
            args = (algo, mats, rng.uniform(0.01, 0.3), steps, rec,
                    _start(rng, m, boundary), _start(rng, n, boundary),
                    _start(rng, m, boundary), _start(rng, n, boundary))
            native = _run(native_kernels.run_schedule, *args)
            assert native[0] == rec.size
            _assert_same(native, _run(_kernels.run_schedule_py, *args))

    def test_omwu_past_the_boundary_bitwise(self, native_kernels, game2x2):
        # Long enough for probabilities to underflow through subnormals to 0.
        lw = np.log([0.45, 0.55])
        rec = np.arange(0, 40_001, 100, dtype=np.int64)
        args = (_kernels.ALGO_OMWU, game2x2.stacked(), 0.3, 40_000, rec, lw, lw, lw, lw)
        native = _run(native_kernels.run_schedule, *args)
        assert (np.exp(native[3]) == 0.0).any()
        _assert_same(native, _run(_kernels.run_schedule_py, *args))

    @pytest.mark.parametrize("eta", [1e-3, 0.02, 0.3])
    def test_reduced_composite_bitwise(self, native_kernels, eta):
        for z0 in ([0.41, 0.47, 0.53, 0.61], [0.0, 0.3, 1.0, 0.9], [0.5, 0.5, 0.5, 0.5]):
            outs = [np.empty((2001, 4)) for _ in range(2)]
            native_kernels.run_reduced_composite(np.array(z0), eta, 2000, outs[0])
            _kernels.run_reduced_composite_py(np.array(z0), eta, 2000, outs[1])
            assert np.array_equal(outs[0], outs[1])

    def test_overflow_raises_like_math_exp(self, native_kernels):
        for fn in (native_kernels.run_reduced_composite, _kernels.run_reduced_composite_py):
            with pytest.raises(OverflowError):
                fn(np.array([0.1, 0.9, 0.1, 0.9]), 500.0, 3, np.empty((4, 4)))


class TestNativeWrapper:
    def _args(self, **over):
        args = dict(algo=_kernels.ALGO_MWU, mats=np.ones((1, 2, 3)), eta=0.1, steps=2,
                    rec_times=np.array([0, 2]), lw1=np.log(np.full(2, 0.5)),
                    lw2=np.log(np.full(3, 1 / 3)), lwp1=np.log(np.full(2, 0.5)),
                    lwp2=np.log(np.full(3, 1 / 3)), out1=np.empty((2, 2)), out2=np.empty((2, 3)))
        args.update(over)
        return args

    def test_inputs_are_converted(self, native_kernels):
        # Lists and a strided array go through np.ascontiguousarray.
        ref = self._args()
        conv = self._args(mats=ref["mats"].tolist(), rec_times=[0, 2],
                          lwp1=list(ref["lwp1"]), lwp2=np.repeat(ref["lwp2"], 2)[::2])
        assert native_kernels.run_schedule(*ref.values()) == 2
        assert native_kernels.run_schedule(*conv.values()) == 2
        assert np.array_equal(ref["out1"], conv["out1"])
        assert np.array_equal(ref["lw2"], conv["lw2"])

    @pytest.mark.parametrize("name, bad", [
        ("out1", np.empty((2, 4))[:, ::2]),
        ("out2", np.empty((2, 3), dtype=np.float32)),
        ("out1", np.empty((1, 2))),
        ("lw1", np.log(np.full(4, 0.25))[::2]),
        ("lw2", np.zeros(4)),
        ("mats", np.ones((0, 2, 3))),
    ])
    def test_bad_buffers_rejected(self, native_kernels, name, bad):
        with pytest.raises(pg.InputError):
            native_kernels.run_schedule(*self._args(**{name: bad}).values())

    def test_reduced_buffers_rejected(self, native_kernels):
        z0 = np.full(4, 0.5)
        with pytest.raises(pg.InputError):
            native_kernels.run_reduced_composite(z0, 0.1, 5, np.empty((5, 4)))
        with pytest.raises(pg.InputError):
            native_kernels.run_reduced_composite(np.full(3, 0.5), 0.1, 5, np.empty((6, 4)))


SCRIPT = (
    "import sys\n"
    "import numpy as np\n"
    "import periodicgame as pg\n"
    "print(pg.backend_name())\n"
    "print(pg.backend_reason())\n"
    "g = pg.experiment_by_name('game2x2').game\n"
    "init = pg.JointState.from_probabilities([0.45, 0.55], [0.45, 0.55])\n"
    "t = pg.run_trajectory(g, 'omwu', init, 0.01, 50, record_every=1)\n"
    "np.save(sys.argv[1], t.log_probs1)\n"
)


def _child(tmp_path, name, **env):
    out = tmp_path / f"{name}.npy"
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(out)], capture_output=True, text=True,
        env=clean_env(XDG_CACHE_HOME=str(tmp_path / name), **env), check=True)
    backend, reason = proc.stdout.splitlines()
    return backend, reason, np.load(out)


def test_env_flag_selects_python_backend(tmp_path):
    default = _child(tmp_path, "default")
    forced = _child(tmp_path, "forced", PERIODICGAME_BACKEND="python")
    no_cc = _child(tmp_path, "no_cc", CC="/nonexistent/cc")
    if HAVE_CC:
        library = next((tmp_path / "default" / "periodicgame").glob("_kernels-*.so"))
        assert default[:2] == ("native", f"native: compiled {library}")
    else:
        assert default[:2] == ("python", "python: compiler 'cc' not found")
    assert forced[:2] == ("python", "python: PERIODICGAME_BACKEND=python")
    assert no_cc[:2] == ("python", "python: compiler '/nonexistent/cc' not found")
    assert np.array_equal(default[2], forced[2])
    assert np.array_equal(default[2], no_cc[2])


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler 'cc' on PATH")
def test_concurrent_first_imports_leave_one_library(tmp_path):
    env = clean_env(XDG_CACHE_HOME=str(tmp_path))
    cmd = [sys.executable, "-c", "import periodicgame as pg; print(pg.backend_reason())"]
    procs = [subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
             for _ in range(2)]
    reasons = [p.communicate(timeout=300)[0].strip() for p in procs]
    assert [p.returncode for p in procs] == [0, 0]
    files = list((tmp_path / "periodicgame").iterdir())
    assert len(files) == 1 and files[0].suffix == ".so"
    for reason in reasons:
        assert reason in (f"native: compiled {files[0]}", f"native: cached {files[0]}")
    again = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
    assert again.stdout.strip() == f"native: cached {files[0]}"


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler 'cc' on PATH")
def test_cached_import_starts_no_process(tmp_path):
    env = clean_env(XDG_CACHE_HOME=str(tmp_path))
    path, how = _kernels._build_library(env)
    assert how == "compiled"
    script = ("import subprocess\n"
              "def refuse(*args, **kwargs):\n"
              "    raise OSError('no process may start')\n"
              "subprocess.run = subprocess.Popen = refuse\n"
              "import periodicgame as pg\n"
              "print(pg.backend_reason())\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == f"native: cached {path}"


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler 'cc' on PATH")
class TestFallbackReasons:
    def test_compile_error(self, tmp_path):
        lib, reason = _kernels._load(clean_env(XDG_CACHE_HOME=str(tmp_path),
                                               CC="cc -fno-such-flag"))
        assert lib is None
        assert reason.startswith("python: 'cc' exited with 1: ")
        assert list((tmp_path / "periodicgame").iterdir()) == []

    def test_unwritable_cache(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        lib, reason = _kernels._load(clean_env(XDG_CACHE_HOME=str(blocker)))
        assert lib is None
        assert reason.startswith(f"python: cache {blocker / 'periodicgame'} not writable")

    def test_library_that_does_not_load(self, tmp_path):
        env = clean_env(XDG_CACHE_HOME=str(tmp_path))
        path, how = _kernels._build_library(env)
        assert how == "compiled"
        with open(path, "wb") as fh:
            fh.write(b"not a shared object")
        lib, reason = _kernels._load(env)
        assert lib is None
        assert reason.startswith(f"python: cannot load {path}: ")

    def test_unknown_backend_name(self):
        lib, reason = _kernels._load(clean_env(PERIODICGAME_BACKEND="fortran"))
        assert lib is None
        assert reason == "python: PERIODICGAME_BACKEND='fortran' is not 'native' or 'python'"

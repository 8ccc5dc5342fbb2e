"""The C kernels must agree with the pure-Python reference bit for bit, the
C formatters byte for byte, and the backend switch must build, load and
report the kernel it says."""

import io
import itertools
import shutil
import subprocess
import sys

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


def _csv_bytes(fn, times, phases, cells):
    fh = io.BytesIO()
    fn(times, phases, cells, fh)
    return fh.getvalue()


def _point_bytes(fn, xy):
    fh = io.BytesIO()
    fn(xy, fh)
    return fh.getvalue()


def _from_bits(*bits):
    return np.array(bits, dtype=np.uint64).view(np.float64)


# NaN with either sign bit, +-inf, +-0, the smallest subnormal, +-DBL_MAX.
SPECIAL = np.concatenate([
    _from_bits(0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
               0xFFFFFFFFFFFFFFFF),
    [np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324,
     1.7976931348623157e308, -1.7976931348623157e308],
])
_SCALE_LIMIT = 2.0**53 / 1000
_POINTS = st.tuples(st.integers(0, 60), st.just(2))


def _bit_patterns(shape):
    """float64 arrays drawn as raw bit patterns: every NaN, inf, subnormal
    and normal value can appear."""
    return hnp.arrays(np.uint64, shape).map(lambda a: a.view(np.float64))


class TestFormattersMatchPython:
    """The native formatters write the bytes of the *_py reference."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), rows=st.integers(0, 40), k=st.integers(1, 6))
    def test_csv_rows_bytes(self, native_kernels, data, rows, k):
        ints = hnp.arrays(np.int64, rows)
        args = (data.draw(ints), data.draw(ints), data.draw(_bit_patterns((rows, k))))
        assert (_csv_bytes(native_kernels.format_csv_rows, *args)
                == _csv_bytes(_kernels.format_csv_rows_py, *args))

    def test_csv_rows_special_values(self, native_kernels):
        cells = np.concatenate([SPECIAL, [1 / 3, -2.5e-5, 1e16, 1e17, 123456789.0]])
        cells = np.repeat(cells[:, None], 3, axis=1)
        times = np.arange(len(cells)) * 1_000_000_007 - 2**62
        args = (times, times % 7, cells)
        native = _csv_bytes(native_kernels.format_csv_rows, *args)
        assert native == _csv_bytes(_kernels.format_csv_rows_py, *args)
        assert b"-nan" not in native and b",nan,nan,nan\n" in native

    @settings(max_examples=300, deadline=None)
    @given(xy=st.one_of(_bit_patterns(_POINTS), hnp.arrays(np.float64, _POINTS,
                                                         elements=st.floats(-1e13, 1e13))))
    def test_points_bytes(self, native_kernels, xy):
        assert (_point_bytes(native_kernels.format_points, xy)
                == _point_bytes(_kernels.format_points_py, xy))

    def test_points_special_values(self, native_kernels):
        thousandth_ties = (np.arange(800_000) + 0.5) / 1000
        exact_ties = np.arange(1, 20_001, 2) / 16        # v * 1000 == k + 0.5
        past_limit = _SCALE_LIMIT * np.array([1.0, 1 + 2**-52, 2.0, 1e3, 1e290])
        values = np.concatenate([
            SPECIAL, thousandth_ties, exact_ties, past_limit,
            [np.nextafter(_SCALE_LIMIT, 0), -0.0004, 0.0004999999999999999]])
        xy = np.column_stack([values, -values])
        native = _point_bytes(native_kernels.format_points, xy)
        assert native == _point_bytes(_kernels.format_points_py, xy)
        assert native.startswith(b"nan,nan nan,nan ")
        assert b" -0.000,0.000 " in native
        assert b" 0.062,-0.062 " in native                 # 0.0625: the tie goes to even

    def test_csv_rows_exact_digits_boundaries(self, native_kernels):
        # The integer path serves 1e-16 < |v| < 1e16: exact 18-digit ties
        # (2^-25 is 2.98023223876953125e-08), powers of ten and their
        # neighbours, the range edges, and the values next to %g's switch
        # between exponent and fixed style.  The double 1e-14 lies below
        # 10^-14 and its 17 digits carry up to it.
        tens = 10.0 ** np.arange(-17, 18)
        values = np.concatenate([
            2.0 ** -np.arange(1, 61), tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf),
            [np.nextafter(e, d) for e in (1e-16, 1e16) for d in (0, np.inf)],
            [np.nextafter(1e-4, 0), np.nextafter(1e-5, 0)]])
        cells = np.column_stack([values, -values])
        times = np.arange(len(cells))
        native = _csv_bytes(native_kernels.format_csv_rows, times, times, cells)
        assert native == _csv_bytes(_kernels.format_csv_rows_py, times, times, cells)
        assert b",2.9802322387695312e-08," in native     # the tie goes to even
        assert b",1e-14," in native

    def test_csv_rows_million_decades(self, native_kernels):
        # Decimal exponents uniform over [-20, 20]: most values take the
        # integer path, the rest snprintf.
        rng = np.random.default_rng(11)
        cells = (rng.uniform(1, 10, 1_000_000) * 10.0 ** rng.integers(-20, 21, 1_000_000)
                 * rng.choice([-1.0, 1.0], 1_000_000)).reshape(-1, 4)
        times = np.arange(len(cells))
        assert (_csv_bytes(native_kernels.format_csv_rows, times, times, cells)
                == _csv_bytes(_kernels.format_csv_rows_py, times, times, cells))

    def test_blocks_join_seamlessly(self, native_kernels):
        # More bytes than one native block, so the output spans several.
        xy = np.random.default_rng(0).uniform(-1e6, 1e6, size=(60_000, 2))
        cells = np.random.default_rng(1).normal(size=(30_000, 5))
        times = np.arange(len(cells))
        assert (_point_bytes(native_kernels.format_points, xy)
                == _point_bytes(_kernels.format_points_py, xy))
        assert (_csv_bytes(native_kernels.format_csv_rows, times, times % 3, cells)
                == _csv_bytes(_kernels.format_csv_rows_py, times, times % 3, cells))


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler 'cc' on PATH")
def test_csv_rows_without_int128(tmp_path):
    # Without unsigned __int128 every cell goes through snprintf.
    lib, reason = _kernels._load(clean_env(CC="cc -U__SIZEOF_INT128__",
                                           XDG_CACHE_HOME=str(tmp_path)))
    assert lib is not None, reason
    format_csv_rows = _kernels._bind(lib)[2]
    cells = np.concatenate([SPECIAL, 2.0 ** -np.arange(1, 61), 10.0 ** np.arange(-17, 18),
                            np.random.default_rng(12).normal(size=400)])
    cells = np.column_stack([cells, -cells])
    times = np.arange(len(cells))
    assert (_csv_bytes(format_csv_rows, times, times, cells)
            == _csv_bytes(_kernels.format_csv_rows_py, times, times, cells))


LOCALE_SCRIPT = (
    "import io, locale, os, sys\n"
    "import numpy as np\n"
    "from periodicgame import _kernels\n"
    "locale.setlocale(locale.LC_ALL, sys.argv[1])\n"
    "print(locale.localeconv()['decimal_point'])\n"
    "native = _kernels._bind(_kernels._load(os.environ)[0])\n"
    "xy = np.array([[0.5, -1e300], [1 / 3, 2.0**53], [float('nan'), 1e-9]])\n"
    "t = np.arange(3)\n"
    "for fn, ref, args in ((native[2], _kernels.format_csv_rows_py, (t, t, xy)),\n"
    "                      (native[3], _kernels.format_points_py, (xy,))):\n"
    "    out = [io.BytesIO(), io.BytesIO()]\n"
    "    fn(*args, out[0])\n"
    "    ref(*args, out[1])\n"
    "    print(out[0].getvalue() == out[1].getvalue())\n"
)


@pytest.mark.skipif(not (HAVE_CC and shutil.which("localedef")),
                    reason="needs 'cc' and 'localedef' on PATH")
@pytest.mark.parametrize("name, point", [("de_DE", ","), ("ps_AF", "\u066b")])
def test_formatters_ignore_the_locale_decimal_point(tmp_path, name, point):
    # Python's % operator always writes '.', while snprintf follows
    # LC_NUMERIC; the locale is compiled into a private LOCPATH.
    build = subprocess.run(["localedef", "-i", name, "-f", "UTF-8",
                            str(tmp_path / f"{name}.UTF-8")], capture_output=True)
    if build.returncode != 0:
        pytest.skip(f"cannot build the {name} locale: {build.stderr[-200:]!r}")
    proc = subprocess.run(
        [sys.executable, "-c", LOCALE_SCRIPT, f"{name}.UTF-8"], capture_output=True,
        text=True, check=True, env=clean_env(LOCPATH=str(tmp_path)))
    assert proc.stdout.split() == [point, "True", "True"]


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

    def test_formatter_shapes_rejected(self, native_kernels):
        fh = io.BytesIO()
        t = np.arange(3)
        for times, cells in ((t[:2], np.ones((3, 2))), (t, np.ones(3))):
            with pytest.raises(pg.InputError):
                native_kernels.format_csv_rows(times, t, cells, fh)
        for xy in (np.ones(4), np.ones((2, 3))):
            with pytest.raises(pg.InputError):
                native_kernels.format_points(xy, fh)
        assert fh.getvalue() == b""

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

"""The C kernels must agree with the pure-Python reference bit for bit, the
C formatters byte for byte, and the backend switch must build, load and
report the kernel it says."""

import collections
import ctypes
import ctypes.util
import hashlib
import io
import itertools
import math
import re
import shutil
import subprocess
import sys
import warnings
from fractions import Fraction
from unittest import mock

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import periodicgame as pg
from periodicgame import _kernels, _kernels_py, output
from periodicgame.simplex import LOG_ZERO, fold_columns, kl_to_reference, smallest_component

from conftest import clean_env, old_kl_rows

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
            _assert_same(native, _run(_kernels_py.run_schedule_py, *args))

    def test_omwu_past_the_boundary_bitwise(self, native_kernels, game2x2):
        # Long enough for probabilities to underflow through subnormals to 0.
        lw = np.log([0.45, 0.55])
        rec = np.arange(0, 40_001, 100, dtype=np.int64)
        args = (_kernels.ALGO_OMWU, game2x2.stacked(), 0.3, 40_000, rec, lw, lw, lw, lw)
        native = _run(native_kernels.run_schedule, *args)
        assert (np.exp(native[3]) == 0.0).any()
        _assert_same(native, _run(_kernels_py.run_schedule_py, *args))

    @pytest.mark.parametrize("eta", [1e-3, 0.02, 0.3])
    def test_reduced_composite_bitwise(self, native_kernels, eta):
        for z0 in ([0.41, 0.47, 0.53, 0.61], [0.0, 0.3, 1.0, 0.9], [0.5, 0.5, 0.5, 0.5]):
            outs = [np.empty((2001, 4)) for _ in range(2)]
            native_kernels.run_reduced_composite(np.array(z0), eta, 2000, outs[0])
            _kernels_py.run_reduced_composite_py(np.array(z0), eta, 2000, outs[1])
            assert np.array_equal(outs[0], outs[1])

    def test_overflow_raises_like_math_exp(self, native_kernels):
        for fn in (native_kernels.run_reduced_composite, _kernels_py.run_reduced_composite_py):
            with pytest.raises(OverflowError):
                fn(np.array([0.1, 0.9, 0.1, 0.9]), 500.0, 3, np.empty((4, 4)))


def _csv_bytes(fn, times, phases, cells):
    fh = io.BytesIO()
    fn(times, phases, cells, fh)
    return fh.getvalue()


# Axes under which a plot coordinate is the value itself, -0 and all:
# -0.0 + ((v * 1 - 0) / 1 * 1) == v.
IDENTITY_AXES = (1.0, 0.0, 1.0, 1.0, -0.0) * 2


def old_plot_extent(xy, log_y):
    """The oracle of output._kept_extent, plot_extent_py as it was before
    the extent left the backends: (kept, t_lo, t_hi, v_lo, v_hi) of the
    points with t and v finite and v > 0 under ``log_y``, with math.log10 of
    every kept v under log_y, and the first minimum and maximum of each
    column as argmin/argmax take them; inf, -inf, inf, -inf with no point
    kept."""
    keep = np.isfinite(xy[:, 0]) & np.isfinite(xy[:, 1])
    if log_y:
        keep &= xy[:, 1] > 0
    ts, vs = xy[keep, 0], xy[keep, 1]
    if log_y:
        vs = np.array(list(map(math.log10, vs.tolist())), dtype=np.float64)
    if not ts.size:
        return 0, math.inf, -math.inf, math.inf, -math.inf
    return (ts.size, float(ts[ts.argmin()]), float(ts[ts.argmax()]),
            float(vs[vs.argmin()]), float(vs[vs.argmax()]))


def _kept(xy, log_y):
    """output._kept_extent's kept points and extent of the series ``xy``
    (inf, -inf, inf, -inf for none), checked against the oracle bit for
    bit, and raising no RuntimeWarning; a series that keeps every point is
    not copied."""
    xy = np.ascontiguousarray(xy, dtype=np.float64)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        kept, extent = output._kept_extent(xy, log_y)
    extent = extent or (math.inf, -math.inf, math.inf, -math.inf)
    count, *old = old_plot_extent(xy, log_y)
    assert len(kept) == count and (kept is xy) == (count == len(xy))
    assert np.array(extent).tobytes() == np.array(old).tobytes()
    return kept, extent


def _format(kernels, kept, log_y, axes):
    fh = io.BytesIO()
    kernels.format_plot_points(kept, log_y, axes, fh)
    return fh.getvalue()


def _assert_plot_parity(native, xy, log_y=False, axes=IDENTITY_AXES):
    """The keep-and-extent step on ``xy`` against its oracle, then native's
    format pass on the kept points against the Python fallback's; returns
    the kept points, their extent and the written bytes."""
    kept, extent = _kept(xy, log_y)
    got = _format(native, kept, log_y, axes)
    with np.errstate(all="ignore"):
        assert got == _format(_kernels_py._PYTHON, kept, log_y, axes)
    return kept, extent, got


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


# Positive finite doubles at which log10 is checked: powers of ten and
# their neighbours, subnormals, powers of two down to 2^-1074, the
# neighbours of 1, random values and bit patterns, and DBL_MAX.
_TENS = 10.0 ** np.arange(-323, 309)
_RNG = np.random.default_rng(14)
LOG10_VALUES = np.concatenate([
    _TENS, np.nextafter(_TENS, 0), np.nextafter(_TENS, np.inf),
    _from_bits(*range(1, 40)), 2.0 ** -np.arange(1022, 1075),
    1 + np.arange(-40, 41) * 2.0**-52, _RNG.uniform(0.5, 2, 500),
    _RNG.integers(1, 0x7FF0000000000000, 3000, dtype=np.int64).view(np.float64),
    [1.7976931348623157e308]])


def _with_log10_examples(test):
    """``test`` with the subnormals, powers of ten and their neighbours of
    LOG10_VALUES as explicit hypothesis examples."""
    for x in LOG10_VALUES[:3 * len(_TENS) + 39].tolist():
        test = example(x=x)(test)
    return test


@settings(max_examples=500, deadline=None)
@_with_log10_examples
@given(x=st.floats(min_value=5e-324, max_value=1.7976931348623157e308))
def test_log10_is_monotone(x):
    # output takes log10 of a log-y series' two extremes only, which equal
    # the extremes of every point's log10 because log10 never decreases.
    assert math.log10(x) <= math.log10(math.nextafter(x, math.inf))


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
                == _csv_bytes(_kernels_py.format_csv_rows_py, *args))

    def test_csv_rows_special_values(self, native_kernels):
        cells = np.concatenate([SPECIAL, [1 / 3, -2.5e-5, 1e16, 1e17, 123456789.0]])
        cells = np.repeat(cells[:, None], 3, axis=1)
        times = np.arange(len(cells)) * 1_000_000_007 - 2**62
        args = (times, times % 7, cells)
        native = _csv_bytes(native_kernels.format_csv_rows, *args)
        assert native == _csv_bytes(_kernels_py.format_csv_rows_py, *args)
        assert b"-nan" not in native and b",nan,nan,nan\n" in native

    @settings(max_examples=300, deadline=None)
    @given(xy=st.one_of(_bit_patterns(_POINTS), hnp.arrays(np.float64, _POINTS,
                                                         elements=st.floats(-1e13, 1e13))),
           log_y=st.booleans(),
           axes=st.one_of(st.just(IDENTITY_AXES), hnp.arrays(np.float64, 10)))
    def test_points_bytes(self, native_kernels, xy, log_y, axes):
        _assert_plot_parity(native_kernels, xy, log_y, axes)

    def test_points_special_values(self, native_kernels):
        thousandth_ties = (np.arange(800_000) + 0.5) / 1000
        exact_ties = np.arange(1, 20_001, 2) / 16        # v * 1000 == k + 0.5
        past_limit = _SCALE_LIMIT * np.array([1.0, 1 + 2**-52, 2.0, 1e3, 1e290])
        values = np.concatenate([
            SPECIAL, thousandth_ties, exact_ties, past_limit,
            [np.nextafter(_SCALE_LIMIT, 0), -0.0004, 0.0004999999999999999]])
        xy = np.column_stack([values, -values])
        native = _assert_plot_parity(native_kernels, xy)[2]
        # The NaN and inf points are dropped, and no space leads.
        assert native.startswith(b"0.000,-0.000 -0.000,0.000 0.000,-0.000 -0.000,0.000 ")
        assert b" 0.062,-0.062 " in native                 # 0.0625: the tie goes to even
        assert b" 9007199254740.992,-9007199254740.992 " in native    # snprintf
        # Under log_y every point with v <= 0 goes too.
        _assert_plot_parity(native_kernels, xy[:, ::-1], log_y=True)
        _assert_plot_parity(native_kernels, xy, log_y=True)

    @pytest.mark.parametrize("log_y", [False, True])
    def test_plot_series_adversarial(self, native_kernels, log_y, tmp_path):
        tiny = np.array([5e-324, -5e-324, 2.2250738585072014e-308, 1e-310])
        rng = np.random.default_rng(13)
        cases = {
            "nonfinite": np.array([[np.nan, 1.0], [0.0, np.nan], [np.inf, 2.0], [1.0, -np.inf],
                                   [2.0, 3.0], [-np.inf, np.inf], [3.0, 0.5]]),
            "zero_ties": np.array([[0.0, -0.0], [-0.0, 0.0]]),
            "subnormals": np.column_stack([tiny, tiny[::-1]]),
            "past_limit": np.column_stack([_SCALE_LIMIT * np.array([1.0, 3.0, -2.0, 1e290]),
                                           -_SCALE_LIMIT * np.array([1.0, 5.0, 2.0, 1e-3])]),
            "nonpositive": np.array([[0.0, 0.0], [1.0, -1.0], [2.0, -0.0], [3.0, 1e-300],
                                     [4.0, 5e-324], [5.0, 1e300], [6.0, -np.inf]]),
            "all_dropped": np.array([[np.nan, 1.0], [1.0, np.nan], [np.inf, -1.0]]),
            "empty": np.empty((0, 2)),
            "wide": rng.uniform(-1, 1, size=(2000, 2)) * 1e308,
            "random_bits": rng.integers(0, 2**64, size=(4000, 2),
                                        dtype=np.uint64).view(np.float64),
        }
        for name, xy in cases.items():
            kept, extent = _kept(xy, log_y)
            # The axes emit_svg_plot would build for this series alone, so
            # spans past the float range take the halving path, and those
            # of the identity axes.
            axes = (output._scale(extent[0], extent[1], 712, 72)
                    + output._scale(extent[3], extent[2], 536, 16))
            for ax in (IDENTITY_AXES, axes):
                written = _assert_plot_parity(native_kernels, xy, log_y, ax)[2]
                assert (written == b"") == (len(kept) == 0), name
            # emit_svg_plot drops what the keep step drops, and counts it.
            path = tmp_path / f"{name}.svg"
            if len(kept):
                output.emit_svg_plot([(name, xy)], str(path), log_y)
                assert (f"<!-- dropped {len(xy) - len(kept)} non-finite points -->"
                        in path.read_text()), name
            else:
                with pytest.raises(pg.InputError, match="every data point was dropped"):
                    output.emit_svg_plot([(name, xy)], str(path), log_y)
        kept, extent = output._kept_extent(cases["all_dropped"], log_y)
        assert kept.shape == (0, 2) and extent is None
        # The first of a +0/-0 tie is the extreme, as argmin/argmax take it.
        t_lo, t_hi, v_lo, v_hi = _kept(cases["zero_ties"], False)[1]
        assert [math.copysign(1, e) for e in (t_lo, t_hi, v_lo, v_hi)] == [1, 1, -1, -1]
        # The wide series' x span overflows: k = 0.5.
        wide = _kept(cases["wide"], False)[1]
        assert output._scale(wide[0], wide[1], 712, 72)[0] == 0.5

    def test_log10_matches_math(self, native_kernels):
        # The C format pass calls the C library's log10, which math.log10
        # calls for a finite positive argument: the same bits everywhere.
        # Both reach the one libm of the process.
        libm = ctypes.CDLL(ctypes.util.find_library("m"))
        libm.log10.argtypes = [ctypes.c_double]
        libm.log10.restype = ctypes.c_double
        assert (np.array([libm.log10(v) for v in LOG10_VALUES.tolist()]).tobytes()
                == np.array([math.log10(v) for v in LOG10_VALUES.tolist()]).tobytes())
        # And the format pass writes what the Python fallback writes, with
        # the log10 of each value as its y.
        xy = np.column_stack([np.arange(len(LOG10_VALUES)), LOG10_VALUES])
        _assert_plot_parity(native_kernels, xy, log_y=True)

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
        assert native == _csv_bytes(_kernels_py.format_csv_rows_py, times, times, cells)
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
                == _csv_bytes(_kernels_py.format_csv_rows_py, times, times, cells))

    def test_blocks_join_seamlessly(self, native_kernels):
        # More bytes than one native block, so the output spans several:
        # the kept points of a series whose dropped points, the first among
        # them, fall all along it.
        xy = np.random.default_rng(0).uniform(-1e6, 1e6, size=(60_000, 2))
        xy[:5_000:3, 0] = np.nan
        xy[::7, 1] = -xy[::7, 1]
        for log_y in (False, True):
            _assert_plot_parity(native_kernels, xy, log_y)
        cells = np.random.default_rng(1).normal(size=(30_000, 5))
        times = np.arange(len(cells))
        assert (_csv_bytes(native_kernels.format_csv_rows, times, times % 3, cells)
                == _csv_bytes(_kernels_py.format_csv_rows_py, times, times % 3, cells))


NAMES = ["t", "phase", "x1_1", "x2_1", "kl_to_ref", "min_component"]
HEADER = ",".join(NAMES).encode() + b"\n"


def _parse(fn, body, names=NAMES, t_col=0, phase_col=1):
    """fn's (t, phase, cells, line ends) for a file of the header and body,
    or the message of the ValueError it raises."""
    data = ",".join(names).encode() + b"\n" + body
    try:
        return fn(data, data.index(b"\n") + 1, 2, names, t_col, phase_col)
    except ValueError as exc:
        return str(exc)


def _same_bits(a, b):
    """Equal shapes and dtypes and bits, except that NaNs equal any NaN."""
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    if a.dtype.kind != "f":
        return bool((a == b).all())
    nan = np.isnan(a)
    return bool((nan == np.isnan(b)).all()
                and (a[~nan].view(np.int64) == b[~nan].view(np.int64)).all())


def _both(native_kernels, body, **kw):
    """The two parsers' (t, phase, cells) for one body, checked equal, and
    their counts of its line ends checked."""
    native = _parse(native_kernels.parse_csv_rows, body, **kw)
    python = _parse(_kernels_py.parse_csv_rows_py, body, **kw)
    if isinstance(native, str) or isinstance(python, str):
        assert native == python
        return native
    assert all(_same_bits(a, b) for a, b in zip(native[:3], python[:3]))
    assert native[3] == python[3] == (body.count(b"\n"), body.count(b"\r"))
    return native[:3]


# Cells and the float64 bits that read_csv gave for them when it parsed
# with np.loadtxt alone.  The long cells go through strtod with a copy on
# the heap: 2^-1074 in full, and 10^300.
TINY = format(5e-324, ".1074f")
EDGE_CELLS = {
    " 0.5": 0x3FE0000000000000, "0.5 ": 0x3FE0000000000000, "+0.5": 0x3FE0000000000000,
    ".5": 0x3FE0000000000000, "5.": 0x4014000000000000, "1E5": 0x40F86A0000000000,
    "\t0.5\v": 0x3FE0000000000000, "inf": 0x7FF0000000000000, "-inf": 0xFFF0000000000000,
    "Infinity": 0x7FF0000000000000, "-INFINITY": 0xFFF0000000000000,
    "nan": 0x7FF8000000000000, "-nan": 0xFFF8000000000000, "NaN": 0x7FF8000000000000,
    "1e400": 0x7FF0000000000000, "1e-400": 0x0, "-1e-400": 0x8000000000000000,
    "-0": 0x8000000000000000, "0e99999999999": 0x0, "1.e5": 0x40F86A0000000000,
    "9007199254740993": 0x4340000000000000, "9007199254740995": 0x4340000000000002,
    "0.1000000000000000055511151231257827021181583404541015625": 0x3FB999999999999A,
    TINY: 0x1, "1" + "0" * 300: 0x7E37E43C8800759C,
    # A hair above a halfway point between two doubles: the integer path
    # must round up on the remainder, not to the even neighbour below.
    "3356064425258417328e-28": 0x3DF7100D0CAC3273, "4306906422018948740e-29": 0x3DC7AD6E9294FDD7,
    "7368248133177167818e-30": 0x3DA033F4772B2A57, "8761568686074521373e-31": 0x3D6ED3B830C18809,
}
# np.loadtxt refuses these as well, but for "0.5\x1c" and "\u00a00.5": it
# takes \x1c-\x1f and non-ASCII spaces for blanks, which the readers do not.
BAD_CELLS = ["0x1p3", "1_0", "", " ", "nan(1)", "1e", "e5", ".", "+-1", "1.5.", "infinit",
             "1d5", '"0.5"', "0.5\x00", "0.5\x1c", "\u00a00.5", "\uff11"]


class TestParserMatchesPython:
    """parse_csv_rows reads what parse_csv_rows_py (np.loadtxt) reads, with
    the same bits, and refuses what it refuses with the same message."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 40), k=st.integers(1, 6))
    def test_written_bits_read_back(self, native_kernels, data, rows, k):
        times, phases = data.draw(hnp.arrays(np.int64, rows)), data.draw(hnp.arrays(np.int64, rows))
        cells = data.draw(_bit_patterns((rows, k)))
        names = ["t", "phase"] + [f"c{j}" for j in range(k)]
        fh = io.BytesIO()
        native_kernels.format_csv_rows(times, phases, cells, fh)
        t, phase, back = _both(native_kernels, fh.getvalue(), names=names)
        assert _same_bits(t, times) and _same_bits(phase, phases) and _same_bits(back, cells)

    def test_million_cells(self, native_kernels):
        rng = np.random.default_rng(13)
        n = 125_000    # 8 cells a row
        cells = (rng.uniform(1, 10, (n, 6)) * 10.0 ** rng.integers(-40, 41, (n, 6))
                 * rng.choice([-1.0, 1.0], (n, 6)))
        cells[::7, 2] = rng.integers(0, 2**64, n // 7 + 1, dtype=np.uint64).view(np.float64)
        times = rng.integers(-2**63, 2**63 - 1, n, endpoint=True)
        fh = io.BytesIO()
        native_kernels.format_csv_rows(times, times // 3, cells, fh)
        t, phase, back = _both(native_kernels, fh.getvalue(),
                               names=["t", "phase"] + [f"c{j}" for j in range(6)])
        assert _same_bits(t, times) and _same_bits(phase, times // 3)
        assert _same_bits(back, cells)

    @pytest.mark.parametrize("cell", list(EDGE_CELLS))
    def test_edge_cells(self, native_kernels, cell):
        got = _both(native_kernels, f"0,0,{cell},0.5,0,0.5\n".encode())
        assert got[2][0, 0].view(np.uint64) == EDGE_CELLS[cell]

    @pytest.mark.parametrize("cell", BAD_CELLS)
    def test_bad_cells_refused(self, native_kernels, cell):
        body = f"0,0,0.5,0.5,0,0.5\n\n1,1,{cell},0.5,0,0.5\n".encode()
        assert _both(native_kernels, body) == f"line 4, column 'x1_1': {cell!r} is not a number"

    @pytest.mark.parametrize("cell, value", [
        ("9007199254740993", 2**53 + 1), (" +4\t", 4), ("-9223372036854775808", -2**63),
        ("9223372036854775807", 2**63 - 1), ("007", 7),
        ("9223372036854775808", None), ("-9223372036854775809", None), ("1.7", None),
        ("1.0", None), ("1e3", None), ("nan", None), ("0x10", None), ("1_0", None), ("", None),
        ("+", None)])
    def test_time_and_phase_are_integers(self, native_kernels, cell, value):
        got = _both(native_kernels, f"5,{cell},0.5,0.5,0,0.5\n".encode(), t_col=1, phase_col=0)
        if value is None:
            assert got == f"line 2, column 'phase': {cell!r} is not an integer"
        else:
            assert got[0].tolist() == [value] and got[1].tolist() == [5]

    @pytest.mark.parametrize("body, t", [
        (b"0,0,0.5,0.5,0,0.5\r\n1,1,0.5,0.5,0,0.5\r\n", [0, 1]),
        (b"0,0,0.5,0.5,0,0.5\r1,1,0.5,0.5,0,0.5\r", [0, 1]),
        (b"0,0,0.5,0.5,0,0.5\n \t\v\f \n\n1,1,0.5,0.5,0,0.5\n", [0, 1]),
        (b"# comment, with a comma\n0,0,0.5,0.5,0,0.5 # trailing\n  # indented\n", [0]),
        (b"0,0,0.5,0.5,0,0.5\n1,1,0.5,0.5,0,0.5", [0, 1]),
        (b"# caf\xc3\xa9\n2,0,0.5,0.5,0,0.5\n", [2]),
        (b"", []), (b"\n\n# only comments\n", []),
        # strtod reads the last cell up to the NUL after the bytes.
        (b"0,0,0.5,0.5,0,0.5\n1,1,0.5,0.5,0,-2.5e25", [0, 1]),
    ])
    def test_edge_lines(self, native_kernels, body, t):
        got = _both(native_kernels, body)
        assert got[0].tolist() == t and got[2].shape == (len(t), 4)

    @pytest.mark.parametrize("body, message", [
        (b"0,0,0.5,0.5,0\n", "line 2 has 5 cells, the header names 6"),
        (b"0,0,0.5,0.5,0,0.5,1,2\n", "line 2 has 8 cells, the header names 6"),
        (b"0,0,0.5,0.5,0,0.5\r\n\r\n1,1,0.5,0.5,0\r\n", "line 4 has 5 cells, the header names 6"),
        (b"0,0,0.5,0.5,0,0.5,\n", "line 2 has 7 cells, the header names 6"),
        (b"0,0,0.5#,0.5,0,0.5\n", "line 2 has 3 cells, the header names 6"),
        (b"0,0,0.5,0.5,0,#\n", "line 2, column 'min_component': '' is not a number"),
        (b"0,0,abc,0.5,0\n", "line 2, column 'x1_1': 'abc' is not a number"),
        (b"0,0,0.5,0.5,0,0.5,abc\n", "line 2 has 7 cells, the header names 6"),
    ])
    def test_bad_rows_refused(self, native_kernels, body, message):
        assert _both(native_kernels, body) == message

    def test_columns_in_any_order(self, native_kernels):
        names = ["x1_1", "phase", "kl_to_ref", "t", "min_component", "x2_1"]
        t, phase, cells = _both(native_kernels, b"0.25,3,0.5,-7,1.5,2.5\n", names=names,
                                t_col=3, phase_col=1)
        assert t.tolist() == [-7] and phase.tolist() == [3]
        assert cells.tolist() == [[0.25, 0.5, 1.5, 2.5]]


def _read_back(native_kernels, cells):
    """Both parsers read one cell a row with the bits Python's float() gives
    (no NaN is drawn here)."""
    body = "".join(f"{i},0,{cell}\n" for i, cell in enumerate(cells)).encode()
    got = _both(native_kernels, body, names=["t", "phase", "c"])[2][:, 0]
    want = np.array([float(cell) for cell in cells])
    assert got.tobytes() == want.tobytes(), [
        (cell, g, w) for cell, g, w in zip(cells, got.tolist(), want.tolist())
        if np.float64(g).tobytes() != np.float64(w).tobytes()]


def _spelling(draw, d, q):
    """A cell for d * 10^q: the point anywhere in the digits or before them
    (with zeros after it), an optional sign and exponent."""
    text = str(d)
    k = draw(st.integers(-3, len(text)))   # digits before the point
    if k == len(text) and draw(st.booleans()):
        mantissa = text
    else:
        mantissa = text[:k] + "." + text[k:] if k >= 0 else "0." + "0" * -k + text
    x = q + len(text) - k
    exp = draw(st.sampled_from("eE")) + str(x) if x or draw(st.booleans()) else ""
    return draw(st.sampled_from(["", "-", "+"])) + mantissa + exp


@st.composite
def _decimal_cells(draw, digits):
    n = draw(digits)
    # Decimal exponents at, just inside and just outside the exact
    # integer range [-31, 19] of the reader, and far from it.
    q = draw(st.one_of(st.sampled_from([-33, -32, -31, -30, 18, 19, 20, 21]),
                       st.integers(-45, 30)))
    return _spelling(draw, draw(st.integers(10 ** (n - 1), 10 ** n - 1)), q)


def _exact_decimal(value):
    """(D, q) with D * 10^q the exact value of a dyadic Fraction."""
    k = max(value.denominator.bit_length() - 1, 0)
    return value.numerator * 5 ** k, -k


@st.composite
def _halfway_cells(draw):
    """The midpoint of a double and the next one up, exactly and nudged by
    one unit in its last digit or in its 19th: a tie and near ties."""
    x = draw(st.one_of(st.floats(1e-13, 1e38), st.floats(2.0**50, 2.0**64),
                       st.floats(2.0**-1074, 1e-300), st.floats(1e300, 1.79e308)))
    mid = (Fraction(x) + Fraction(math.nextafter(x, math.inf))) / 2
    d, q = _exact_decimal(mid)
    text = str(d)
    cut = max(len(text) - 19, 0)
    d19 = int(text[:19])
    d, q = draw(st.sampled_from([(d, q), (d - 1, q), (d + 1, q),
                                 (d19, q + cut), (d19 + 1, q + cut)]))
    return _spelling(draw, d, q)


def _power_of_five_128(q):
    """5^q * 2^(127 - floor(q log2 5)), in [2^127, 2^128), rounded up."""
    fl = (5**q).bit_length() - 1 if q >= 0 else -(5**-q).bit_length()
    return 5**q << (127 - fl) if q >= 0 else -(-(1 << (127 - fl)) // 5**-q)


def _eisel_lemire_gives_up(d, q):
    """Whether _kernels.c's eisel_lemire leaves d * 10^q to strtod:
    P = w * T, with w the digits shifted to 64 bits and T the table's 5^q,
    has the bits below its top 53 within the product's error (w for q < 0,
    else 0) above one half."""
    w = d << (64 - d.bit_length())
    p = w * _power_of_five_128(q)
    cut = 138 + (p >> 191)
    below, half = p % (1 << cut), 1 << (cut - 1)
    return half <= below <= half + (w if q < 0 else 0)


def test_power_of_five_table():
    # eisel_lemire's error bound holds for these exact entries; one a unit
    # off in its last place would misread only rare near ties, which random
    # cells do not find.
    source = open(_kernels._SOURCE).read()
    table = source[source.index("POW5_128[51][2] = {"):]
    rows = re.findall(r"\{0x([0-9a-f]{16}), 0x([0-9a-f]{16})\}", table[:table.index("};")])
    assert [int(hi + lo, 16) for hi, lo in rows] == [_power_of_five_128(q) for q in range(-31, 20)]


class TestReaderOracle:
    """parse_csv_rows reads decimal cells with the bits of Python's float()
    and of parse_csv_rows_py, whichever of Eisel-Lemire and strtod rounds
    them."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_decimal_cells(st.integers(1, 19)), min_size=1, max_size=25))
    def test_up_to_19_digits(self, native_kernels, cells):
        _read_back(native_kernels, cells)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_decimal_cells(st.integers(20, 40)), min_size=1, max_size=25))
    def test_20_digits_and_more(self, native_kernels, cells):
        _read_back(native_kernels, cells)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_halfway_cells(), min_size=1, max_size=10))
    def test_halfway_and_near_halfway(self, native_kernels, cells):
        _read_back(native_kernels, cells)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.one_of(
        st.integers(1, 2**52 - 1).map(lambda b: repr(float(np.uint64(b).view(np.float64)))),
        st.integers(-8, 8).map(lambda k: str(2**53 + k)),
        st.integers(-8, 8).map(lambda k: f"{2**53 + k}.5"),
        st.sampled_from(["1.7976931348623157e308", "1.7976931348623158e308",
                         "1.7976931348623159e308", "179769313486231580793728971405301e276",
                         "2.2250738585072011e-308", "2.2250738585072014e-308",
                         "4.9406564584124654e-324", "2.4703282292062328e-324",
                         "2.4703282292062327e-324"])), min_size=1, max_size=20))
    def test_subnormals_2_to_the_53_and_dbl_max(self, native_kernels, cells):
        _read_back(native_kernels, cells)

    def test_every_exponent_of_the_table(self, native_kernels):
        rng = np.random.default_rng(17)
        cells = [f"{rng.integers(1, 10 ** int(rng.integers(1, 20)), dtype=np.uint64)}e{q}"
                 for q in range(-33, 22) for _ in range(40)]
        _read_back(native_kernels, cells)

    # Exact ties between two doubles (the first two are EDGE_CELLS), where
    # Eisel-Lemire gives up and strtod rounds to even.
    @pytest.mark.parametrize("cell, d, q", [
        ("9007199254740993", 9007199254740993, 0), ("9007199254740995", 9007199254740995, 0),
        ("4503599627370496.5", 45035996273704965, -1)])
    def test_ties_left_to_strtod(self, native_kernels, cell, d, q):
        assert _eisel_lemire_gives_up(d, q)
        assert not _eisel_lemire_gives_up(d - 1, q) and not _eisel_lemire_gives_up(d + 1, q)
        _read_back(native_kernels, [cell])

    # A "%.17g" cell lies within half a unit in its 17th digit of its double,
    # at most 0.5e-16 of it, and a midpoint between two doubles at least
    # 2^-54 (0.55e-16) away: no cell emit_csv writes is a tie or near enough
    # to one for Eisel-Lemire to leave it to strtod.
    @settings(max_examples=1000, deadline=None)
    @given(st.floats(1e-16, 1e16, exclude_min=True, exclude_max=True))
    @example(1.0000000000000001e-15)    # q = -31, the table's first entry
    @example(9007199254740991.0)
    @example(1 / 3)
    def test_written_cells_never_left_to_strtod(self, v):
        mantissa, _, exp = ("%.17g" % v).partition("e")
        whole, _, frac = mantissa.partition(".")
        d, q = int(whole + frac), int(exp or 0) - len(frac)
        assume(-31 <= q <= 19)
        assert not _eisel_lemire_gives_up(d, q), "%.17g" % v


LINE_END_DATA = [b"", b"\n", b"a\r\nb\rc\n", b"no line end", b"\r" * 3, b"0,0\n" * 1000 + b"1,1"]


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler 'cc' on PATH")
@pytest.mark.parametrize("data", LINE_END_DATA)
def test_line_end_count(data):
    # parse_csv_rows's outputs hold one row per counted line end, plus one.
    lib, reason = _kernels._load(clean_env())
    assert lib is not None, reason
    for start in range(len(data) + 1) if len(data) < 20 else (0, 7, len(data)):
        for byte in b"\n\r":
            assert (lib.count_byte(data, start, len(data), byte)
                    == data.count(bytes([byte]), start)), (start, byte)


@pytest.mark.parametrize("data", LINE_END_DATA)
def test_line_ends_of_any_bytes_like(kernels, data):
    # read_csv counts the line ends of views of its buffer.
    buf = bytearray(b"\r\n" + data + b"\n")
    for view in (data, bytearray(data), memoryview(buf)[2:-1]):
        assert kernels.count_line_ends(view) == (data.count(b"\n"), data.count(b"\r"))


def test_parse_into_given_rows(kernels):
    # read_csv parses each block into the rows after those of the blocks
    # before it; the rows around them keep their values.
    body = HEADER + b"0,0,0.5,0.5,0,0.5\r\n# note\n\n1,1,0.25,0.75,inf,nan"
    start = len(HEADER)
    whole = kernels.parse_csv_rows(body, start, 2, NAMES, 0, 1)
    t, phase = np.full(9, -1, dtype=np.int64), np.full(9, -2, dtype=np.int64)
    cells = np.full((9, 4), -3.0)
    got = kernels.parse_csv_rows(memoryview(bytearray(body)), start, 2, NAMES, 0, 1,
                                 (t[3:], phase[3:], cells[3:]))
    assert all(_same_bits(a, b) for a, b in zip(got[:3], whole[:3]))
    assert got[3] == whole[3] == (body.count(b"\n", start), body.count(b"\r", start)) == (3, 1)
    assert got[0].base is t and got[2].base is cells
    assert (t[[0, 1, 2, 5, 6, 7, 8]] == -1).all() and (cells[:3] == -3.0).all()


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler 'cc' on PATH")
def test_cache_key_is_the_sha256_of_hashlib(monkeypatch):
    # The key is hashed by CPython's built-in sha256, not OpenSSL's: the
    # same digest, so the same cached library.
    assert _kernels._sha256() is not hashlib.sha256 or sys.implementation.name != "cpython"
    built = _kernels._build_library(clean_env())
    monkeypatch.setattr(_kernels, "_sha256", lambda: hashlib.sha256)
    assert _kernels._build_library(clean_env()) == (built[0], "cached")


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler 'cc' on PATH")
def test_build_without_int128_falls_back(tmp_path):
    # Both exact number paths need unsigned __int128: without it the build
    # stops at the #error, which the Python fallback's reason names.
    lib, reason = _kernels._load(clean_env(CC="cc -U__SIZEOF_INT128__",
                                           XDG_CACHE_HOME=str(tmp_path)))
    assert lib is None and reason.startswith("python: ") and "__int128" in reason, reason
    assert not list(tmp_path.glob("periodicgame/*")), "no library or temporary file is left"


LOCALE_SCRIPT = (
    "import io, locale, os, sys\n"
    "import numpy as np\n"
    "from periodicgame import _kernels, _kernels_py\n"
    "locale.setlocale(locale.LC_ALL, sys.argv[1])\n"
    "print(locale.localeconv()['decimal_point'])\n"
    "native = _kernels._bind(_kernels._load(os.environ)[0])\n"
    "xy = np.array([[0.5, -1e300], [1 / 3, 2.0**53], [float('nan'), 1e-9]])\n"
    "t = np.arange(3)\n"
    "axes = (1.0, 0.0, 1.0, 1.0, 0.0) * 2\n"
    "for fn, ref, args in ((native.format_csv_rows, _kernels_py.format_csv_rows_py, (t, t, xy)),\n"
    "                      (native.format_plot_points, _kernels_py.format_plot_points_py,\n"
    "                       (xy[:2], False, axes))):\n"
    "    out = [io.BytesIO(), io.BytesIO()]\n"
    "    fn(*args, out[0])\n"
    "    ref(*args, out[1])\n"
    "    print(out[0].getvalue() == out[1].getvalue())\n"
    "print(locale.localeconv()['decimal_point'], locale.str(0.5))\n"
)


READ_SCRIPT = (
    "import io, locale, os, sys\n"
    "import numpy as np\n"
    "from periodicgame import _kernels, _kernels_py\n"
    "locale.setlocale(locale.LC_ALL, sys.argv[1])\n"
    "print(locale.localeconv()['decimal_point'])\n"
    "native = _kernels._bind(_kernels._load(os.environ)[0])\n"
    "cells = np.array([[0.5, -1e300], [1 / 3, 2.0**53], [5e-324, 1e-9], [1.5e-20, -2.5e25]])\n"
    "t = np.arange(4)\n"
    "out = io.BytesIO()\n"
    "native.format_csv_rows(t, t, cells, out)\n"
    "data = b't,phase,a,b\\n' + out.getvalue()\n"
    "for parse in (native.parse_csv_rows, _kernels_py.parse_csv_rows_py):\n"
    "    back = parse(data, 12, 2, ['t', 'phase', 'a', 'b'], 0, 1)[2]\n"
    "    print(back.tobytes() == cells.tobytes())\n"
    "print(locale.localeconv()['decimal_point'], locale.str(0.5))\n"
)
LOCALES = [("de_DE", ","), ("ps_AF", "\u066b")]


@pytest.fixture(scope="module")
def locpath(tmp_path_factory):
    """A private LOCPATH holding the locale it is called with, compiled once
    for the module."""
    if not (HAVE_CC and shutil.which("localedef")):
        pytest.skip("needs 'cc' and 'localedef' on PATH")
    root = tmp_path_factory.mktemp("locales")

    def build(name):
        if not (root / f"{name}.UTF-8").exists():
            proc = subprocess.run(["localedef", "-i", name, "-f", "UTF-8",
                                   str(root / f"{name}.UTF-8")], capture_output=True)
            if proc.returncode != 0:
                pytest.skip(f"cannot build the {name} locale: {proc.stderr[-200:]!r}")
        return str(root)
    return build


def _run_in_locale(locpath, name, script):
    proc = subprocess.run(
        [sys.executable, "-c", script, f"{name}.UTF-8"], capture_output=True,
        text=True, check=True, env=clean_env(LOCPATH=locpath(name)))
    return proc.stdout.split()


@pytest.mark.parametrize("name, point", LOCALES)
def test_formatters_ignore_the_locale_decimal_point(locpath, name, point):
    # Python's % operator always writes '.', while snprintf follows
    # LC_NUMERIC; afterwards the caller's locale is back in force.
    assert _run_in_locale(locpath, name, LOCALE_SCRIPT) == [
        point, "True", "True", point, f"0{point}5"]


@pytest.mark.parametrize("name, point", LOCALES)
def test_reader_ignores_the_locale_decimal_point(locpath, name, point):
    # strtod reads the process locale's decimal point unless the C side
    # switches, and a written file holds '.'.
    assert _run_in_locale(locpath, name, READ_SCRIPT) == [
        point, "True", "True", point, f"0{point}5"]


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
                native_kernels.format_plot_points(xy, False, IDENTITY_AXES, fh)
        with pytest.raises(pg.InputError):
            native_kernels.format_plot_points(np.ones((2, 2)), False, IDENTITY_AXES[:5], fh)
        assert fh.getvalue() == b""

    def test_parser_arguments_rejected(self, native_kernels):
        data = HEADER + b"0,0,0.5,0.5,0,0.5\n"
        for args in ((data.decode(), len(HEADER), 2, NAMES, 0, 1),
                     (data, len(data) + 1, 2, NAMES, 0, 1),
                     (data, -1, 2, NAMES, 0, 1),
                     (data, len(HEADER), 2, NAMES, 1, 1),
                     (data, len(HEADER), 2, NAMES, 0, 6)):
            with pytest.raises(pg.InputError):
                native_kernels.parse_csv_rows(*args)

    def test_parser_rows_rejected(self, native_kernels):
        # The C parser writes one row per line end and one more, unchecked:
        # rows it is given must be that many, and the layout it writes.
        data = HEADER + b"0,0,0.5,0.5,0,0.5\n1,1,0.5,0.5,0,0.5\n"
        ints, cells = np.zeros(3, dtype=np.int64), np.zeros((3, 4))
        read_only = cells.copy()
        read_only.flags.writeable = False
        for out in ((ints[:2], ints, cells), (ints, ints, cells[:2]),
                    (ints, ints.astype(np.int32), cells), (ints, ints, cells.astype(np.float32)),
                    (ints, ints, np.zeros((3, 5))), (ints, ints, np.zeros((3, 8))[:, ::2]),
                    (np.zeros((6,), dtype=np.int64)[::2], ints, cells), (ints, ints, read_only),
                    (ints, ints, cells.ravel()), (ints.reshape(3, 1), ints, cells)):
            with pytest.raises(pg.InputError):
                native_kernels.parse_csv_rows(data, len(HEADER), 2, NAMES, 0, 1, out)
        assert not ints.any() and not cells.any()

    def test_kl_shapes_rejected(self, native_kernels):
        rp, rlp = np.full(2, 0.5), np.log(np.full(2, 0.5))
        good = np.zeros((3, 2))
        for lp1, lp2, ref2 in ((good, np.zeros((2, 2)), rp), (np.zeros((3, 3)), good, rp),
                               (good, good, np.full(3, 1 / 3)), (np.zeros(2), good, rp),
                               (good, np.zeros((3, 2, 1)), rp)):
            with pytest.raises(pg.InputError):
                native_kernels.kl_rows(rp, rlp, lp1, ref2, rlp, lp2, LOG_ZERO)

    def test_reduced_buffers_rejected(self, native_kernels):
        z0 = np.full(4, 0.5)
        with pytest.raises(pg.InputError):
            native_kernels.run_reduced_composite(z0, 0.1, 5, np.empty((5, 4)))
        with pytest.raises(pg.InputError):
            native_kernels.run_reduced_composite(np.full(3, 0.5), 0.1, 5, np.empty((6, 4)))


# The per-record observables against the expressions they replaced: the KL
# as the Python backend adds it up in numpy columns, the smallest component as
# the minimum of the exponentiated blocks, and contiguity as a scan of the
# time steps.

def _numpy_kl_rows(ref, lp):
    return _kernels_py._player_kl_rows(ref.probabilities, ref.log_probabilities, lp, LOG_ZERO)


def _old_kl_to_reference(reference, lp1, lp2, rows_fn=_numpy_kl_rows):
    out = np.zeros(lp1.shape[0])
    out += rows_fn(reference.x1, lp1)
    out += rows_fn(reference.x2, lp2)
    return np.maximum(out, 0.0)


def _old_smallest_component(lp1, lp2):
    return np.minimum(fold_columns(np.minimum, np.exp(lp1)),
                      fold_columns(np.minimum, np.exp(lp2)))


def _nan_bits(a):
    """The bit patterns of a float array, with every NaN as one pattern."""
    return np.where(np.isnan(a), np.nan, a).view(np.uint64)


# Log-weights of a reference: zero mass (-inf), mass that is subnormal once
# normalized (-710) or that underflows to zero (-745.5), both zeros.
_REF_ENTRIES = st.one_of(st.sampled_from([-np.inf, -0.0, 0.0, -710.0, -745.5, -30.0]),
                         st.floats(-40.0, 5.0))
# Block entries that are not ordinary: -inf, LOG_ZERO and its neighbours,
# both zeros, NaN, and values far out on either side.
_SPECIALS = [-np.inf, LOG_ZERO, float(np.nextafter(LOG_ZERO, -np.inf)),
             float(np.nextafter(LOG_ZERO, np.inf)), -0.0, 0.0, np.nan, -800.0, -1e-300, 1e308]


@st.composite
def _reference_block(draw, rows):
    """A reference Simplex of 2 to 9 coordinates and a (rows, k) block whose
    entries are specials, ordinary values, or the reference's own
    log-probabilities moved by at most one ulp.  Some rows hold only the
    last kind, so that KL lands on zero, just around it, and (under
    subnormal reference mass) below the smallest normal double."""
    k = draw(st.integers(2, 9))
    ref = pg.Simplex(draw(st.lists(_REF_ENTRIES, min_size=k, max_size=k).filter(
        lambda lw: np.isfinite(lw).any())))
    lp = np.broadcast_to(ref.log_probabilities, (rows, k))
    near = len(_SPECIALS)
    choices = [np.full((rows, k), v) for v in _SPECIALS] + [
        lp, np.nextafter(lp, np.inf), np.nextafter(lp, -np.inf),
        draw(hnp.arrays(np.float64, (rows, k), elements=st.floats(-60.0, 5.0)))]
    kinds = draw(hnp.arrays(np.int8, (rows, k),
                            elements=st.integers(0, len(choices) - 1)))
    near_kinds = draw(hnp.arrays(np.int8, (rows, k), elements=st.integers(near, near + 2)))
    near_rows = draw(hnp.arrays(np.bool_, (rows, 1)))
    return ref, np.choose(np.where(near_rows, near_kinds, kinds), choices)


@st.composite
def _kl_case(draw):
    rows = draw(st.one_of(st.sampled_from([0, 1]), st.integers(2, 40)))
    (r1, lp1), (r2, lp2) = draw(_reference_block(rows)), draw(_reference_block(rows))
    return pg.JointState(r1, r2), lp1, lp2


class TestObservablesMatchOracles:
    @settings(max_examples=300, deadline=None)
    @given(_kl_case())
    def test_native_kl_matches_the_numpy_columns(self, native_kernels, case):
        ref, lp1, lp2 = case
        with np.errstate(all="ignore"):
            old = _old_kl_to_reference(ref, lp1, lp2)
            broadcast = _old_kl_to_reference(ref, lp1, lp2, old_kl_rows)
        native = native_kernels.kl_rows(ref.x1.probabilities, ref.x1.log_probabilities, lp1,
                                        ref.x2.probabilities, ref.x2.log_probabilities, lp2,
                                        LOG_ZERO)
        assert np.array_equal(native.view(np.uint64), old.view(np.uint64))
        assert np.array_equal(_nan_bits(native), _nan_bits(broadcast))
        with np.errstate(all="ignore"):   # the fallback runs under CC=none
            active = kl_to_reference(ref, lp1, lp2)
        assert np.array_equal(active.view(np.uint64), old.view(np.uint64))

    def test_near_zero_and_subnormal_kl(self, native_kernels):
        # exp(-710) is subnormal: one ulp off on that coordinate alone
        # leaves a subnormal KL; off elsewhere it goes just below zero,
        # where the clamp returns +0.0.
        ref = pg.JointState(pg.Simplex([0.0, -710.0]), pg.Simplex([0.0, 0.0, -np.inf]))
        lp1 = np.tile(ref.x1.log_probabilities, (3, 1))
        lp2 = np.tile(ref.x2.log_probabilities, (3, 1))
        lp1[1, 1] = np.nextafter(lp1[1, 1], -np.inf)
        lp1[2, 0] = np.nextafter(lp1[2, 0], np.inf)
        with np.errstate(all="ignore"):
            old = _old_kl_to_reference(ref, lp1, lp2)
        native = native_kernels.kl_rows(ref.x1.probabilities, ref.x1.log_probabilities, lp1,
                                        ref.x2.probabilities, ref.x2.log_probabilities, lp2,
                                        LOG_ZERO)
        assert 0.0 < old[1] < np.finfo(float).tiny
        assert old[2] == 0.0 and not np.signbit(old[2])
        assert np.array_equal(native.view(np.uint64), old.view(np.uint64))

    def test_many_rows_on_a_trajectory(self, native_kernels, game2x2):
        ref = pg.JointState.from_probabilities([0.5, 0.5], [0.5, 0.5])
        init = pg.JointState.from_probabilities([0.45, 0.55], [0.45, 0.55])
        # OMWU reaches the boundary: finite KL, then +inf.
        traj = pg.run_trajectory(game2x2, "omwu", init, 0.5, 40_000, reference=ref)
        old = _old_kl_to_reference(ref, traj.log_probs1, traj.log_probs2)
        assert np.isfinite(old).any() and np.isinf(old).any()
        assert np.array_equal(traj.kl_to_ref.view(np.uint64), old.view(np.uint64))
        native = native_kernels.kl_rows(ref.x1.probabilities, ref.x1.log_probabilities,
                                        traj.log_probs1, ref.x2.probabilities,
                                        ref.x2.log_probabilities, traj.log_probs2, LOG_ZERO)
        assert np.array_equal(native.view(np.uint64), old.view(np.uint64))
        fallback = _kernels_py.kl_rows_py(ref.x1.probabilities, ref.x1.log_probabilities,
                                          traj.log_probs1, ref.x2.probabilities,
                                          ref.x2.log_probabilities, traj.log_probs2, LOG_ZERO)
        assert np.array_equal(fallback.view(np.uint64), old.view(np.uint64))

    @settings(max_examples=200, deadline=None)
    @given(_kl_case())
    def test_smallest_component_is_the_minimum_of_exps(self, case):
        _, lp1, lp2 = case
        with np.errstate(all="ignore"):
            old = _old_smallest_component(lp1, lp2)
            got = smallest_component(lp1, lp2)
        assert np.array_equal(_nan_bits(got), _nan_bits(old))
        assert np.array_equal(np.isnan(got), np.isnan(old))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 3), max_size=30), st.integers(-2**62, 2**62))
    def test_is_contiguous_matches_the_step_scan(self, gaps, start):
        times = start + np.cumsum([0] + gaps)
        traj = pg.Trajectory(times=times, log_probs1=np.zeros((times.size, 2)),
                             log_probs2=np.zeros((times.size, 2)),
                             kl_to_ref=np.zeros(times.size), min_component=np.zeros(times.size),
                             period=1, eta=0.1, algo="mwu")
        assert traj.is_contiguous is bool((np.diff(traj.times) == 1).all())

    def test_is_contiguous_across_the_int64_range(self):
        for times in ([-2**63, 2**63 - 1], [-2**63, -2**63 + 1], [2**63 - 2, 2**63 - 1],
                      [-2**63, 0, 2**63 - 1]):
            rows = len(times)
            traj = pg.Trajectory(times=times, log_probs1=np.zeros((rows, 2)),
                                 log_probs2=np.zeros((rows, 2)), kl_to_ref=np.zeros(rows),
                                 min_component=np.zeros(rows), period=1, eta=0.1, algo="mwu")
            assert traj.is_contiguous is (times[-1] - times[0] == rows - 1)


def _old_points(label, points):
    """output._points' sequence branch before the native converter: one
    np.fromiter over the values, once every point is a pair, with the
    OverflowError of an int past the float range now caught too.  The
    values drawn below are all real numbers, which pass the type check that
    the Python converter adds before np.fromiter."""
    try:
        if set(map(len, points)) <= {2}:
            return np.fromiter(itertools.chain.from_iterable(points), np.float64,
                               count=2 * len(points)).reshape(-1, 2)
    except (TypeError, ValueError, OverflowError):
        pass
    raise pg.InputError(f"series {label!r}: points must be (t, v) pairs of numbers "
                        "or an (N, 2) array")


def _outcome(convert, points):
    """The dtype, shape and bits of what convert("s", points) returns, or
    the type and message of what it raises."""
    try:
        xy = convert("s", points)
    except Exception as exc:
        return type(exc), str(exc)
    return xy.dtype, xy.shape, xy.flags.c_contiguous, xy.tobytes()


def _points_with(read_pairs, points):
    with mock.patch.object(_kernels, "read_pairs", read_pairs):
        return _outcome(output._points, points)


Pair = collections.namedtuple("Pair", "t v")
_FLOATS = st.one_of(
    st.floats(),      # NaN, +-inf, +-0 and subnormals among them
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072009e-308,
                     *_from_bits(0x7FF8000000000000, 0xFFF8000000000001).tolist()]))
_TWO_53 = st.builds(lambda sign, k: sign * (2**53 + k), st.sampled_from([1, -1]),
                    st.integers(-4, 4))
# Around 2^1023 and 2^1024; 2^1024 - 2^970 is the halfway point past DBL_MAX,
# which rounds to 2^1024 and so overflows.
_HUGE = st.builds(lambda sign, base, k: sign * (base + k), st.sampled_from([1, -1]),
                  st.sampled_from([2**1023, 2**1024 - 2**970, 2**1024]),
                  st.sampled_from([-2**971, -1, 0, 1, 2**969, 2**1100]))
_INTS = st.one_of(st.integers(-2**64, 2**64), _TWO_53, _HUGE)
_OTHER = st.one_of(st.booleans(), st.floats().map(np.float64),
                   st.floats(width=32).map(np.float32),
                   st.integers(-2**63, 2**63 - 1).map(np.int64))
_VALUES = st.one_of(_FLOATS, _INTS, _OTHER)
_NATIVE_VALUES = st.one_of(_FLOATS, st.integers(-2**1023, 2**1023), _TWO_53)


def _pairs(values):
    return st.one_of(st.tuples(values, values), st.lists(values, min_size=2, max_size=2),
                     st.builds(Pair, values, values))


def _series(pairs):
    return st.one_of(st.lists(pairs, max_size=12), st.lists(pairs, max_size=12).map(tuple))


class TestPairReader:
    """The native converter of (t, v) pairs gives the bits, or the error, of
    np.fromiter, and so does the Python converter it falls back to."""

    @pytest.fixture(scope="class")
    def read_pairs(self, native_kernels):
        # Without the C converter every sequence goes to the Python one.
        with mock.patch.object(_kernels_py, "read_pairs_py", side_effect=AssertionError):
            try:
                native_kernels.read_pairs([(0.5, 1.0)])
            except AssertionError:
                pytest.skip("the library was built without Python.h")
        return native_kernels.read_pairs

    def _assert_parity(self, read_pairs, points):
        want = _outcome(_old_points, points)
        assert _points_with(read_pairs, points) == want
        assert _points_with(_kernels_py.read_pairs_py, points) == want

    @settings(max_examples=400, deadline=None)
    @given(points=_series(_pairs(_VALUES)))
    def test_pairs_match_fromiter(self, read_pairs, points):
        self._assert_parity(read_pairs, points)

    @settings(max_examples=200, deadline=None)
    @given(points=_series(st.one_of(_pairs(_VALUES), st.lists(_VALUES, max_size=3),
                                    st.lists(_VALUES, max_size=3).map(tuple))))
    def test_any_lengths_match_fromiter(self, read_pairs, points):
        self._assert_parity(read_pairs, points)

    @settings(max_examples=200, deadline=None)
    @given(points=_series(st.one_of(st.tuples(_NATIVE_VALUES, _NATIVE_VALUES),
                                    st.lists(_NATIVE_VALUES, min_size=2, max_size=2))))
    def test_floats_and_ints_stay_native(self, read_pairs, points):
        # Exact pairs of floats and ints within the float range never reach
        # the Python converter.
        with mock.patch.object(_kernels_py, "read_pairs_py", side_effect=AssertionError):
            got = _points_with(read_pairs, points)
        assert got == _outcome(_old_points, points)

    def test_large_series(self, read_pairs):
        rng = np.random.default_rng(19)
        values = rng.integers(0, 2**64, size=(50_000, 2), dtype=np.uint64).view(np.float64)
        points = list(zip(range(50_000), values[:, 1].tolist()))
        self._assert_parity(read_pairs, points)
        self._assert_parity(read_pairs, [list(p) for p in values.tolist()])

    def test_references_unchanged(self, read_pairs):
        # No small int or bool, which the interpreter shares: their counts
        # move with any other code.  The last pair goes to the Python
        # converter, and 10**400 overflows.
        pairs = [(1.5, 2001), [3001, 4.5], (2**70, -0.0), (7001, np.float32(1))]
        for points in (pairs[:3], pairs, tuple(pairs[:3]), [(1001, 10**400)]):
            items = [*points, *itertools.chain.from_iterable(points)]
            before = sys.getrefcount(points), [sys.getrefcount(x) for x in items]
            for _ in range(1000):
                try:
                    read_pairs(points)
                except OverflowError:
                    pass
            assert (sys.getrefcount(points), [sys.getrefcount(x) for x in items]) == before


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
    no_cc = _child(tmp_path, "no_cc", CC="/nonexistent/cc")
    if HAVE_CC:
        library = next((tmp_path / "default" / "periodicgame").glob("_kernels-*.so"))
        assert default[:2] == ("native", f"native: compiled {library}")
    else:
        assert default[:2] == ("python", "python: compiler 'cc' not found")
    assert no_cc[:2] == ("python", "python: compiler '/nonexistent/cc' not found")
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
    # Nor does it import the modules that only a build or a config file
    # needs, beyond what numpy itself imports.
    script = ("import sys\n"
              "import numpy\n"
              "before = set(sys.modules)\n"
              "import periodicgame.cli\n"
              "print(periodicgame.backend_reason())\n"
              "print(sorted({'json', 'subprocess', 'tempfile'} & (set(sys.modules) - before)))\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.splitlines() == [f"native: cached {path}", "[]"]


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

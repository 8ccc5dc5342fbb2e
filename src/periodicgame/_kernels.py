"""Hot inner loops: the loader and binder of the C library, with the
pure-Python backend of ``_kernels_py`` as its fallback.

``_kernels.c`` holds the trajectory kernels ``run_schedule`` (all three
rules) and ``run_reduced_composite``, written operation for operation like
the pure-Python kernels of ``_kernels_py``, so both backends give the same
bits,
``kl_rows``, the joint KL to a reference per recorded state behind
``simplex.kl_to_reference``, which adds the terms that the numpy columns
of ``kl_rows_py`` add, in the same order,
the CSV writer ``format_csv_rows``, which writes the same bytes as the
Python template it replaces, the one pass of an SVG series,
``format_plot_points`` (log10, scale and "%.3f,%.3f" in one loop over the
points ``output`` keeps, at most four points of each pixel column: those
of ``_kernels_py._column_extremes``), which writes the bytes of its numpy
fallback, and the CSV
reader ``parse_csv_rows``, which reads what ``np.loadtxt`` reads, to the
same bits, but the columns ``t`` and ``phase`` as exact int64 that must be
written as integers, into arrays of its own or the rows of those it is
given (``out``), sized by ``count_line_ends``, which counts the \\n and \\r
bytes of a block (``parse_csv_rows`` returns the count with the rows, for
``read_csv``'s line numbers), and ``pairs_into``, behind ``read_pairs``,
which copies a list of (t, v) pairs of floats and ints into an array with
the bits of ``np.fromiter`` and hands any other sequence to
``read_pairs_py``.
When this module is first imported (by ``--backend-info`` or the first
``periodicgame`` module that runs a kernel; ``import periodicgame`` alone
loads nothing) the C source is compiled with ``$CC`` (default ``cc``) and
the running interpreter's include directory into
``$XDG_CACHE_HOME/periodicgame/`` (``~/.cache/periodicgame/`` when the
variable is unset), under a name keyed by a sha256 (CPython's built-in
one: ``hashlib`` would load OpenSSL) of the source, the
compiler flags, the ``$CC`` words, the resolved compiler's size and mtime,
and the interpreter (``sys.implementation.cache_tag`` and ``sys.version``),
so a library is never loaded into another Python; later imports load the
cached library with ctypes, start no process and import neither
``subprocess`` nor ``tempfile``, which only a build needs.  Loading the
library and ``backend_name()`` and ``backend_reason()`` need no numpy: the
first read of a kernel name (``_kernels.run_schedule``) imports numpy and
binds every kernel as a module global, ``_bind``'s wrappers around the
library or the functions of ``_kernels_py``, through the module's
``__getattr__`` (PEP 562).  ``pairs_into`` reads
Python objects, so it is bound through ``ctypes.PyDLL``, which keeps the GIL
during the call; where the library has no such function (no Python.h at
build time, or a build without a GIL) or the interpreter is not CPython,
``read_pairs`` hands every sequence to ``read_pairs_py`` and every other
kernel stays native.
The library's text functions run in the "C" numeric locale, which it makes
once on load.  When anything fails (no compiler, a compile
error, among them the ``#error`` of a compiler without ``unsigned __int128``,
an unwritable cache, a library that does not load or cannot make that
locale) the functions of ``_kernels_py`` run instead and
``backend_reason()`` says why; a ``$CC`` that names no compiler forces them.
The native path never imports ``_kernels_py`` but for a sequence that
``read_pairs`` hands back; its ``*_py`` functions stay the reference that
the native ones are tested against.

Log-weights passed in must already be normalized log-probabilities; the
kernels keep them normalized after every step.
"""

import ctypes
import math
import os
import shlex
import shutil
import sys
import types

from .errors import InputError

ALGO_MWU = 0
ALGO_OMWU = 1
ALGO_EXTRA = 2

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernels.c")
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-std=c99")


def reduced_step(sign, z, eta, out):
    # One step of the 2x2 alternating game's reduced map: sign = +1 from an
    # even time index, -1 from an odd one.  Exponents follow from
    # x_2 = 1 - x_1 on each simplex.
    z1 = z[0]
    z2 = z[1]
    z3 = z[2]
    z4 = z[3]
    e1 = math.exp(sign * (-3.0 * eta + 4.0 * eta * z4 + 2.0 * eta * z3))
    e2 = math.exp(sign * (3.0 * eta - 4.0 * eta * z2 - 2.0 * eta * z1))
    out[0] = z2
    out[1] = z2 / (z2 + (1.0 - z2) * e1)
    out[2] = z4
    out[3] = z4 / (z4 + (1.0 - z4) * e2)


# Bytes per block of the native formatters.
_BLOCK_BYTES = 1 << 18

# A cell's blanks as parse_csv_rows in _kernels.c reads them.
_BLANKS = " \t\v\f"


def _bad_cell(line, name, cell, integer):
    return f"line {line}, column {name!r}: {cell!r} is not {'an integer' if integer else 'a number'}"


def _bad_length(line, count, ncols):
    return f"line {line} has {count} cells, the header names {ncols}"


class _BuildError(Exception):
    pass


def _sha256():
    """CPython's built-in sha256 constructor (``_sha2`` from 3.12, ``_sha256``
    before), or ``hashlib``'s where neither exists: ``hashlib`` loads
    OpenSSL's ``_hashlib``, 3.5 MB of RSS and 4 ms of a start (Python 3.11
    on a 2-vCPU VM)."""
    for name in ("_sha2", "_sha256", "hashlib"):
        try:
            return __import__(name).sha256
        except ImportError:
            pass


def _build_library(environ):
    """Path of the compiled library and "compiled" or "cached"; raises
    _BuildError naming the cause when there is none."""
    cc = shlex.split(environ.get("CC") or "cc")
    compiler = shutil.which(cc[0]) if cc else None
    if compiler is None:
        raise _BuildError(f"compiler {' '.join(cc)!r} not found")
    # The resolved compiler's size and mtime stand in for its version, so a
    # cached import starts no process.
    try:
        with open(_SOURCE, "rb") as fh:
            source = fh.read()
        stat = os.stat(compiler)
    except OSError as exc:
        raise _BuildError(f"cannot key the build: {exc}") from None
    # pairs_into is built against the running interpreter's headers, so the
    # interpreter is part of the key too.
    key = _sha256()(b"\0".join([source, " ".join(_CFLAGS).encode(), *map(str.encode, cc),
                                     f"{stat.st_size} {stat.st_mtime_ns}".encode(),
                                     f"{sys.implementation.cache_tag} {sys.version}".encode()]))
    cache = os.path.join(environ.get("XDG_CACHE_HOME")
                         or os.path.join(os.path.expanduser("~"), ".cache"), "periodicgame")
    path = os.path.join(cache, f"_kernels-{key.hexdigest()[:16]}.so")
    if os.path.exists(path):
        return path, "cached"
    # Only a build starts a process, makes a temporary file and reads the
    # interpreter's include directory, so a cached import loads none of these.
    import subprocess
    import sysconfig
    import tempfile
    try:
        os.makedirs(cache, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=os.path.basename(path) + ".", suffix=".tmp",
                                   dir=cache)
        os.close(fd)
    except OSError as exc:
        raise _BuildError(f"cache {cache} not writable: {exc}") from None
    include = sysconfig.get_paths()["include"]
    try:
        proc = subprocess.run(cc + [*_CFLAGS, f"-I{include}", "-o", tmp, _SOURCE, "-lm"],
                              capture_output=True, text=True, timeout=300)
        if proc.returncode != 0:
            detail = (proc.stderr.strip().splitlines() or ["no output"])[0]
            raise _BuildError(f"{cc[0]!r} exited with {proc.returncode}: {detail}")
        # Concurrent first imports each build their own file; the last
        # rename wins and every process loads a complete library.
        os.replace(tmp, path)
    except (OSError, subprocess.SubprocessError) as exc:
        raise _BuildError(f"compile failed: {exc}") from None
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return path, "compiled"


def _load(environ):
    """(ctypes library or None, reason) for the given environment."""
    try:
        path, how = _build_library(environ)
    except _BuildError as exc:
        return None, f"python: {exc}"
    try:
        lib = ctypes.CDLL(path)
    except OSError as exc:
        return None, f"python: cannot load {path}: {exc}"
    if not lib.init_locale():
        return None, "python: cannot make the C numeric locale"
    ptr, long_, double = ctypes.c_void_p, ctypes.c_long, ctypes.c_double
    lib.run_schedule.argtypes = [ctypes.c_int, ptr, long_, long_, long_, double, long_,
                                 ptr, long_] + [ptr] * 7
    lib.run_schedule.restype = long_
    lib.run_reduced_composite.argtypes = [ptr, double, long_, ptr]
    lib.run_reduced_composite.restype = long_
    lib.format_csv_rows.argtypes = [ptr, ptr, ptr] + [long_] * 3 + [ptr, long_, ptr]
    lib.format_csv_rows.restype = long_
    lib.format_plot_points.argtypes = [ptr, ctypes.c_int, ptr] + [long_] * 2 + [ptr, long_, ptr]
    lib.format_plot_points.restype = long_
    lib.parse_csv_rows.argtypes = [ptr] + [long_] * 6 + [ptr] * 4
    lib.parse_csv_rows.restype = long_
    lib.count_byte.argtypes = [ptr, long_, long_, ctypes.c_int]
    lib.count_byte.restype = long_
    lib.kl_rows.argtypes = [ptr, ptr, long_, ptr, long_, long_, double, ptr]
    lib.kl_rows.restype = None
    return lib, f"native: {how} {path}"


def _pairs_into(lib):
    """The C function pairs_into of ``lib``, called with the GIL held, or
    None where the library was built without Python.h or without a GIL, or
    the interpreter is not CPython, whose objects it reads."""
    if sys.implementation.name != "cpython":
        return None
    try:
        fn = ctypes.PyDLL(lib._name, handle=lib._handle).pairs_into
    except AttributeError:
        return None
    fn.argtypes = [ctypes.py_object, ctypes.c_void_p, ctypes.c_long]
    fn.restype = ctypes.c_long
    return fn


def _bind(lib):
    """Thin wrappers with the Python kernels' signatures and in-place
    effects around the C functions of ``lib``, in a namespace keyed by
    name like ``_kernels_py._PYTHON``.  Every array handed to C stays bound
    to a local name until the call returns."""
    import numpy as np

    def out_buffer(name, a, shape, min_rows=None, dtype=np.float64):
        # Results are written through a raw pointer, so the caller's array
        # must be the exact memory layout the C code assumes.
        if not (isinstance(a, np.ndarray) and a.dtype == dtype
                and a.flags.c_contiguous and a.flags.writeable):
            raise InputError(f"{name} must be a writable C-contiguous {np.dtype(dtype)} array")
        ok = a.shape == shape if min_rows is None else (
            a.ndim == 1 + len(shape) and a.shape[0] >= min_rows and a.shape[1:] == shape)
        if not ok:
            rows = "" if min_rows is None else f"at least {min_rows} rows of "
            raise InputError(f"{name} must have {rows}shape {shape}, got {a.shape}")

    def run_schedule(algo, mats, eta, steps, rec_times, lw1, lw2, lwp1, lwp2, out1, out2):
        mats = np.ascontiguousarray(mats, dtype=np.float64)
        rec = np.ascontiguousarray(rec_times, dtype=np.int64)
        if mats.ndim != 3 or 0 in mats.shape or rec.ndim != 1:
            raise InputError("mats must be a non-empty (T, m, n) stack and rec_times 1-d")
        periods, m, n = mats.shape
        q1 = np.ascontiguousarray(lwp1, dtype=np.float64)
        q2 = np.ascontiguousarray(lwp2, dtype=np.float64)
        if q1.shape != (m,) or q2.shape != (n,):
            raise InputError(f"lwp1/lwp2 must have shapes ({m},)/({n},)")
        out_buffer("lw1", lw1, (m,))
        out_buffer("lw2", lw2, (n,))
        out_buffer("out1", out1, (m,), rec.size)
        out_buffer("out2", out2, (n,), rec.size)
        scratch = np.empty(5 * (m + n))
        written = lib.run_schedule(
            int(algo), mats.ctypes.data, periods, m, n, float(eta), int(steps),
            rec.ctypes.data, rec.size, lw1.ctypes.data, lw2.ctypes.data,
            q1.ctypes.data, q2.ctypes.data, out1.ctypes.data, out2.ctypes.data,
            scratch.ctypes.data)
        if written < 0:
            raise OverflowError("math range error")
        return written

    def run_reduced_composite(z0, eta, n_steps, out):
        z = np.ascontiguousarray(z0, dtype=np.float64)
        if z.shape != (4,):
            raise InputError(f"z0 must have shape (4,), got {z.shape}")
        n_steps = int(n_steps)
        out_buffer("out", out, (4,), max(n_steps, 0) + 1)
        if lib.run_reduced_composite(z.ctypes.data, float(eta), n_steps, out.ctypes.data) < 0:
            raise OverflowError("math range error")

    def kl_rows(rp1, rlp1, lp1, rp2, rlp2, lp2, log_zero):
        a1 = np.ascontiguousarray(lp1, dtype=np.float64)
        a2 = np.ascontiguousarray(lp2, dtype=np.float64)
        m, n = np.shape(rp1), np.shape(rp2)
        if not (len(m) == len(n) == 1 and np.shape(rlp1) == m and np.shape(rlp2) == n
                and a1.ndim == 2 and a1.shape[1:] == m and a2.shape == (len(a1), *n)):
            raise InputError("lp1/lp2 must be (rows, m)/(rows, n) blocks under (m,)/(n,) "
                             "reference vectors")
        # One buffer for the four reference vectors: one pointer, not four.
        ref = np.concatenate((rp1, rlp1, rp2, rlp2), dtype=np.float64)
        out = np.empty(len(a1))
        lib.kl_rows(ref.ctypes.data, a1.ctypes.data, m[0], a2.ctypes.data, n[0],
                    len(out), float(log_zero), out.ctypes.data)
        return out

    def write_blocks(fill, args, total, fh, cap):
        # fill(*args, start, total, buf, cap, &length) formats items from
        # start until the buffer is full and returns the next index.
        buf = np.empty(cap, dtype=np.uint8)
        length = ctypes.c_long()
        start = 0
        while start < total:
            start = fill(*args, start, total, buf.ctypes.data, cap, ctypes.byref(length))
            fh.write(buf[:length.value])

    def format_csv_rows(times, phases, cells, fh):
        t = np.ascontiguousarray(times, dtype=np.int64)
        ph = np.ascontiguousarray(phases, dtype=np.int64)
        c = np.ascontiguousarray(cells, dtype=np.float64)
        if c.ndim != 2 or t.shape != (c.shape[0],) or ph.shape != t.shape:
            raise InputError("cells must be (rows, k) with one time and phase per row")
        k = c.shape[1]
        # The C side stops before a row that might not fit; a worst-case
        # row takes under 64 bytes a cell, so every block holds one.
        write_blocks(lib.format_csv_rows, (t.ctypes.data, ph.ctypes.data, c.ctypes.data, k),
                     len(c), fh, _BLOCK_BYTES + 64 * k)

    def format_plot_points(xy, log_y, axes, fh):
        pts = np.ascontiguousarray(xy, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise InputError(f"xy must have shape (N, 2), got {pts.shape}")
        ax = np.ascontiguousarray(axes, dtype=np.float64)
        if ax.shape != (10,):
            raise InputError(f"axes must hold 10 numbers, got shape {ax.shape}")
        write_blocks(lib.format_plot_points, (pts.ctypes.data, bool(log_y), ax.ctypes.data),
                     len(pts), fh, _BLOCK_BYTES)

    def count_line_ends(data):
        buf = np.frombuffer(data, dtype=np.uint8)
        return tuple(lib.count_byte(buf.ctypes.data, 0, len(buf), end) for end in b"\n\r")

    def parse_csv_rows(data, start, line, names, t_col, phase_col, out=None):
        ncols = len(names)
        if not (isinstance(data, (bytes, bytearray, memoryview)) and 0 <= start <= len(data)
                and t_col != phase_col and 0 <= min(t_col, phase_col)
                and max(t_col, phase_col) < ncols):
            raise InputError("data must be bytes-like, start an offset into it, and t_col and "
                             "phase_col two columns of names")
        buf = np.frombuffer(data, dtype=np.uint8)
        # One row per line at most: every line but the last ends in \n or \r.
        ends = count_line_ends(buf[start:])
        cap = sum(ends) + 1
        if out is None:
            out = (np.empty(cap, dtype=np.int64), np.empty(cap, dtype=np.int64),
                   np.empty((cap, ncols - 2)))
        t, phase, cells = out
        out_buffer("t", t, (), cap, np.int64)
        out_buffer("phase", phase, (), cap, np.int64)
        out_buffer("cells", cells, (ncols - 2,), cap)
        err = np.zeros(4, dtype=np.int64)
        # A bytes object keeps a NUL after its last byte, where strtod stops
        # on a last cell that has no line end; read_csv puts one after the
        # view of its buffer that it passes.
        rows = lib.parse_csv_rows(buf.ctypes.data, start, len(buf), line, ncols, t_col,
                                  phase_col, t.ctypes.data, phase.ctypes.data,
                                  cells.ctypes.data, err.ctypes.data)
        if rows < 0:
            number, j, a, b = err.tolist()
            raise ValueError(_bad_length(number, a, ncols) if j < 0 else
                             _bad_cell(number, names[j], str(data[a:b], "utf-8"),
                                       j in (t_col, phase_col)))
        return t[:rows], phase[:rows], cells[:rows], ends

    pairs_into = _pairs_into(lib)

    def read_pairs(points):
        # C copies exact lists and tuples of float and int pairs; it hands
        # every other sequence back (-1) to the Python converter.
        if pairs_into is not None and type(points) in (list, tuple):
            xy = np.empty((len(points), 2))
            if pairs_into(points, xy.ctypes.data, len(xy)) == len(xy):
                return xy
        from ._kernels_py import read_pairs_py
        return read_pairs_py(points)

    return types.SimpleNamespace(
        run_schedule=run_schedule, run_reduced_composite=run_reduced_composite,
        kl_rows=kl_rows, format_csv_rows=format_csv_rows, format_plot_points=format_plot_points,
        count_line_ends=count_line_ends, parse_csv_rows=parse_csv_rows, read_pairs=read_pairs)


_lib, _reason = _load(os.environ)

# The names __getattr__ binds, each to its kernel on the active backend.
_KERNELS = ("run_schedule", "run_reduced_composite", "kl_rows", "format_csv_rows",
            "format_plot_points", "count_line_ends", "parse_csv_rows", "read_pairs")


def __getattr__(name):
    # Reached only for a name not bound yet: the first read of a kernel (or
    # of _active) binds them all, so later reads are plain global lookups.
    # One dict update binds them, so threads that race here each leave a
    # whole set from one backend namespace.
    if name != "_active" and name not in _KERNELS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    if _lib is None:
        from ._kernels_py import _PYTHON as active
    else:
        active = _bind(_lib)
    globals().update(_active=active, **{kernel: getattr(active, kernel) for kernel in _KERNELS})
    return globals()[name]


def backend_name() -> str:
    """"native" when the C kernels run, else "python"."""
    return "python" if _lib is None else "native"


def backend_reason() -> str:
    """The backend and why, e.g. ``native: cached <path>`` or
    ``python: compiler 'cc' not found``."""
    return _reason

"""Hot inner loops for trajectory iteration: a C kernel with a Python fallback.

``_kernels.c`` holds ``run_schedule`` (all three rules) and
``run_reduced_composite``, written operation for operation like the
pure-Python kernels in this module, so both backends give the same bits.
On first import the C source is compiled with ``$CC`` (default ``cc``) into
``$XDG_CACHE_HOME/periodicgame/`` (``~/.cache/periodicgame/`` when the
variable is unset), under a name keyed by a sha256 of the source, the
compiler flags, the ``$CC`` words and the resolved compiler's size and
mtime; later imports load the cached library with ctypes and start no
process.  When anything fails (no compiler, a compile error, an unwritable
cache, a library that does not load) the Python kernels run instead and
``backend_reason()`` says why.  ``PERIODICGAME_BACKEND=python``
forces them.  ``run_schedule_py`` and ``run_reduced_composite_py`` stay the
reference that the native kernels are tested against.

Log-weights passed in must already be normalized log-probabilities; the
kernels keep them normalized after every step.
"""

import ctypes
import hashlib
import math
import os
import shlex
import shutil
import subprocess
import tempfile

import numpy as np

from .errors import InputError

ALGO_MWU = 0
ALGO_OMWU = 1
ALGO_EXTRA = 2

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernels.c")
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-std=c99")


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


def _exp_into(lw, out):
    for i in range(lw.size):
        out[i] = math.exp(lw[i])


def _matvec(a, x, out):
    for i in range(a.shape[0]):
        acc = 0.0
        for j in range(a.shape[1]):
            acc += a[i, j] * x[j]
        out[i] = acc


def _mat_t_vec(a, x, out):
    for j in range(a.shape[1]):
        acc = 0.0
        for i in range(a.shape[0]):
            acc += a[i, j] * x[i]
        out[j] = acc


def run_schedule_py(algo, mats, eta, steps, rec_times, lw1, lw2, lwp1, lwp2, out1, out2):
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


def run_reduced_composite_py(z0, eta, n_steps, out):
    """Iterate (even-map o odd-map) n_steps times, recording every iterate."""
    z = np.empty(4)
    w = np.empty(4)
    for k in range(4):
        z[k] = z0[k]
        out[0, k] = z0[k]
    for step in range(n_steps):
        reduced_step(-1.0, z, eta, w)
        reduced_step(1.0, w, eta, z)
        for k in range(4):
            out[step + 1, k] = z[k]


class _BuildError(Exception):
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
    key = hashlib.sha256(b"\0".join([source, " ".join(_CFLAGS).encode(), *map(str.encode, cc),
                                     f"{stat.st_size} {stat.st_mtime_ns}".encode()]))
    cache = os.path.join(environ.get("XDG_CACHE_HOME")
                         or os.path.join(os.path.expanduser("~"), ".cache"), "periodicgame")
    path = os.path.join(cache, f"_kernels-{key.hexdigest()[:16]}.so")
    if os.path.exists(path):
        return path, "cached"
    try:
        os.makedirs(cache, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=os.path.basename(path) + ".", suffix=".tmp",
                                   dir=cache)
        os.close(fd)
    except OSError as exc:
        raise _BuildError(f"cache {cache} not writable: {exc}") from None
    try:
        proc = subprocess.run(cc + [*_CFLAGS, "-o", tmp, _SOURCE, "-lm"],
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
    choice = environ.get("PERIODICGAME_BACKEND", "").strip().lower()
    if choice == "python":
        return None, "python: PERIODICGAME_BACKEND=python"
    if choice not in ("", "native"):
        return None, f"python: PERIODICGAME_BACKEND={choice!r} is not 'native' or 'python'"
    try:
        path, how = _build_library(environ)
    except _BuildError as exc:
        return None, f"python: {exc}"
    try:
        lib = ctypes.CDLL(path)
    except OSError as exc:
        return None, f"python: cannot load {path}: {exc}"
    ptr, long_, double = ctypes.c_void_p, ctypes.c_long, ctypes.c_double
    lib.run_schedule.argtypes = [ctypes.c_int, ptr, long_, long_, long_, double, long_,
                                 ptr, long_] + [ptr] * 7
    lib.run_schedule.restype = long_
    lib.run_reduced_composite.argtypes = [ptr, double, long_, ptr]
    lib.run_reduced_composite.restype = long_
    return lib, f"native: {how} {path}"


def _out_buffer(name, a, shape, min_rows=None):
    # Results are written through a raw pointer, so the caller's array must
    # be the exact memory layout the C code assumes.
    if not (isinstance(a, np.ndarray) and a.dtype == np.float64
            and a.flags.c_contiguous and a.flags.writeable):
        raise InputError(f"{name} must be a writable C-contiguous float64 array")
    ok = a.shape == shape if min_rows is None else (
        a.ndim == 2 and a.shape[0] >= min_rows and a.shape[1:] == shape)
    if not ok:
        rows = "" if min_rows is None else f"at least {min_rows} rows of "
        raise InputError(f"{name} must have {rows}shape {shape}, got {a.shape}")


def _bind(lib):
    """Thin wrappers with the Python kernels' signatures and in-place
    effects around the C functions of ``lib``.  Every array handed to C
    stays bound to a local name until the call returns."""

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
        _out_buffer("lw1", lw1, (m,))
        _out_buffer("lw2", lw2, (n,))
        _out_buffer("out1", out1, (m,), rec.size)
        _out_buffer("out2", out2, (n,), rec.size)
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
        _out_buffer("out", out, (4,), max(n_steps, 0) + 1)
        if lib.run_reduced_composite(z.ctypes.data, float(eta), n_steps, out.ctypes.data) < 0:
            raise OverflowError("math range error")

    return run_schedule, run_reduced_composite


_lib, _reason = _load(os.environ)
if _lib is not None:
    run_schedule, run_reduced_composite = _bind(_lib)
else:
    run_schedule, run_reduced_composite = run_schedule_py, run_reduced_composite_py


def backend_name() -> str:
    """"native" when the C kernels run, else "python"."""
    return "python" if _lib is None else "native"


def backend_reason() -> str:
    """The backend and why, e.g. ``native: cached <path>`` or
    ``python: compiler 'cc' not found``."""
    return _reason

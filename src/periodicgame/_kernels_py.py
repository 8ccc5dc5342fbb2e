"""The pure-Python backend: the reference kernels behind ``_kernels``.

Each ``*_py`` function here does what its namesake in ``_kernels.c`` does,
operation for operation, so both backends give the same bits and bytes:
the trajectory kernels ``run_schedule_py`` and ``run_reduced_composite_py``,
the joint KL to a reference per recorded state ``kl_rows_py``, the CSV
writer ``format_csv_rows_py``, the format pass of an SVG series
``format_plot_points_py`` (``output`` keeps a series' points and finds
their extremes in numpy for both backends), the pair reader
``read_pairs_py``, the line-end counter ``count_line_ends_py`` and the CSV
reader ``parse_csv_rows_py``.  ``run_schedule_py`` runs every step: it is
the step-by-step oracle of the native kernel, which stops once a run closes
an orbit and copies the rest.  ``_PYTHON``
holds them under the names of the native kernels.

``_kernels`` imports this module only where the C library is missing, on
the first read of a kernel, and its native ``read_pairs`` only for a
sequence the C converter hands back;
the tests import it as the oracle of the native kernels.
"""

import itertools
import math
import numbers
import re
import types

import numpy as np

from ._kernels import ALGO_MWU, ALGO_OMWU, _BLANKS, _bad_cell, _bad_length, reduced_step


def _lse_normalize(lw):
    # In-place log-softmax: afterwards logsumexp(lw) == 0.
    m = lw[0]
    for i in range(1, lw.size):
        if lw[i] > m:
            m = lw[i]
    s = 0.0
    for i in range(lw.size):
        # exp(+-0) is exactly 1, and at least one term is the maximum.
        d = lw[i] - m
        s += 1.0 if d == 0.0 else math.exp(d)
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

    # ph is t % periods, prev is (t - 1) % periods (periods - 1 at t = 0).
    ph, prev = 0, periods - 1
    for t in range(steps):
        a = mats[ph]
        if algo == ALGO_MWU:
            _matvec(a, p2, v1)
            _mat_t_vec(a, p1, v2)
            for i in range(m):
                lw1[i] += eta * v1[i]
            for j in range(n):
                lw2[j] -= eta * v2[j]
        elif algo == ALGO_OMWU:
            ap = mats[prev]
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
        prev = ph
        ph += 1
        if ph == periods:
            ph = 0
    return r


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


def _player_kl_rows(rp, rlp, log_probs, log_zero):
    """KL(ref, row) per row of one player's block, a column at a time: the
    terms where ``rp`` has mass from left to right and from +0.0, and +inf
    where the row vanishes (below ``log_zero``) on one of them."""
    acc = np.zeros(log_probs.shape[0])
    vanished = np.zeros(log_probs.shape[0], dtype=bool)
    for j, (p, lp) in enumerate(zip(rp.tolist(), rlp.tolist())):
        if p > 0.0:
            col = log_probs[:, j]
            term = lp - col
            term *= p
            acc += term
            vanished |= col < log_zero
    acc[vanished] = math.inf
    return acc


def kl_rows_py(rp1, rlp1, lp1, rp2, rlp2, lp2, log_zero):
    """The joint KL to the reference per row of lp1 and lp2, never below zero."""
    out = np.zeros(len(lp1))
    out += _player_kl_rows(rp1, rlp1, lp1, log_zero)
    out += _player_kl_rows(rp2, rlp2, lp2, log_zero)
    return np.maximum(out, 0.0)


# Rows or points per block of the Python formatters: it keeps their lists
# of Python floats small.
_PY_BLOCK = 1024


def format_csv_rows_py(times, phases, cells, fh):
    """Write one CSV line per row of ``cells`` (rows, k) to the binary
    handle ``fh``: the time and the phase as %d, then each cell as %.17g
    ('%.17g' also spells nan, inf, -inf and -0)."""
    row_fmt = "%d,%d" + ",%.17g" * cells.shape[1] + "\n"
    for lo in range(0, len(cells), _PY_BLOCK):
        hi = lo + _PY_BLOCK
        rows = zip(times[lo:hi].tolist(), phases[lo:hi].tolist(), cells[lo:hi].tolist())
        fh.write("".join([row_fmt % (t, ph, *row) for t, ph, row in rows]).encode())


def _column_extremes(xs, ys):
    """The indices, in order, of the plot points (xs, ys) that
    format_plot_points writes: of each run of consecutive points whose
    written x has one integer part (the "%.3f" text before the '.', "-0"
    and "0" apart), a pixel column of the plot, the first, the first of
    least y, the first of greatest y and the last.  As in the C loop, no
    comparison with NaN holds: a NaN x is a run of its own, and a NaN y
    first in its run is both extremes."""
    if not len(xs):
        return np.empty(0, dtype=np.intp)
    # round(x, 3) is the double nearest the "%.3f" text of x, its sign kept.
    cols = np.trunc([round(x, 3) for x in xs.tolist()])
    signs = np.signbit(cols)
    starts = np.concatenate(([True], (cols[1:] != cols[:-1]) | (signs[1:] != signs[:-1])))
    run = np.cumsum(starts)
    first = np.flatnonzero(starts)
    last = np.append(first[1:], len(xs)) - 1
    # lexsort is stable and puts NaN last: in each run, the first least y
    # (of -y: greatest y), -0 and +0 tied.
    nan_first = np.isnan(ys[first])
    lo = np.where(nan_first, first, np.lexsort((ys, run))[first])
    hi = np.where(nan_first, first, np.lexsort((-ys, run))[first])
    return np.unique(np.concatenate([first, lo, hi, last]))


def format_plot_points_py(xy, log_y, axes, fh):
    """Write the points of the plot series ``xy`` (N, 2), whose t and v are
    finite and v > 0 under ``log_y`` (the points emit_svg_plot keeps), to
    the binary handle ``fh`` as "x,y" pairs at %.3f, joined by spaces: at
    most four points of each pixel column, those of ``_column_extremes``.
    v becomes log10 v under log_y.  ``axes`` holds (k, start, span, size,
    margin) for x, then for y; a coordinate is
    margin + (v * k - start) / span * size."""
    ts, vs = xy[:, 0], xy[:, 1]
    if log_y:
        # math.log10, not np.log10, which may differ in the last ulp.
        vs = np.array(list(map(math.log10, vs.tolist())), dtype=np.float64)
    kx, x0, xspan, xsize, xmargin, ky, y0, yspan, ysize, ymargin = axes
    xs = xmargin + (ts * kx - x0) / xspan * xsize
    ys = ymargin + (vs * ky - y0) / yspan * ysize
    keep = _column_extremes(xs, ys)
    xy = np.column_stack([xs[keep], ys[keep]])
    for lo in range(0, len(xy), _PY_BLOCK):
        block = xy[lo:lo + _PY_BLOCK]
        pairs = " ".join(["%.3f,%.3f"] * len(block)) % tuple(block.ravel().tolist())
        fh.write(((" " if lo else "") + pairs).encode())


def read_pairs_py(points):
    """The (N, 2) float64 array of ``points``, a sequence of (t, v) pairs
    of real numbers (``numbers.Real``: int, float, bool and numpy's integer
    and floating scalars), each converted as ``float()`` converts it.  Raises
    ValueError for a point that is not a pair, TypeError for a value that
    is not a real number, and OverflowError for an int beyond the float
    range."""
    if not set(map(len, points)) <= {2}:
        raise ValueError("points must be (t, v) pairs")
    kinds = set(map(type, itertools.chain.from_iterable(points)))
    if not all(issubclass(kind, numbers.Real) for kind in kinds):
        raise TypeError("point values must be real numbers")
    return np.fromiter(itertools.chain.from_iterable(points), np.float64,
                       count=2 * len(points)).reshape(-1, 2)


# The cells parse_csv_rows in _kernels.c accepts, spelled as regular
# expressions; they only name the bad cell once np.loadtxt or int() has
# refused one.
_INT_CELL = re.compile(r"[ \t\v\f]*[+-]?[0-9]+[ \t\v\f]*")
_FLOAT_CELL = re.compile(r"[ \t\v\f]*[+-]?(?:inf|infinity|nan|(?:[0-9]+\.?[0-9]*|\.[0-9]+)"
                         r"(?:e[+-]?[0-9]+)?)[ \t\v\f]*", re.IGNORECASE)


def _first_bad_cell(lines, line, names, int_cols):
    """The message for the first bad cell or row of ``lines``, numbered
    from ``line``."""
    for number, row in enumerate(lines, line):
        if not row.strip(_BLANKS):
            continue
        cells = row.split(",")
        for j, cell in enumerate(cells[:len(names)]):
            if j in int_cols:
                ok = _INT_CELL.fullmatch(cell) and -2**63 <= int(cell) < 2**63
            else:
                ok = _FLOAT_CELL.fullmatch(cell)
            if not ok:
                return _bad_cell(number, names[j], cell, j in int_cols)
        if len(cells) != len(names):
            return _bad_length(number, len(cells), len(names))
    return None


def count_line_ends_py(data):
    """The number of \\n bytes and of \\r bytes in the bytes-like ``data``."""
    data = bytes(data)
    return data.count(b"\n"), data.count(b"\r")


def parse_csv_rows_py(data, start, line, names, t_col, phase_col, out=None):
    """Read the CSV body ``data[start:]`` (UTF-8 bytes-like, whose first line
    is file line ``line``) under the header ``names``: returns int64 ``t``
    and ``phase`` (columns ``t_col`` and ``phase_col``) and float64 ``cells``
    (rows, len(names) - 2) holding the other columns in order, in the first
    rows of ``out``'s three arrays when it is given (the native parser needs
    one row for each \\n and \\r in the body, and one more), and the
    numbers of \\n and of \\r in the body, as ``count_line_ends`` counts
    them.  Lines end in \\n, \\r\\n or \\r, '#' starts a comment, and a
    line blank up to its comment is skipped.  A cell is a decimal, inf,
    infinity or nan (any case, optional sign; an integer in columns t and
    phase) with blanks on either side; np.loadtxt reads the numbers.  A bad
    cell or a row of the wrong length raises ValueError naming its line and
    column."""
    text = str(data[start:], "utf-8")
    ends = text.count("\n"), text.count("\r")
    if ends[1]:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if "#" in text:
        lines = [row.partition("#")[0] for row in lines]
    rows = [row for row in lines if row.strip(_BLANKS)]
    ncols = len(names)
    split_at = max(t_col, phase_col) + 1
    try:
        # np.loadtxt would take the separators \x1c-\x1f and non-ASCII
        # spaces for blanks.
        joined = "\n".join(rows)
        if not joined.isascii() or any(c in joined for c in "\x1c\x1d\x1e\x1f"):
            raise ValueError
        body = (np.loadtxt(rows, delimiter=",", comments=None, ndmin=2) if rows
                else np.empty((0, ncols)))
        if body.shape[1] != ncols:
            raise ValueError
        split = [row.split(",", split_at) for row in rows]
        t = np.array([int(cells[t_col]) for cells in split], dtype=np.int64)
        phase = np.array([int(cells[phase_col]) for cells in split], dtype=np.int64)
    except (ValueError, OverflowError) as exc:
        raise ValueError(_first_bad_cell(lines, line, names, (t_col, phase_col))
                         or str(exc)) from None
    parsed = t, phase, body[:, [j for j in range(ncols) if j not in (t_col, phase_col)]]
    if out is None:
        return (*parsed, ends)
    for into, rows in zip(out, parsed):
        into[:len(rows)] = rows
    return (*(into[:len(t)] for into in out), ends)


_PYTHON = types.SimpleNamespace(
    run_schedule=run_schedule_py, run_reduced_composite=run_reduced_composite_py,
    kl_rows=kl_rows_py, format_csv_rows=format_csv_rows_py,
    format_plot_points=format_plot_points_py, count_line_ends=count_line_ends_py,
    parse_csv_rows=parse_csv_rows_py, read_pairs=read_pairs_py)

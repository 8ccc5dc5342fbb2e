"""CSV and SVG emission.

Both formats are bit-deterministic for identical input: floats are written
with 17 significant digits (lossless for binary64), lines end with LF, and
the SVG contains no timestamps or random ids.  An SVG series' drop and
extremes are one numpy step here; the per-value work, the CSV cells, an SVG
series' log10, scaling and formatting, and the parsing of a CSV read back,
runs in ``_kernels`` (native or Python, the same bytes and bits either
way).
"""

from __future__ import annotations

import math
import re
import sys
from typing import TYPE_CHECKING, Sequence, Tuple, Union

import numpy as np

from . import _kernels
from .errors import InputError

if TYPE_CHECKING:
    from .simplex import Trajectory

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf", "#7f7f7f")
_EOL = re.compile(rb"\r\n?|\n")


def emit_csv(traj: Trajectory, path: str) -> None:
    """Write `t,phase,x1_1..x1_m,x2_1..x2_n,kl_to_ref,min_component`."""
    m = traj.log_probs1.shape[1]
    n = traj.log_probs2.shape[1]
    header = (["t", "phase"]
              + [f"x1_{i + 1}" for i in range(m)]
              + [f"x2_{j + 1}" for j in range(n)]
              + ["kl_to_ref", "min_component"])
    cells = np.column_stack([traj.probabilities1, traj.probabilities2,
                             traj.kl_to_ref, traj.min_component])
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        _kernels.format_csv_rows(traj.times, traj.phases, cells, fh)


def read_csv(path: str) -> dict:
    """Parse a trajectory CSV back into arrays: ``t`` and ``phase`` as exact
    int64 (a cell there must be an integer), every other column with the
    float64 bits that were written.  A malformed file raises InputError
    naming it, and the file line and column header of a bad cell."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InputError(f"{path} is not UTF-8 text: {exc}") from exc
    # The header is the first line that is not blank.
    start, line = 0, 1
    while True:
        eol = _EOL.search(data, start)
        text = data[start:eol.start() if eol else len(data)].decode()
        if text.strip(_kernels._BLANKS) or eol is None:
            break
        start, line = eol.end(), line + 1
    header = text.split(",")
    cols = {name: idx for idx, name in enumerate(header)}
    missing = sorted({"t", "phase", "kl_to_ref", "min_component"} - cols.keys())
    if missing:
        raise InputError(f"{path} has no {missing[0]!r} column")
    t_col, phase_col = cols["t"], cols["phase"]
    try:
        t, phase, cells = _kernels.parse_csv_rows(data, eol.end() if eol else len(data),
                                                  line + 1, header, t_col, phase_col)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc
    if not len(t):
        raise InputError(f"{path} holds no data rows")

    def at(i):   # the cells column of header column i
        return i - (i > t_col) - (i > phase_col)

    def block(prefix):
        return cells[:, [at(i) for name, i in cols.items() if name.startswith(prefix)]]

    return {
        "t": t,
        "phase": phase,
        "x1": block("x1_"),
        "x2": block("x2_"),
        "kl_to_ref": cells[:, at(cols["kl_to_ref"])],
        "min_component": cells[:, at(cols["min_component"])],
    }


# Each entry pairs a label with its points: any sequence of (t, v) pairs of
# real numbers, or an (N, 2) array of integer or floating dtype.
Series = Sequence[Tuple[str, Union[Sequence[Tuple[float, float]], np.ndarray]]]

_WIDTH, _HEIGHT = 800, 600
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 72, 16, 16, 48


def emit_svg_plot(series: Series, path: str, log_y: bool = False) -> None:
    """Standalone SVG 1.1 line chart: one polyline per series, linear or
    log10 y-axis, min/max tick labels, and a legend.  The points of a series
    are (t, v) pairs of real numbers (int, float, bool, numpy's integer and
    floating scalars: ``numbers.Real``) or an (N, 2) array of integer or
    floating dtype; anything else (a point that is not a pair, a string,
    bytes, None, an int past the float range, an array of text or objects)
    raises InputError naming the series.  Non-finite values (and
    nonpositive ones under log_y) are dropped; the SVG comment "dropped N
    non-finite points" counts both.

    A list of (t, v) pairs of floats and ints is copied into an array in one
    C pass (``_kernels.read_pairs``).  One numpy step (``_kept_extent``) then
    keeps a series' points and finds their extremes, and once the axes are
    known one pass of ``_kernels.format_plot_points`` takes log10 of and
    scales the kept points.  Of each run of consecutive points whose written
    x has one integer part, a pixel column, it writes the first, the first
    of least y, the first of greatest y and the last: at most four points a
    column, which keep the line's first and last points and its extremes in
    every column.  The CSV of a run keeps every point."""
    if not series:
        raise InputError("no series to plot")
    cleaned = []
    dropped = 0
    for label, points in series:
        pts = _points(label, points)
        kept, extent = _kept_extent(pts, log_y)
        dropped += len(pts) - len(kept)
        cleaned.append((str(label), kept, extent))
    extents = [extent for _, kept, extent in cleaned if len(kept)]
    if not extents:
        raise InputError("every data point was dropped; nothing to plot")

    # min and max keep the first of equal extremes, in series order as
    # _kept_extent does in point order: a +0/-0 tie shows in a zero tick label.
    t_los, t_his, v_los, v_his = zip(*extents)
    x_lo, x_hi, y_lo, y_hi = min(t_los), max(t_his), min(v_los), max(v_his)
    if x_hi == x_lo:
        x_lo, x_hi = _widen(x_lo)
    if y_hi == y_lo:
        y_lo, y_hi = _widen(y_lo)

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f"<!-- dropped {dropped} non-finite points -->",
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#444444" stroke-width="1"/>',
    ]
    axis_font = 'font-family="monospace" font-size="13"'
    y_lo_label = f"1e{y_lo:.4g}" if log_y else f"{y_lo:.6g}"
    y_hi_label = f"1e{y_hi:.4g}" if log_y else f"{y_hi:.6g}"
    out += [
        f'<text x="{_MARGIN_L}" y="{_HEIGHT - _MARGIN_B + 20}" {axis_font}>{x_lo:.6g}</text>',
        f'<text x="{_WIDTH - _MARGIN_R}" y="{_HEIGHT - _MARGIN_B + 20}" {axis_font} '
        f'text-anchor="end">{x_hi:.6g}</text>',
        f'<text x="{_MARGIN_L - 6}" y="{_HEIGHT - _MARGIN_B}" {axis_font} '
        f'text-anchor="end">{y_lo_label}</text>',
        f'<text x="{_MARGIN_L - 6}" y="{_MARGIN_T + 12}" {axis_font} '
        f'text-anchor="end">{y_hi_label}</text>',
    ]
    legend = []
    legend_y = _MARGIN_T + 18
    for idx, (label, _, _) in enumerate(cleaned):
        color = _PALETTE[idx % len(_PALETTE)]
        y = legend_y + idx * 18
        legend.append(f'<line x1="{_WIDTH - 170}" y1="{y - 4}" x2="{_WIDTH - 140}" '
                      f'y2="{y - 4}" stroke="{color}" stroke-width="2"/>')
        legend.append(f'<text x="{_WIDTH - 132}" y="{y}" {axis_font}>{_escape(label)}</text>')
    legend.append("</svg>")
    axes = _scale(x_lo, x_hi, plot_w, _MARGIN_L) + _scale(y_hi, y_lo, plot_h, _MARGIN_T)
    with open(path, "wb") as fh:
        fh.write("".join(line + "\n" for line in out).encode())
        for idx, (label, kept, _) in enumerate(cleaned):
            if not len(kept):
                continue
            color = _PALETTE[idx % len(_PALETTE)]
            fh.write(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="'.encode())
            _kernels.format_plot_points(kept, log_y, axes, fh)
            fh.write(b'"/>\n')
        fh.write("".join(line + "\n" for line in legend).encode())


def _points(label, points):
    """The C-contiguous (N, 2) float64 array of one series: an array must
    have that shape and an integer or floating dtype, a sequence must hold
    (t, v) pairs of real numbers only (``_kernels.read_pairs``)."""
    if isinstance(points, np.ndarray):
        if points.ndim == 2 and points.shape[1] == 2 and points.dtype.kind in "iuf":
            return np.ascontiguousarray(points, dtype=np.float64)
    else:
        try:
            return _kernels.read_pairs(points)
        except (TypeError, ValueError, OverflowError):
            pass
    raise InputError(f"series {label!r}: points must be (t, v) pairs of numbers "
                     "or an (N, 2) array")


def _kept_extent(xy, log_y):
    """The points of a series ``xy`` (N, 2) that a plot keeps, those with t
    and v finite and v > 0 under ``log_y`` (``xy`` itself when it keeps
    every point), and their (t_lo, t_hi, v_lo, v_hi), or None when it keeps
    none: the first minimum and first maximum of t and of v as argmin and
    argmax take them, so the first of a +0/-0 tie.  Under log_y v_lo and
    v_hi are math.log10 of the v extremes, the extremes of the log10 of
    every point because libm's log10 (the function math.log10 and the
    native format pass call) is monotone."""
    t, v = xy[:, 0], xy[:, 1]
    keep = np.isfinite(t) & np.isfinite(v)
    if log_y:
        keep &= v > 0
    if not keep.all():
        xy = np.compress(keep, xy, axis=0)   # several times faster than xy[keep]
        t, v = xy[:, 0], xy[:, 1]
    if not len(xy):
        return xy, None
    v_lo, v_hi = float(v[v.argmin()]), float(v[v.argmax()])
    if log_y:
        v_lo, v_hi = math.log10(v_lo), math.log10(v_hi)
    return xy, (float(t[t.argmin()]), float(t[t.argmax()]), v_lo, v_hi)


def _widen(v):
    """A finite range lo < hi around the constant axis value v: v -+ 0.5
    while that moves v, else one ulp each way, clamped to the float range."""
    if v - 0.5 != v and v + 0.5 != v:
        return v - 0.5, v + 0.5
    pad = math.ulp(v)
    return max(v - pad, -sys.float_info.max), min(v + pad, sys.float_info.max)


def _scale(start, stop, size, margin):
    """The map v -> margin + (v - start) / (stop - start) * size, as the
    (k, start, span, size, margin) of format_plot_points, which computes
    margin + (v * k - start) / span * size.  When stop - start overflows,
    every operand is halved first (k = 0.5), which keeps the ratio."""
    if not math.isfinite(stop - start):
        return 0.5, start / 2, stop / 2 - start / 2, size, margin
    return 1.0, start, stop - start, size, margin


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))

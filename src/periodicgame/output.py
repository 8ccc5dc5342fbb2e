"""CSV and SVG emission.

Both formats are bit-deterministic for identical input: floats are written
with 17 significant digits (lossless for binary64), lines end with LF, and
the SVG contains no timestamps or random ids.  The per-value formatting runs
in ``_kernels`` (native or Python, the same bytes either way).
"""

from __future__ import annotations

import itertools
import math
import sys
from typing import Sequence, Tuple, Union

import numpy as np

from . import _kernels
from .errors import InputError
from .simplex import Trajectory

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf", "#7f7f7f")


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
    """Parse a trajectory CSV back into arrays (exact float round-trip);
    a malformed file raises InputError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [line for line in fh if line.strip()]
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from exc
    if len(lines) < 2:
        raise InputError(f"{path} holds no data rows")
    header = lines[0].rstrip("\n").split(",")
    cols = {name: idx for idx, name in enumerate(header)}
    missing = sorted({"t", "phase", "kl_to_ref", "min_component"} - cols.keys())
    if missing:
        raise InputError(f"{path} has no {missing[0]!r} column")
    try:
        body = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc
    if body.shape[1] != len(header):
        raise InputError(f"{path}: rows have {body.shape[1]} cells, the header "
                         f"names {len(header)}")

    def block(prefix):
        return body[:, [i for name, i in cols.items() if name.startswith(prefix)]]

    return {
        "t": body[:, cols["t"]].astype(np.int64),
        "phase": body[:, cols["phase"]].astype(np.int64),
        "x1": block("x1_"),
        "x2": block("x2_"),
        "kl_to_ref": body[:, cols["kl_to_ref"]],
        "min_component": body[:, cols["min_component"]],
    }


# Each entry pairs a label with its points: any sequence of (t, v) pairs,
# or an (N, 2) array.
Series = Sequence[Tuple[str, Union[Sequence[Tuple[float, float]], np.ndarray]]]

_WIDTH, _HEIGHT = 800, 600
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 72, 16, 16, 48


def emit_svg_plot(series: Series, path: str, log_y: bool = False) -> None:
    """Standalone SVG 1.1 line chart: one polyline per series, linear or
    log10 y-axis, min/max tick labels, and a legend.  The points of a series
    are (t, v) pairs or an (N, 2) array; any other point raises InputError
    naming the series.  Non-finite values (and nonpositive ones under log_y)
    are dropped; the dropped count is noted in an SVG comment."""
    if not series:
        raise InputError("no series to plot")
    cleaned = []
    dropped = 0
    for label, points in series:
        pts = _points(label, points)
        keep = np.isfinite(pts).all(axis=1)
        if log_y:
            keep &= pts[:, 1] > 0
        dropped += pts.shape[0] - int(keep.sum())
        ts, vs = pts[keep, 0], pts[keep, 1]
        if log_y:
            # math.log10, not np.log10, which may differ in the last ulp.
            vs = np.array(list(map(math.log10, vs.tolist())), dtype=np.float64)
        cleaned.append((str(label), ts, vs))
    if all(ts.size == 0 for _, ts, _ in cleaned):
        raise InputError("every data point was dropped; nothing to plot")

    # argmin/argmax take the first extreme in point order; np.min/np.max may
    # return either zero of a +0/-0 tie, which shows in a zero tick label.
    xs = np.concatenate([ts for _, ts, _ in cleaned])
    ys = np.concatenate([vs for _, _, vs in cleaned])
    x_lo, x_hi = float(xs[xs.argmin()]), float(xs[xs.argmax()])
    y_lo, y_hi = float(ys[ys.argmin()]), float(ys[ys.argmax()])
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
    with open(path, "wb") as fh:
        fh.write("".join(line + "\n" for line in out).encode())
        for idx, (label, ts, vs) in enumerate(cleaned):
            if ts.size == 0:
                continue
            color = _PALETTE[idx % len(_PALETTE)]
            sx = _MARGIN_L + _scale(ts, x_lo, x_hi, plot_w)
            sy = _MARGIN_T + _scale(vs, y_hi, y_lo, plot_h)
            fh.write(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="'.encode())
            _kernels.format_points(np.column_stack([sx, sy]), fh)
            fh.write(b'"/>\n')
        fh.write("".join(line + "\n" for line in legend).encode())


def _points(label, points):
    """The (N, 2) float64 array of one series: an array is reshaped, and a
    sequence must hold (t, v) pairs only."""
    if isinstance(points, np.ndarray):
        return np.asarray(points, dtype=np.float64).reshape(-1, 2)
    try:
        pairs = set(map(len, points)) <= {2}
    except TypeError:
        pairs = False
    if not pairs:
        raise InputError(f"series {label!r}: every point must be a (t, v) pair")
    return np.fromiter(itertools.chain.from_iterable(points), np.float64,
                       count=2 * len(points)).reshape(-1, 2)


def _widen(v):
    """A finite range lo < hi around the constant axis value v: v -+ 0.5
    while that moves v, else one ulp each way, clamped to the float range."""
    if v - 0.5 != v and v + 0.5 != v:
        return v - 0.5, v + 0.5
    pad = math.ulp(v)
    return max(v - pad, -sys.float_info.max), min(v + pad, sys.float_info.max)


def _scale(v, start, stop, size):
    """(v - start) / (stop - start) * size.  When stop - start overflows,
    every operand is halved first, which is exact and keeps the ratio."""
    if not math.isfinite(stop - start):
        v, start, stop = v / 2, start / 2, stop / 2
    return (v - start) / (stop - start) * size


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))

"""CSV and SVG emission.

Both formats are bit-deterministic for identical input: floats are written
with 17 significant digits (lossless for binary64), lines end with LF, and
the SVG contains no timestamps or random ids.  An SVG series' drop and
extremes are one numpy step here; the per-value work, the CSV cells, an SVG
series' log10, scaling and formatting, and the parsing of a CSV read back,
runs in ``_kernels`` (native or Python, the same bytes and bits either
way).  Neither holds a whole file: ``read_csv`` holds one block of it
(``_READ_BLOCK`` bytes, more only for a longer line) besides the arrays it
returns, and ``emit_csv`` the cells and text of one block of rows
(``_WRITE_ROWS``) besides the trajectory.  Both emitters open their file
through ``_rewrite``, which cuts an existing file to one byte, not to zero
as ``open(path, "wb")`` does, so that ext4 does not write it back when it
is closed.
"""

from __future__ import annotations

import io
import math
import os
import re
import stat
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
# Bytes a read of read_csv takes, and rows a block of emit_csv writes.
_READ_BLOCK = 1 << 20
_WRITE_ROWS = 1 << 12


def emit_csv(traj: Trajectory, path: str) -> None:
    """Write `t,phase,x1_1..x1_m,x2_1..x2_n,kl_to_ref,min_component`, a
    block of ``_WRITE_ROWS`` rows at a time."""
    lp1, lp2 = traj.log_probs1, traj.log_probs2
    m, n = lp1.shape[1], lp2.shape[1]
    header = (["t", "phase"]
              + [f"x1_{i + 1}" for i in range(m)]
              + [f"x2_{j + 1}" for j in range(n)]
              + ["kl_to_ref", "min_component"])
    times = traj.times
    kl, low = traj.kl_to_ref[:, None], traj.min_component[:, None]
    cells = np.empty((min(_WRITE_ROWS, len(times)), m + n + 2))
    with _rewrite(path) as fh:
        fh.write((",".join(header) + "\n").encode())
        for lo in range(0, len(times), _WRITE_ROWS):
            rows = slice(lo, lo + _WRITE_ROWS)
            t = times[rows]
            # np.exp of whole rows, contiguous as in the full block: the same bits.
            block = np.concatenate((np.exp(lp1[rows]), np.exp(lp2[rows]), kl[rows], low[rows]),
                                   axis=1, out=cells[:len(t)])
            _kernels.format_csv_rows(t, t % traj.period, block, fh)


def _rewrite(path):
    """``open(path, "wb")`` for an output that the caller then writes from
    its first byte, at least one byte: the same file (inode, mode, owner,
    links; a symlink's target) ends up holding the same bytes, and a write
    cut short leaves a prefix of them (or, before its first byte, the old
    first byte), never a tail of the old file.  A regular file longer than
    one byte is cut to one byte, not to zero: ext4 (``auto_da_alloc``, on
    by default) writes back the data of a file truncated to zero inside
    the ``close`` that follows, which made rewriting a 200 KB file take
    about 5x as long.  A FIFO or a device is not truncated, as under
    "wb"."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        info = os.fstat(fd)
        if stat.S_ISREG(info.st_mode) and info.st_size > 1:
            os.ftruncate(fd, 1)
        return open(fd, "wb")
    except BaseException:
        os.close(fd)
        raise


def read_csv(path: str) -> dict:
    """Parse a trajectory CSV back into arrays: ``t`` and ``phase`` as exact
    int64 (a cell there must be an integer), every other column with the
    float64 bits that were written.  A malformed file raises InputError
    naming it, and the file line and column header of a bad cell.

    The file is read a block of whole lines at a time into one buffer
    (``_lines``) of ``_READ_BLOCK`` bytes, or the file's size when that is
    less.  A first pass checks that it is
    UTF-8, finds the header and counts the body's line ends, which bound
    its rows; a second parses each block into the arrays sized from that
    count, from the buffer when one block held the whole file, else reading
    the body again.  A pipe, which cannot be read twice, is held whole."""
    with open(path, "rb", buffering=0) as raw:
        fh = raw if raw.seekable() else io.BytesIO(raw.read())
        # One byte over the file's size, so that one fill reaches its end.
        buf = bytearray(min(_READ_BLOCK, fh.seek(0, io.SEEK_END) + 1) + 1)
        fh.seek(0)
        offset, line, header, ends = 0, 1, None, 0
        for cut, eof in _lines(fh, buf):
            if not buf.isascii():
                try:
                    str(memoryview(buf)[:cut], "utf-8")
                except UnicodeDecodeError as exc:
                    raise InputError(f"{path} is not UTF-8 text: "
                                     f"{_decode_error(exc, offset)}") from exc
            start = 0
            while header is None:
                # The header is the first line that is not blank.
                eol = _EOL.search(buf, start, cut)
                if eol is None and not eof:
                    break   # blank lines up to the cut
                text = buf[start:eol.start() if eol else cut].decode()
                start, line = eol.end() if eol else cut, line + 1
                if text.strip(_kernels._BLANKS) or eol is None:
                    header, body = text.split(","), offset + start
            if header is not None:
                ends += sum(_kernels.count_line_ends(memoryview(buf)[start:cut]))
            offset += cut
        cols = {name: idx for idx, name in enumerate(header)}
        if len(cols) < len(header):
            twice = next(name for idx, name in enumerate(header) if cols[name] != idx)
            raise InputError(f"{path} has more than one {twice!r} column")
        missing = sorted({"t", "phase", "kl_to_ref", "min_component"} - cols.keys())
        if missing:
            raise InputError(f"{path} has no {missing[0]!r} column")
        t_col, phase_col = cols["t"], cols["phase"]
        t = np.empty(ends + 1, dtype=np.int64)
        phase = np.empty(ends + 1, dtype=np.int64)
        cells = np.empty((ends + 1, len(header) - 2))
        if offset == cut:   # one fill held the whole file: parse it where it is
            blocks = [(body, cut, True)]
        else:
            fh.seek(body)
            blocks = ((0, cut, eof) for cut, eof in _lines(fh, buf))
        rows = 0
        for start, cut, eof in blocks:
            # Views of buf live only for a call: one alive would stop buf growing.
            try:
                got = _kernels.parse_csv_rows(memoryview(buf)[:cut], start, line, header, t_col,
                                              phase_col, (t[rows:], phase[rows:], cells[rows:]))
            except ValueError as exc:
                raise InputError(f"{path}: {exc}") from exc
            rows += len(got[0])
            if not eof:
                lf, cr = got[3]   # the line ends of buf[:cut], which the parser counted
                line += lf + cr - (buf.count(b"\r\n", 0, cut) if cr else 0)
    if not rows:
        raise InputError(f"{path} holds no data rows")
    t, phase, cells = t[:rows], phase[:rows], cells[:rows]

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


def _lines(fh, buf):
    """Read the binary file ``fh`` from where it stands into the bytearray
    ``buf`` (its last byte spare), and yield (cut, eof) for each fill:
    ``buf[:cut]`` holds whole lines, all that is left at the end of the
    file (eof), and ``buf[cut]`` a NUL, where the native parser's strtod
    stops.  The bytes after the cut move to the front for the next fill,
    and a line longer than the buffer doubles it."""
    size = 0
    while True:
        got = fh.readinto(memoryview(buf)[size:-1])
        size += got
        if got and size < len(buf) - 1:
            continue
        # A \r last in the buffer may be the first half of a \r\n.
        cut = max(buf.rfind(b"\n", 0, size), buf.rfind(b"\r", 0, size - 1)) + 1 if got else size
        if not cut and got:
            buf.extend(bytes(len(buf) - 1))
            continue
        kept, buf[cut] = buf[cut], 0
        yield cut, not got
        if not got:
            return
        buf[cut] = kept
        buf[:size - cut] = buf[cut:size]
        size -= cut


def _decode_error(exc, offset):
    """str(exc), the UnicodeDecodeError of bytes that start at file offset
    ``offset``, with the file positions that decoding the whole file names."""
    start = offset + exc.start
    if exc.end - exc.start == 1:
        return (f"'{exc.encoding}' codec can't decode byte 0x{exc.object[exc.start]:02x} "
                f"in position {start}: {exc.reason}")
    return (f"'{exc.encoding}' codec can't decode bytes in position "
            f"{start}-{offset + exc.end - 1}: {exc.reason}")


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
    with _rewrite(path) as fh:
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

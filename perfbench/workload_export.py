"""export-roundtrip: the artifact traffic, in process, closed loop.

Set-up generates every trajectory, so the kernel appears only in setup_s.
Each op exports one trajectory: emit_csv, read_csv on the file just written,
then emit_svg_plot twice (strategies, and KL on a log-y axis).  The set
varies record count (56 short runs plus two of 100k records), width (2x2
to 6x6), runs without a reference (NaN KL columns) and one OMWU run past the
boundary (0 and inf cells).  `output` does all the timed work here.

Every pass exports the same set; each later export of a trajectory must
write the same bytes as its first.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import xml.etree.ElementTree as ET

import numpy as np

import periodicgame as pg

from common import Fingerprint, Op, common_game, paired, random_joint

NAME = "export-roundtrip"
MIN_UNITS = 2

EQ22 = pg.JointState.from_probabilities([0.5, 0.5], [0.5, 0.5])
GAME2X2 = pg.experiment_by_name("game2x2").game
SHAPES = ((2, 2), (3, 3), (4, 4), (5, 5), (6, 6), (2, 4), (5, 3))
SHORT_RECORDS = (200, 400, 800, 1600)
N_SHORT = 56
BIG_RECORDS = 100_000

EXPECTED = {"output.emit_csv", "output.read_csv", "output.emit_svg_plot"}


def _trajectories(seed):
    rng = np.random.default_rng(seed)
    trajs = []
    for i in range(N_SHORT):
        m, n = SHAPES[i % len(SHAPES)]
        game, eq = common_game(rng, m, n, 1 + i % 3)
        algo = ("extra", "mwu", "omwu")[i % 3]
        reference = None if i % 4 == 3 else eq
        eta = 0.5 * pg.max_step_size(game) if algo != "omwu" else 0.01
        steps = SHORT_RECORDS[i % len(SHORT_RECORDS)] - 1
        trajs.append(pg.run_trajectory(game, algo, random_joint(rng, m, n), eta, steps,
                                       record_every=1, reference=reference))
    # Fixed start: from here OMWU passes log-probability -745 (exact 0 and
    # inf KL) after about 5k steps.
    boundary_init = pg.JointState.from_probabilities([0.45, 0.55], [0.45, 0.55])
    trajs.append(pg.run_trajectory(GAME2X2, "omwu", boundary_init, 0.5, 8_000,
                                   record_every=1, reference=EQ22))
    # The long runs share one kernel run (the cheapest, 2x2 MWU) to keep
    # set-up short: the same states with and without a reference.
    big = pg.run_trajectory(GAME2X2, "mwu", random_joint(rng, 2, 2), 0.01, BIG_RECORDS - 1,
                            record_every=1, reference=EQ22)
    trajs += [big, dataclasses.replace(big, reference=None,
                                       kl_to_ref=np.full(big.n_records, np.nan))]
    return trajs


def setup(seed, workdir, src, speed):
    trajs = _trajectories(seed)
    boundary = trajs[N_SHORT]
    if not ((boundary.min_component == 0.0).any() and np.isinf(boundary.kl_to_ref).any()):
        raise RuntimeError("the boundary run has no 0 / inf cells")
    fp = Fingerprint()
    for t in trajs:
        fp.arrays(t.times, t.log_probs1, t.log_probs2, t.kl_to_ref, t.min_component)
    os.makedirs(workdir, exist_ok=True)
    return {"trajs": trajs, "workdir": workdir, "first_digest": {},
            # The last trajectory reuses the one before it: no kernel steps.
            "kernel_steps": sum(int(t.times[-1]) for t in trajs[:-1]),
            "fingerprint": fp}


def _series_strategies(data):
    ts = data["t"].tolist()
    return [(f"{name}_{i + 1}", list(zip(ts, data[name][:, i].tolist())))
            for name in ("x1", "x2") for i in range(data[name].shape[1])]


def _series_log(data):
    ts = data["t"].tolist()
    if np.isnan(data["kl_to_ref"]).all():   # no reference: plot min_component
        return [("min_component", list(zip(ts, data["min_component"].tolist())))]
    return [("kl_to_ref", list(zip(ts, data["kl_to_ref"].tolist())))]


def _bits_equal(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _roundtrip_ok(traj, data):
    return (_bits_equal(data["t"], traj.times)
            and _bits_equal(data["phase"], traj.phases)
            and _bits_equal(data["x1"], traj.probabilities1)
            and _bits_equal(data["x2"], traj.probabilities2)
            and _bits_equal(data["kl_to_ref"], traj.kl_to_ref)
            and _bits_equal(data["min_component"], traj.min_component))


def _svg_ok(blob, series, log_y):
    root = ET.fromstring(blob)
    lines = root.findall("{http://www.w3.org/2000/svg}polyline")
    nonempty = sum(1 for _, pts in series
                   if any(math.isfinite(t) and math.isfinite(v) and (not log_y or v > 0)
                          for t, v in pts))
    return len(lines) == nonempty


def _export(traj, base):
    """The timed op; returns what the checks need."""
    csv_path, svg_a, svg_b = base + ".csv", base + "-x.svg", base + "-kl.svg"
    pg.emit_csv(traj, csv_path)
    data = pg.read_csv(csv_path)
    strategies = _series_strategies(data)
    pg.emit_svg_plot(strategies, svg_a)
    logged = _series_log(data)
    pg.emit_svg_plot(logged, svg_b, log_y=True)
    return csv_path, svg_a, svg_b, data, strategies, logged


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _check(state, i, traj, outputs):
    csv_path, svg_a, svg_b, data, strategies, logged = outputs
    blobs = [_read(p) for p in (csv_path, svg_a, svg_b)]
    digest = tuple(hashlib.sha256(b).hexdigest() for b in blobs)
    notes = []
    if not _roundtrip_ok(traj, data):
        notes.append("csv round-trip changed bits")
    if not (_svg_ok(blobs[1], strategies, False) and _svg_ok(blobs[2], logged, True)):
        notes.append("svg malformed or polyline count wrong")
    first = state["first_digest"].setdefault(i, digest)
    if first is digest:
        state["fingerprint"].data(blobs[0])
    elif first != digest:
        notes.append("output bytes differ from the first export")
    return "; ".join(notes)


def unit(state, k, tracer=None):
    """Pass k over every trajectory."""
    ops = []
    for i, traj in enumerate(state["trajs"]):
        base = os.path.join(state["workdir"], f"t{i:03d}")
        runs = paired(tracer, "bench.export", lambda: _export(traj, base),
                      lambda outputs: _check(state, i, traj, outputs), state["speed"])
        for traced, seconds, note in runs:
            ops.append(Op("export", seconds, not note, 0, traj.n_records, note, traced))
    return ops

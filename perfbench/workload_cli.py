"""cli-reproduce: the user's shell path, one command after another.

Each command runs as `python -m periodicgame.cli` against the source tree in
a fresh process, so interpreter and import start-up count.  The kernel and
the emitters work in the same process here: a change that helps one and
costs the other shows here.  The traced run replays the same commands
through an in-process `cli.main(argv)`.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import statistics
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np

from common import Fingerprint, Op, clock, paired

NAME = "cli-reproduce"
MIN_UNITS = 2
# One set-up is a single 0.3-s CLI start, which spreads more than longer work.
SETUP_REPEATS = 9

EXPECTED = {
    "cli.main", "experiments.run_experiment", "kernels.run_schedule",
    "dynamics.run_trajectory", "dynamics.max_step_size", "dynamics.omwu_reduced_composite",
    "simplex.kl_to_reference", "equilibrium.common_equilibrium",
    "equilibrium.solve_zero_sum", "equilibrium.verify_equilibrium",
    "output.emit_csv", "output.read_csv", "output.emit_svg_plot",
    "linalg.jacobian_fd", "linalg.eigenvalues_small", "linalg.char_poly_eval",
    "checks.check_extra_kl_decrease", "checks.detect_periodic_orbit",
}

EXP1_STEPS = 100_000
COMMAND_NAMES = ("experiment_all", "experiment_exp1_export", "plot_kl", "analyze_eigen",
                 "analyze_fixed_curve", "verify_orbit_extra", "verify_orbit_omwu",
                 "verify_kl_monotone")
SVG_NS = "{http://www.w3.org/2000/svg}"


def commands(state):
    """(metric name, argv, kernel steps, records through output, check), in
    the order of COMMAND_NAMES."""
    d, eta_eig, eta_curve, exp_seed = (state["workdir"], state["eta_eig"],
                                       state["eta_curve"], state["exp_seed"])
    csv, svg, kl_svg = (os.path.join(d, name) for name in ("exp1.csv", "exp1.svg", "kl.svg"))
    return [
        ("experiment_all", ["experiment", "--all"], 4 * 20_000, 0, _check_all),
        ("experiment_exp1_export",
         ["experiment", "exp1", "--steps", str(EXP1_STEPS), "--seed", str(exp_seed),
          "--out-csv", csv, "--out-svg", svg],
         EXP1_STEPS, EXP1_STEPS + 1, lambda out: _check_export(csv, svg)),
        ("plot_kl", ["plot", "--in-csv", csv, "--out-svg", kl_svg, "--series", "kl",
                     "--log-y"], 0, EXP1_STEPS + 1, lambda out: _check_svg(kl_svg, 1)),
        ("analyze_eigen", ["analyze", "eigen", "--eta", repr(eta_eig)], 0, 0, _check_eigen),
        ("analyze_fixed_curve", ["analyze", "fixed-curve", "--eta", repr(eta_curve)], 0, 0,
         _check_curve),
        ("verify_orbit_extra", ["verify", "orbit"], 30_000, 0,
         lambda out: "orbit verdict: converged_orbit (expected converged_orbit)" in out),
        ("verify_orbit_omwu", ["verify", "orbit", "--algo", "omwu", "--eta", "0.05",
                               "--steps", "100000", "--expect", "diverging_boundary"],
         100_000, 0,
         lambda out: "orbit verdict: diverging_boundary (expected diverging_boundary)" in out),
        ("verify_kl_monotone", ["verify", "kl-monotone"], 10_000, 0,
         lambda out: "extra-kl-decrease: passed" in out),
    ]


def _check_all(out):
    return all(f"== {name}" in out for name in ("game2x2", "exp1", "exp2", "nocommon3"))


def _check_export(csv, svg):
    with open(csv, "rb") as fh:
        rows = fh.read().count(b"\n")
    return rows == EXP1_STEPS + 2 and _check_svg(svg, 6)


def _check_svg(path, polylines):
    root = ET.parse(path).getroot()
    return len(root.findall(f"{SVG_NS}polyline")) == polylines


def _check_eigen(out):
    residuals = [float(x) for x in re.findall(r"char-poly residual (\S+)", out)]
    return len(residuals) == 2 and max(residuals) <= 1e-7


def _check_curve(out):
    found = re.search(r"max residual: (\S+)", out)
    return found is not None and float(found.group(1)) <= 1e-12


def setup(seed, workdir, src, speed):
    """Make the work directory and start the CLI once (it reports the
    backend); the median of SETUP_REPEATS start-ups is the workload's
    set-up."""
    rng = np.random.default_rng(seed)
    os.makedirs(workdir, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=src)
    code, out, err, _ = speed.popen([sys.executable, "-m", "periodicgame.cli",
                                     "--backend-info"], 120, env=env, cwd=workdir)
    if code != 0 or "kernel backend:" not in out:
        raise RuntimeError(f"the CLI does not start: {err.strip()}")
    return {"workdir": workdir, "env": env,
            # Step sizes of acceptance criteria 04 and 05.
            "eta_eig": float(rng.choice((0.01, 0.05, 0.1))),
            "eta_curve": float(rng.choice((0.05, 0.1))),
            "exp_seed": int(rng.integers(0, 2**31)),
            "fingerprint": None}


def _fingerprint_outputs(state):
    fp = Fingerprint()
    for name in ("exp1.csv", "exp1.svg", "kl.svg"):
        with open(os.path.join(state["workdir"], name), "rb") as fh:
            fp.data(fh.read())
    return fp


def unit(state, k):
    """Cycle k: every command in a fresh process.  The cycle is one op: the
    sequence a user runs to reproduce the results (8 commands of 0.3-9 s,
    too few and too unlike for per-command percentiles)."""
    cycle = commands(state)
    seconds, failures = 0.0, []
    for name, argv, _, _, check in cycle:
        code, out, err, took = state["speed"].popen(
            [sys.executable, "-m", "periodicgame.cli", *argv], 170,
            env=state["env"], cwd=state["workdir"])
        seconds += took
        if not (code == 0 and check(out)):
            failures.append(f"{name} exit {code}: {err.strip()[-200:]}")
    if state["fingerprint"] is None:
        state["fingerprint"] = _fingerprint_outputs(state)
    return [Op("cycle", seconds, not failures, sum(c[2] for c in cycle),
               sum(c[3] for c in cycle), "; ".join(failures))]


def in_process_cycle(state, tracer):
    """The same commands through cli.main(argv) in this process, output
    captured, each run untraced and then traced."""
    from periodicgame import cli

    def run(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, buf.getvalue()

    ops = []
    for name, argv, steps, records, check in commands(state):
        runs = paired(tracer, f"bench.{name}", lambda: run(argv),
                      lambda result: result[0] == 0 and check(result[1]))
        for traced, seconds, ok in runs:
            ops.append(Op(name, seconds, ok, steps, records, "" if ok else "failed", traced))
    if state["fingerprint"] is None:
        state["fingerprint"] = _fingerprint_outputs(state)
    return ops


def startup_seconds(src, cwd, repeats=3):
    """Median wall of a fresh-process `import periodicgame`."""
    times = []
    for _ in range(repeats):
        t0 = clock()
        subprocess.run([sys.executable, "-c", "import periodicgame"],
                       env=dict(os.environ, PYTHONPATH=src), cwd=cwd, check=True,
                       timeout=120)
        times.append(clock() - t0)
    return statistics.median(times)

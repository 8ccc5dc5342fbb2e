#!/usr/bin/env python3
"""Layered benchmark for periodicgame.

Run from the repository root:

    python3 perfbench/run.py --workload claims-sweep --seed 1 --seconds 25 --trace 0

Workloads: claims-sweep, export-roundtrip, cli-reproduce (see README.md).
With --trace 0 it prints the end-to-end metrics of an untraced run; with
--trace 1 the per-layer metrics of a traced run, whose spans are written to
.perfbench_out/.  Either way the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 3     # unless the workload sets its own


def _load_package():
    """Import periodicgame from ./src and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "periodicgame", "__init__.py")):
        sys.exit("perfbench: no ./src/periodicgame here; run from the repository root")
    sys.path.insert(0, SRC)
    import periodicgame

    if os.path.dirname(os.path.dirname(os.path.abspath(periodicgame.__file__))) != SRC:
        sys.exit(f"perfbench: periodicgame imported from {periodicgame.__file__}, not ./src")
    return periodicgame


def _workloads():
    import workload_claims
    import workload_cli
    import workload_export

    return {w.NAME: w for w in (workload_claims, workload_export, workload_cli)}


def _run_units(wl, state, seconds):
    """Whole units until `seconds` have passed."""
    from common import clock

    units = []
    start = clock()
    while len(units) < wl.MIN_UNITS or clock() - start < seconds:
        units.append(wl.unit(state, len(units)))
    return units


def _setup(wl, seed, workdir, speed):
    """Set up SETUP_REPEATS times; keep the last state, report the median
    of the normalised times."""
    times = []
    for _ in range(getattr(wl, "SETUP_REPEATS", SETUP_REPEATS)):
        shutil.rmtree(workdir, ignore_errors=True)
        state, seconds = speed.run(lambda: wl.setup(seed, workdir, SRC, speed))
        times.append(seconds)
    state["speed"] = speed
    return state, times


def _ops(units):
    return [op for unit in units for op in unit]


def _timed(units):
    return sum(op.seconds for op in _ops(units))


def end_to_end(wl, state, setup_times, units):
    """Every time is normalised to the reference CPU speed (common.Speed).
    Rates and unit walls are medians over units, which are identical
    blocks of work; latencies pool every op."""
    from common import beyond, median, quantile

    ops = _ops(units)
    lat = [op.seconds for op in ops]
    p90 = quantile(lat, 9)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if wl.NAME == "cli-reproduce"
                               else resource.RUSAGE_SELF)
    setup_s = median(setup_times)

    def per_unit(amount):
        return median([sum(amount(op) for op in unit) / sum(op.seconds for op in unit)
                       for unit in units])

    if wl.NAME == "export-roundtrip":
        # The kernel runs only in set-up here.
        steps_per_s = state["kernel_steps"] / setup_s
        steps_note = "kernel steps per set-up second"
    else:
        steps_per_s = per_unit(lambda op: op.steps)
        steps_note = f"kernel steps per timed second, median of {len(units)} units"
    n_ops, n_units = len(ops), len(units)
    return {
        "setup_s": (setup_s, "s", f"median of {len(setup_times)} set-ups"),
        "wall_s": (median([sum(op.seconds for op in unit) for unit in units]), "s",
                   f"median of {n_units} units"),
        "ops_per_s": (per_unit(lambda op: 1), "1/s", f"{n_ops} ops, median of {n_units} units"),
        "ok_ratio": (sum(op.ok for op in ops) / n_ops, "ratio", f"{n_ops} ops"),
        "op_p50_ms": (1e3 * median(lat), "ms", f"{n_ops} ops"),
        "op_p90_ms": (1e3 * p90, "ms", f"{n_ops} ops, {beyond(lat, p90)} beyond p90"),
        "steps_per_s": (steps_per_s, "1/s", steps_note),
        "records_per_s": (per_unit(lambda op: op.records), "1/s",
                          f"{n_ops} ops, median of {n_units} units"),
        "peak_rss_mb": (usage.ru_maxrss / 1024.0, "MB",
                        "children max RSS" if wl.NAME == "cli-reproduce"
                        else "this process"),
    }


CHECKERS = ("check_extra_kl_decrease", "check_omwu_ratio_identities",
            "check_omwu_increments", "check_bregman_identities", "detect_periodic_orbit")
LAYERS = ("bench", "kernels", "dynamics", "simplex", "checks", "equilibrium", "linalg",
          "output", "experiments", "cli")


def _trace_runs(wl, state, seconds, tracer):
    """Untraced and traced runs of the same units.

    Returns (untraced units, traced units, extra per-layer metrics)."""
    import kernel_rows
    import workload_cli
    from common import clock

    startup = workload_cli.startup_seconds(SRC, ROOT)
    extra = {f"cli.{name}_s": (0.0, "s") for name in workload_cli.COMMAND_NAMES}
    extra["cli.startup_s"] = (startup, "s")
    # Each op runs untraced and then traced (see common.paired).
    if wl.NAME == "cli-reproduce":
        units = [workload_cli.in_process_cycle(state, tracer)]
    else:
        units = []
        start = clock()
        while len(units) < wl.MIN_UNITS or clock() - start < seconds:
            units.append(wl.unit(state, len(units), tracer))
    plain = [[op for op in unit if not op.traced] for unit in units]
    traced = [[op for op in unit if op.traced] for unit in units]
    if wl.NAME == "cli-reproduce":
        # Traced in-process time plus a fresh process's start-up: an upper
        # bound on the command's own cost, so the criterion-09 margins
        # (verify_orbit_*) are conservative.
        for op in traced[0]:
            extra[f"cli.{op.kind}_s"] = (op.seconds + startup, "s")
    tracer.check_called(wl.EXPECTED)
    extra.update({k: (v, "1/s") for k, v in kernel_rows.rows().items()})
    if hasattr(wl, "layer_extras"):
        extra.update(wl.layer_extras(state))
    return plain, traced, extra


def per_layer(tracer, plain, traced, extra):
    s = tracer.summary()

    def get(name, key):
        return s.get(name, {}).get(key, 0)

    traced_wall = _timed(traced)
    ops = _ops(traced)
    traj_busy = get("dynamics.run_trajectory", "busy_s")
    post = traj_busy - tracer.child_time("dynamics.run_trajectory", "kernels.run_schedule")
    solves = get("equilibrium.solve_zero_sum", "calls")
    candidates = tracer.child_count("equilibrium.solve_zero_sum",
                                    "equilibrium.verify_equilibrium")
    csv_busy = get("output.emit_csv", "busy_s")
    read_busy = get("output.read_csv", "busy_s")
    c = tracer.counts
    m = {
        "kernels.calls": (get("kernels.run_schedule", "calls")
                          + get("kernels.run_reduced_composite", "calls"), "count"),
        "kernels.steps": (c["kernels.steps"], "count"),
        "kernels.busy_s": (get("kernels.run_schedule", "busy_s")
                           + get("kernels.run_reduced_composite", "busy_s"), "s"),
        "dynamics.run_trajectory.busy_s": (traj_busy, "s"),
        "dynamics.postprocess_s": (post, "s"),
        "dynamics.postprocess_share": (post / traj_busy if traj_busy else 0.0, "ratio"),
        "dynamics.records": (c["dynamics.records"], "count"),
        "simplex.kl_to_reference.busy_s": (get("simplex.kl_to_reference", "busy_s"), "s"),
        "dynamics.max_step_size.busy_s": (get("dynamics.max_step_size", "busy_s"), "s"),
        "checks.verdict_ok_ratio": (sum(op.ok for op in ops) / len(ops), "ratio"),
        "checks.gate_c01_slowest_s": (0.0, "s"),
        "equilibrium.solve_zero_sum.calls": (solves, "count"),
        "equilibrium.solve_zero_sum.busy_s": (get("equilibrium.solve_zero_sum", "busy_s"), "s"),
        "equilibrium.verify_equilibrium.calls": (candidates, "count"),
        "equilibrium.solutions_per_verification": (solves / candidates if candidates else 0.0,
                                                   "ratio"),
        "equilibrium.common_equilibrium.busy_s": (
            get("equilibrium.common_equilibrium", "busy_s"), "s"),
        "linalg.eig_abs_err_max": (0.0, "abs"),
        "output.emit_csv.busy_s": (csv_busy, "s"),
        "output.emit_csv.bytes": (c["output.emit_csv.bytes"], "bytes"),
        "output.emit_csv.rows_per_s": (c["output.emit_csv.rows"] / csv_busy
                                       if csv_busy else 0.0, "1/s"),
        "output.read_csv.busy_s": (read_busy, "s"),
        "output.read_csv.rows_per_s": (c["output.read_csv.rows"] / read_busy
                                       if read_busy else 0.0, "1/s"),
        "output.emit_svg_plot.busy_s": (get("output.emit_svg_plot", "busy_s"), "s"),
        "output.emit_svg_plot.bytes": (c["output.emit_svg_plot.bytes"], "bytes"),
        "output.emit_svg_plot.points_in": (c["output.emit_svg_plot.points_in"], "count"),
        "experiments.run_experiment.self_s": (get("experiments.run_experiment", "self_s"), "s"),
        "trace.overhead_ratio": (traced_wall / _timed(plain), "ratio"),
    }
    for checker in CHECKERS:
        m[f"checks.{checker}.calls"] = (get(f"checks.{checker}", "calls"), "count")
        m[f"checks.{checker}.busy_s"] = (get(f"checks.{checker}", "busy_s"), "s")
    for func in ("jacobian_fd", "eigenvalues_small", "char_poly_eval"):
        m[f"linalg.{func}.calls"] = (get(f"linalg.{func}", "calls"), "count")
        m[f"linalg.{func}.busy_s"] = (get(f"linalg.{func}", "busy_s"), "s")
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, row in s.items():
        layer_self[name.split(".", 1)[0]] += row["self_s"]
    for layer, value in layer_self.items():
        m[f"trace.self_s.{layer}"] = (value, "s")
    m["trace.self_sum_share"] = (sum(layer_self.values()) / traced_wall, "ratio")
    m.update(extra)
    return m


def _print_table(metrics, notes):
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"{name:<{width}}  {value:>16.6g} {unit:<6} {note}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _load_package()
    from common import Speed, run_environment
    from trace_layers import TraceError, Tracer

    workloads = _workloads()
    if args.workload not in workloads:
        sys.exit(f"perfbench: unknown workload {args.workload!r} "
                 f"(known: {', '.join(workloads)})")
    wl = workloads[args.workload]
    workdir = os.path.join(OUT, f"{wl.NAME}-{os.getpid()}")
    info = run_environment(ROOT, SRC, args.seed)   # before pinning: nproc
    Speed.pin()
    speed = Speed()
    if not args.trace:
        speed.start()
    try:
        state, setup_times = _setup(wl, args.seed, workdir, speed)
        if args.trace:
            tracer = Tracer()
            try:
                plain, traced, extra = _trace_runs(wl, state, args.seconds, tracer)
            except TraceError as exc:
                sys.exit(f"perfbench: broken trace: {exc}")
            units = plain + traced
            metrics = per_layer(tracer, plain, traced, extra)
            notes = {}
            spans_path = os.path.join(OUT, f"spans-{wl.NAME}-seed{args.seed}.jsonl")
            tracer.write(spans_path)
        else:
            units = _run_units(wl, state, args.seconds)
            e2e = end_to_end(wl, state, setup_times, units)
            metrics = {k: v[:2] for k, v in e2e.items()}
            notes = {k: v[2] for k, v in e2e.items()}
    finally:
        speed.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    ops = _ops(units)
    failed = [op for op in ops if not op.ok]
    info.update(workload=wl.NAME, trace=args.trace, units=len(units),
                fingerprint=state["fingerprint"].hexdigest(),
                fail_ratio=len(failed) / len(ops),
                failures=[f"{op.kind}: {op.note}" for op in failed[:5]],
                raw_over_normalised=speed.raw / speed.normalised)
    _print_table(metrics, notes)
    print("run-info " + json.dumps(info, sort_keys=True))
    result = {"correct": not failed, "attempted": len(ops), "failed": len(failed),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

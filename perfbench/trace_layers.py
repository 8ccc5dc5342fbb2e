"""Span tracing around the public entry points of each periodicgame module.

The benchmark installs wrappers at run time, in every periodicgame module
namespace that holds a reference to a target (modules import each other's
functions by name), and removes them afterwards; nothing under src/ changes.
Each call records (name, start, end, parent span, op id) in memory.  A span's
self time is its duration minus the time its child spans cover.

A target that no longer exists, or that a workload declares but never calls,
is an error: a renamed entry point must show up as a broken trace, not as a
layer that became free.
"""

from __future__ import annotations

import collections
import contextlib
import importlib
import json
import os
import sys

from common import clock

# module -> public entry points wrapped in that module.
TARGETS = {
    "_kernels": ("run_schedule", "run_reduced_composite"),
    "dynamics": ("run_trajectory", "max_step_size", "iterate_reduced",
                 "omwu_reduced_composite"),
    "simplex": ("kl_to_reference",),
    "checks": ("check_extra_kl_decrease", "check_omwu_ratio_identities",
               "check_omwu_increments", "check_bregman_identities",
               "detect_periodic_orbit"),
    "equilibrium": ("solve_zero_sum", "verify_equilibrium", "common_equilibrium"),
    "linalg": ("jacobian_fd", "eigenvalues_small", "char_poly_eval"),
    "output": ("emit_csv", "read_csv", "emit_svg_plot"),
    "experiments": ("run_experiment",),
    "cli": ("main",),
}


def span_name(module, func):
    return f"{module.lstrip('_')}.{func}"


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# Counts taken at the boundary, after the span has closed: name -> fn that
# maps (args, kwargs, result) to {counter: amount}.
def _count_kernel(args, kwargs, result):
    return {"kernels.steps": int(_arg(args, kwargs, 3, "steps"))}


def _count_trajectory(args, kwargs, result):
    return {"dynamics.records": result.n_records}


def _count_csv(args, kwargs, result):
    traj = _arg(args, kwargs, 0, "traj")
    return {"output.emit_csv.rows": traj.n_records,
            "output.emit_csv.bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


def _count_read(args, kwargs, result):
    return {"output.read_csv.rows": len(result["t"])}


def _count_svg(args, kwargs, result):
    series = _arg(args, kwargs, 0, "series")
    return {"output.emit_svg_plot.points_in": sum(len(pts) for _, pts in series),
            "output.emit_svg_plot.bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


COUNTERS = {
    "kernels.run_schedule": _count_kernel,
    "dynamics.run_trajectory": _count_trajectory,
    "output.emit_csv": _count_csv,
    "output.read_csv": _count_read,
    "output.emit_svg_plot": _count_svg,
}


class TraceError(RuntimeError):
    pass


class Tracer:
    def __init__(self):
        self.spans = []          # (name, start, end, parent, op)
        self.counts = collections.Counter()
        self._stack = []
        self.op = -1
        self.traced_first = False   # flipped by common.paired on each call

    def _open(self):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent

    @contextlib.contextmanager
    def span(self, name):
        """A span around benchmark code, e.g. one op; starts a new op id."""
        self.op += 1
        sid, parent = self._open()
        start = clock()
        try:
            yield
        finally:
            end = clock()
            self._stack.pop()
            self.spans[sid] = (name, start, end, parent, self.op)

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            sid, parent = self._open()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self.spans[sid] = (name, start, end, parent, self.op)
            if counter is not None:
                self.counts.update(counter(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        targets = {}
        for mod_name in TARGETS:
            try:
                targets[mod_name] = importlib.import_module(f"periodicgame.{mod_name}")
            except ImportError as exc:
                raise TraceError(f"trace target module periodicgame.{mod_name}: {exc}") from exc
        modules = [m for n, m in sys.modules.items()
                   if (n == "periodicgame" or n.startswith("periodicgame.")) and m]
        patches = []
        for mod_name, funcs in TARGETS.items():
            module = targets[mod_name]
            for func in funcs:
                original = getattr(module, func, None)
                if original is None:
                    raise TraceError(f"trace target periodicgame.{mod_name}.{func} is missing")
                wrapper = self._wrap(span_name(mod_name, func), original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        try:
            yield self
        finally:
            for mod, attr, original in reversed(patches):
                setattr(mod, attr, original)

    def check_called(self, expected):
        """Raise unless every expected span name was recorded at least once."""
        missing = sorted(set(expected) - {s[0] for s in self.spans})
        if missing:
            raise TraceError("expected trace targets never called: " + ", ".join(missing))

    def summary(self):
        """Per span name: calls, busy seconds (sum of durations) and self
        seconds (durations minus child spans)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = collections.defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += end - start - child[sid]
        return dict(out)

    def child_time(self, parent_name, child_name):
        """Seconds spent in child_name spans directly under parent_name spans."""
        total = 0.0
        for name, start, end, parent, _ in self.spans:
            if name == child_name and parent >= 0 and self.spans[parent][0] == parent_name:
                total += end - start
        return total

    def child_count(self, parent_name, child_name):
        """Calls of child_name made directly from parent_name spans."""
        return sum(1 for name, _, _, parent, _ in self.spans
                   if name == child_name and parent >= 0
                   and self.spans[parent][0] == parent_name)

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")

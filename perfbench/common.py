"""Helpers shared by the workloads: op records, statistics, fingerprints and
the description of where a run happened."""

from __future__ import annotations

import bisect
import gc
import hashlib
import importlib.util
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

import periodicgame as pg

clock = time.perf_counter


@dataclass
class Op:
    """One timed operation: its kind, latency, verdict and the work it did."""

    kind: str
    seconds: float
    ok: bool
    steps: int = 0      # kernel steps the op ran
    records: int = 0    # trajectory records the op produced or exported
    note: str = ""      # why a failed op failed
    traced: bool = False


# The probe's CPU time on the reference CPU.  Normalised times are seconds on
# a CPU that runs the probe in exactly this long.
PROBE_NOMINAL_S = 1e-3
PROBE_ITERS = 2_000
PROBE_EVERY_S = 0.1
_PROBE_VEC = np.linspace(0.0, 1.0, 32)


def _probe_work():
    """Fixed interpreter-bound work: float math, small numpy calls, repr."""
    acc, parts = 0.0, []
    for i in range(PROBE_ITERS):
        x = (i % 97) * 0.01
        acc += math.exp(-x) * x + math.log1p(x)
        if i % 25 == 0:
            acc += float(np.dot(_PROBE_VEC, _PROBE_VEC))
            parts.append(repr(acc))
    return len("".join(parts))


class Speed:
    """Times work in seconds normalised to a reference CPU speed.

    A shared host slows each vCPU by up to a factor of two, for seconds at a
    time and independently of the other vCPUs; the same work then spreads
    by up to 30% between 15-s runs.  So the benchmark pins itself (and the
    children it starts) to one CPU and runs a fixed probe every
    PROBE_EVERY_S (from a timer signal, so also inside long calls and while
    a child runs) and around every timed piece of work.  Each stretch of
    work between two probes is scaled by PROBE_NOMINAL_S over their mean CPU
    time, and the probes themselves are not counted as work.  The probe is
    benchmark code only, so a change to periodicgame moves the work and not
    the probe."""

    def __init__(self):
        self.starts, self.ends, self.cpu = [], [], []
        self.raw = 0.0          # timed raw seconds, for the run-info line
        self.normalised = 0.0   # the same stretches, normalised
        self._busy = False

    @staticmethod
    def pin():
        """Pin this process and its future children to one CPU."""
        if hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    def start(self):
        """Probe every PROBE_EVERY_S until stop()."""
        signal.signal(signal.SIGALRM, lambda signum, frame: self.probe())
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def probe(self):
        # A timer probe that lands inside another probe is skipped, so the
        # samples stay in time order.
        if self._busy:
            return
        self._busy = True
        start = clock()
        c0 = time.thread_time()
        _probe_work()
        self.cpu.append(time.thread_time() - c0)
        self.starts.append(start)
        self.ends.append(clock())
        self._busy = False

    def between(self, t0, t1):
        """Normalised seconds of [t0, t1], which must lie between two
        probes; probes inside it do not count as work."""
        i = bisect.bisect_right(self.ends, t0) - 1
        j = bisect.bisect_left(self.starts, t1)
        if i < 0 or j >= len(self.starts):
            raise ValueError("no probe before or after the interval")
        total = 0.0
        for k in range(i, j):
            lo, hi = max(self.ends[k], t0), min(self.starts[k + 1], t1)
            if hi > lo:
                total += (hi - lo) * 2.0 * PROBE_NOMINAL_S / (self.cpu[k] + self.cpu[k + 1])
        self.raw += t1 - t0
        self.normalised += total
        return total

    def run(self, fn):
        """(fn(), normalised seconds)."""
        self.probe()
        t0 = clock()
        result = fn()
        t1 = clock()
        self.probe()
        return result, self.between(t0, t1)

    def popen(self, argv, timeout, **kwargs):
        """Run argv to completion: (returncode, stdout, stderr, normalised s).
        The child is killed and reaped on a timeout or any other error."""
        def run():
            with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True, **kwargs) as proc:
                try:
                    out, err = proc.communicate(timeout=timeout)
                except BaseException:
                    proc.kill()
                    proc.communicate()
                    raise
            return proc.returncode, out, err

        (code, out, err), seconds = self.run(run)
        return code, out, err, seconds


def paired(tracer, span, run, check, speed=None):
    """Time run(), then call check(result) outside the timed region.

    Without a tracer the time is normalised by `speed` (see Speed).  A full
    garbage collection before each run starts every op from the same
    collector state, so the collections inside it do not depend on the ops
    before it.

    With a tracer, run it twice back to back, once untraced and once traced
    inside `span`, so drift in machine speed cancels from the overhead
    ratio; which goes first alternates from call to call, because a repeat
    of the same work runs a little faster.  Returns [(traced, seconds,
    check result)] in run order."""
    order = (False,)
    if tracer is not None:
        tracer.traced_first = not tracer.traced_first
        order = (True, False) if tracer.traced_first else (False, True)
    out = []
    for traced in order:
        gc.collect()
        if traced:
            with tracer.installed():
                t0 = clock()
                with tracer.span(span):
                    result = run()
                seconds = clock() - t0
        elif tracer is None:
            result, seconds = speed.run(run)
        else:
            t0 = clock()
            result = run()
            seconds = clock() - t0
        out.append((traced, seconds, check(result)))
    return out


def random_joint(rng, m, n):
    """A uniformly drawn interior joint state."""
    return pg.JointState.from_probabilities(rng.dirichlet(np.ones(m)),
                                            rng.dirichlet(np.ones(n)))


def common_game(rng, m, n, period):
    """A random period-`period` schedule sharing one interior equilibrium,
    and that equilibrium."""
    x = pg.Simplex.from_probabilities(rng.dirichlet(np.full(m, 5.0)))
    y = pg.Simplex.from_probabilities(rng.dirichlet(np.full(n, 5.0)))
    mats = tuple(pg.generate_common_equilibrium_game(
        x, y, pg.PayoffMatrix(rng.normal(size=(m, n)))) for _ in range(period))
    return pg.PeriodicGame(mats), pg.JointState(x, y)


def quantile(values, q):
    """The q-th decile cut (q in 1..9), interpolated between samples and
    never beyond the largest."""
    if len(values) < 2:
        return float(values[0])
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def beyond(values, cut):
    return sum(1 for v in values if v > cut)


def median(values):
    return float(statistics.median(values))


class Fingerprint:
    """sha256 over every trajectory and file byte a workload produced, in
    production order, so two runs can be compared for identical bits."""

    def __init__(self):
        self._h = hashlib.sha256()

    def arrays(self, *arrays):
        for a in arrays:
            self._h.update(a.tobytes())

    def data(self, blob: bytes):
        self._h.update(blob)

    def hexdigest(self):
        return self._h.hexdigest()


def _command_output(argv, cwd=None):
    try:
        out = subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                             timeout=20, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _backend_reason():
    flag = os.environ.get("PERIODICGAME_NO_NUMBA", "")
    if flag.strip().lower() not in ("", "0", "false", "no"):
        return f"PERIODICGAME_NO_NUMBA={flag} is set"
    if importlib.util.find_spec("numba") is None:
        return "numba is not importable"
    if pg.backend_name() == "numba":
        return "numba is active"
    return "numba is installed but failed to import"


def _source_digest(src):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def run_environment(root, src, seed):
    """Backend and why it was chosen, versions, cpu count, source identity."""
    toplevel = _command_output(["git", "-C", root, "rev-parse", "--show-toplevel"])
    git_sha = None
    if toplevel and os.path.realpath(toplevel) == os.path.realpath(root):
        git_sha = _command_output(["git", "-C", root, "rev-parse", "HEAD"])
    return {
        "backend": pg.backend_name(),
        "backend_reason": _backend_reason(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "gcc": _command_output(["gcc", "-dumpfullversion"]),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "git_sha": git_sha,
        "src_sha256": _source_digest(src),
        "seed": seed,
        "executable": os.path.basename(sys.executable),
    }

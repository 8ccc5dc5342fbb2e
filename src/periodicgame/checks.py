"""Trajectory checkers that verify the dynamical-systems claims numerically:
ratio identities, increment bounds, KL monotonicity, Bregman identities,
boundary fixed points, and periodic-orbit detection.

KL differences along a trajectory are always formed from log-probability
differences (which subtract nearly exactly), never by differencing two
independently rounded KL values; the monotonicity tolerances below 1e-12
would otherwise drown in cancellation noise.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import List

import numpy as np

from .dynamics import Algorithm, exp_weights_step, require_step_size
from .errors import InputError
from .simplex import JointState, Simplex, Trajectory, kl_simplex


@dataclass(frozen=True)
class Violation:
    t: int
    lhs: float
    rhs: float
    slack: float


@dataclass
class PropertyReport:
    name: str
    checked_steps: int
    violations: List[Violation] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "passed" if self.passed else f"FAILED ({len(self.violations)} violations)"
        return f"{self.name}: {status} over {self.checked_steps} checks"


def boundary_fixed_point(a: float, eta: float) -> np.ndarray:
    """A point on the boundary fixed-point curve of the composed reduced
    map: (0, 0, a, a e^{-3 eta} / (a e^{-3 eta} + 1 - a))."""
    if not 0.0 <= a <= 1.0:
        raise InputError("a must lie in [0, 1]")
    require_step_size(eta)
    u = a * math.exp(-3.0 * eta)
    return np.array([0.0, 0.0, a, u / (u + (1.0 - a))])


def _require(traj: Trajectory, algo: Algorithm, name: str):
    if traj.algo != algo.value:
        raise InputError(f"{name} expects a {algo.value} trajectory, got {traj.algo}")
    if not traj.is_contiguous or traj.times[0] != 0:
        raise InputError(f"{name} needs a full recording from t = 0 (record_every = 1)")


def _require_2x2(traj: Trajectory, name: str):
    if traj.log_probs1.shape[1] != 2 or traj.log_probs2.shape[1] != 2:
        raise InputError(f"{name} applies to 2x2 games only")


def _require_tol(tol: float):
    if not (math.isfinite(tol) and tol >= 0):
        raise InputError(f"tol must be a nonnegative finite number, got {tol!r}")


def _flag(report: PropertyReport, mask, times, lhs, rhs, slack):
    # A Violation for each index where mask holds, in index order; scalar
    # arguments stand for every index.
    hits = np.nonzero(mask)[0]
    if hits.size:  # most scans find nothing, and broadcasting costs more
        cols = [np.broadcast_to(v, mask.shape)[hits].tolist() for v in (times, lhs, rhs, slack)]
        report.violations.extend(map(Violation, *cols))


def _kl_step_differences(traj: Trajectory, ref: JointState, stride: int = 1) -> np.ndarray:
    """KL(ref, x^{t+stride}) - KL(ref, x^t) per recorded step, via exact-ish
    log-probability differences."""
    r1 = ref.x1.probabilities
    r2 = ref.x2.probabilities
    d1 = traj.log_probs1[:-stride] - traj.log_probs1[stride:]
    d2 = traj.log_probs2[:-stride] - traj.log_probs2[stride:]
    return d1 @ r1 + d2 @ r2


def check_omwu_ratio_identities(traj: Trajectory, eta: float,
                                tol: float = 1e-10) -> PropertyReport:
    """Verify the six two-step log-ratio identities of the alternating 2x2
    game at every even time index with enough history, in log form to
    relative tolerance ``tol``."""
    _require_tol(tol)
    _require(traj, Algorithm.OMWU, "ratio-identities")
    _require_2x2(traj, "ratio-identities")
    last = int(traj.times[-1])
    if last < 4:
        raise InputError("trajectory too short: need at least 4 steps")

    lg1 = traj.log_probs1[:, 0] - traj.log_probs1[:, 1]
    lg2 = traj.log_probs2[:, 0] - traj.log_probs2[:, 1]
    b1 = np.exp(traj.log_probs1[:, 1])  # x_{1,2}
    b2 = np.exp(traj.log_probs2[:, 1])  # x_{2,2}

    te = np.arange(2, last - 1, 2)
    identities = {
        1: (lg1[te + 1], lg1[te - 1] - 2 * eta * (2 * b2[te] - b2[te - 1] - b2[te - 2])),
        2: (lg2[te + 1], lg2[te - 1] + 2 * eta * (2 * b1[te] - b1[te - 1] - b1[te - 2])),
        3: (lg1[te + 2], lg1[te] + 2 * eta * (2 * b2[te + 1] - b2[te] - b2[te - 1])),
        4: (lg2[te + 2], lg2[te] - 2 * eta * (2 * b1[te + 1] - b1[te] - b1[te - 1])),
        5: (lg1[te + 2], lg1[te + 1] - 3 * eta + 2 * eta * (2 * b2[te + 1] + b2[te])),
        6: (lg2[te + 1], lg2[te] - 3 * eta + 2 * eta * (2 * b1[te] + b1[te - 1])),
    }
    report = PropertyReport("omwu-ratio-identities", len(identities) * te.size)
    worst = 0.0
    for lhs, rhs in identities.values():
        scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
        residual = np.abs(lhs - rhs)
        excess = residual - tol * scale
        worst = max(worst, float((residual / scale).max()))
        _flag(report, excess > 0, te, lhs, rhs, excess)
    report.stats["worst_relative_residual"] = worst
    report.stats["even_steps_checked"] = int(te.size)
    return report


def check_omwu_increments(traj: Trajectory, p: float, eta: float) -> PropertyReport:
    """Two-sided increment bounds plus the two-step KL increase for the
    divergent OMWU run, over the window where both second coordinates stay
    below 1 - sqrt(eta).

    Hypothesis violations (p out of range, eta too large, initial condition
    outside the region) raise InputError; they are not property failures.
    """
    _require(traj, Algorithm.OMWU, "increments")
    _require_2x2(traj, "increments")
    if not 0.0 < p < 0.25:
        raise InputError("p must lie in (0, 1/4)")
    # Tiny relative slack so a bound computed from rounded probabilities
    # (|0.45 - 0.5| is one ulp above 0.05) still counts as satisfying it.
    if eta > (p / 16.0) ** 2 * (1.0 + 1e-9):
        raise InputError(f"eta {eta} exceeds the hypothesis bound (p/16)^2 = {(p/16)**2}")
    if traj.eta != eta:
        raise InputError("eta does not match the trajectory")

    b1 = np.exp(traj.log_probs1[:, 1])
    b2 = np.exp(traj.log_probs2[:, 1])
    if b1[0] < 0.5 + 2 * p or b2[0] < 0.5 + 2 * p:
        raise InputError("initial second coordinates must be >= 1/2 + 2p")

    last = int(traj.times[-1])
    cutoff = 1.0 - math.sqrt(eta)
    outside = np.nonzero((b1 > cutoff) | (b2 > cutoff))[0]
    horizon = int(outside[0]) - 1 if outside.size else last
    t_max = min(last, horizon) - 2
    report = PropertyReport("omwu-increments", 0)
    report.stats["boundary_hit_at"] = int(outside[0]) if outside.size else None
    if t_max < 4:
        raise InputError("window too short: no even step t >= 4 with t+2 in range")

    te = np.arange(4, t_max + 1, 2)
    lo3 = 0.75 * p * eta ** 3
    lo15 = 1.5 * p * eta ** 1.5
    hi2 = 12.0 * eta ** 2
    hi1 = 3.0 * eta
    bounds = {
        "x22[t+1]-x22[t-1]": (b2[te + 1] - b2[te - 1], lo3, hi2),
        "x22[t]-x22[t+1]": (b2[te] - b2[te + 1], lo15, hi1),
        "x12[t+2]-x12[t]": (b1[te + 2] - b1[te], lo3, hi2),
        "x12[t+1]-x12[t-1]": (b1[te + 1] - b1[te - 1], lo3, None),
        "x22[t+2]-x22[t]": (b2[te + 2] - b2[te], lo3, None),
        "x12[t+1]-x12[t+2]": (b1[te + 1] - b1[te + 2], lo15, hi1),
    }
    for label, (vals, lo, hi) in bounds.items():
        # Each slack is positive exactly where its bound fails.
        short = lo - vals
        _flag(report, short > 0, te, vals, lo, short)
        if hi is not None:
            over = vals - hi
            _flag(report, over > 0, te, vals, hi, over)
        report.stats[f"min {label}"] = float(vals.min()) if te.size else None

    eq = JointState.from_probabilities([0.5, 0.5], [0.5, 0.5])
    kl_gain = _kl_step_differences(traj, eq, stride=2)[te]  # KL(t+2) - KL(t)
    kl_floor = 0.375 * p * p * eta ** 3
    short = kl_floor - kl_gain
    _flag(report, short > 0, te, kl_gain, kl_floor, short)
    report.checked_steps = (len(bounds) + 1) * te.size  # six bounds and the KL floor
    report.stats["min_kl_2step_gain"] = float(kl_gain.min()) if te.size else None
    report.stats["kl_floor"] = kl_floor
    report.stats["even_steps_checked"] = int(te.size)
    return report


# Smallest KL change the stored trajectory can express: the update itself is
# quantized at one ulp of the O(1) log-probabilities, so "strictly less"
# is only meaningful above a few machine epsilons.
_STRICT_FLOOR = 8 * np.finfo(float).eps


def check_extra_kl_decrease(traj: Trajectory, eq: JointState,
                            tol: float = 1e-12) -> PropertyReport:
    """Per-step KL monotonicity toward a common fully mixed equilibrium.

    While the state is more than 1e-8 from the equilibrium in max-norm the
    decrease must also be strict: any resolvable increase, or a stretch of
    ten exactly-stalled steps, is a violation.
    """
    _require_tol(tol)
    _require(traj, Algorithm.EXTRA_MWU, "kl-decrease")
    if eq.dims != (traj.log_probs1.shape[1], traj.log_probs2.shape[1]):
        raise InputError("equilibrium dimensions do not match the trajectory")
    diffs = _kl_step_differences(traj, eq, stride=1)  # KL(t+1) - KL(t)
    dist = np.maximum(
        np.abs(np.exp(traj.log_probs1) - eq.x1.probabilities).max(axis=1),
        np.abs(np.exp(traj.log_probs2) - eq.x2.probabilities).max(axis=1),
    )
    report = PropertyReport("extra-kl-decrease", int(diffs.size))
    after = traj.times[1:]
    _flag(report, diffs > tol, after, diffs, tol, diffs - tol)
    far = dist[:-1] > 1e-8
    _flag(report, far & (diffs >= _STRICT_FLOOR), after, diffs, 0.0, diffs)
    # Every tenth step of a stalled stretch: its length so far is the
    # distance back to the last step that did not stall.
    stalled = far & (diffs == 0.0)
    idx = np.arange(stalled.size)
    runlen = idx - np.maximum.accumulate(np.where(stalled, -1, idx))
    _flag(report, stalled & (runlen % 10 == 0), after, 0.0, 0.0, 0.0)
    report.stats["max_increase"] = float(diffs.max()) if diffs.size else None
    report.stats["final_kl"] = float(traj.kl_to_ref[-1])
    return report


def check_bregman_identities(p: Simplex, x: Simplex, x_prime: Simplex, y,
                             tol: float = 1e-10) -> PropertyReport:
    """Verify the three-points identity for (p, x, x') and the exp-weights
    step identity for x-dagger = exp_weights_step(x, y, 1), both to absolute
    tolerance ``tol``."""
    _require_tol(tol)
    for name, s in (("p", p), ("x", x), ("x_prime", x_prime)):
        if s.probabilities.min() <= 0:
            raise InputError(f"{name} must be interior")
    if not (len(p) == len(x) == len(x_prime)):
        raise InputError("dimension mismatch among p, x, x_prime")
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (len(x),) or not np.isfinite(y).all():
        raise InputError("y must be a finite vector matching x")

    report = PropertyReport("bregman-identities", 2)
    log_ratio = x_prime.log_probabilities - x.log_probabilities
    lhs1 = kl_simplex(p, x_prime)
    rhs1 = kl_simplex(p, x) + kl_simplex(x, x_prime) + float(
        log_ratio @ (x.probabilities - p.probabilities)
    )
    if abs(lhs1 - rhs1) > tol:
        report.violations.append(Violation(0, lhs1, rhs1, abs(lhs1 - rhs1) - tol))

    x_dag = exp_weights_step(x, y, 1.0)
    lhs2 = kl_simplex(p, x_dag)
    rhs2 = kl_simplex(p, x) - kl_simplex(x_dag, x) + float(
        y @ (x_dag.probabilities - p.probabilities)
    )
    if abs(lhs2 - rhs2) > tol:
        report.violations.append(Violation(1, lhs2, rhs2, abs(lhs2 - rhs2) - tol))
    report.stats["residuals"] = (abs(lhs1 - rhs1), abs(lhs2 - rhs2))
    return report


class OrbitVerdict(str, enum.Enum):
    CONVERGED_POINT = "converged_point"
    CONVERGED_ORBIT = "converged_orbit"
    DIVERGING_BOUNDARY = "diverging_boundary"
    INCONCLUSIVE = "inconclusive"


# A state whose smallest component stays this far below the 1e-6 boundary
# threshold for ten straight periods has left the interior for good; no
# orbit or point limit of these dynamics lives there.
_SATURATED_BOUNDARY = 1e-12
_ORBIT_TOL = 1e-8  # tail gaps this small count as no motion
_NONTRIVIAL_MOTION = 1e-3  # an orbit keeps a consecutive gap this large


def detect_periodic_orbit(traj: Trajectory) -> OrbitVerdict:
    """Classify the tail behavior over the final 10 periods of the
    trajectory's own schedule period.

    A point limit has both the period-stride and the consecutive gaps tiny;
    a nontrivial orbit keeps consecutive motion while the period-stride gap
    vanishes; boundary divergence shows the smallest component either
    shrinking period over period below 1e-6 (approach phase) or already
    pinned far below it for the whole window (saturated phase, which can
    wiggle locally while the surviving coordinates keep cycling).
    """
    period = traj.period
    if period < 1:
        raise InputError("trajectory period must be >= 1")
    if not traj.is_contiguous:
        raise InputError("orbit detection needs record_every = 1")
    span = 10 * period
    if traj.n_records < span + 1:
        raise InputError(f"trajectory must cover at least {span} steps")

    probs = np.hstack([np.exp(traj.log_probs1), np.exp(traj.log_probs2)])
    window = probs[-(span + 1):]
    period_gap = float(np.abs(window[period:] - window[:-period]).max())
    consec_gap = float(np.abs(window[1:] - window[:-1]).max())
    if period_gap <= _ORBIT_TOL and consec_gap <= _ORBIT_TOL:
        return OrbitVerdict.CONVERGED_POINT
    mc = traj.min_component[-(span + 1):]
    if mc.max() < _SATURATED_BOUNDARY:
        return OrbitVerdict.DIVERGING_BOUNDARY
    if period_gap <= _ORBIT_TOL and consec_gap >= _NONTRIVIAL_MOTION:
        return OrbitVerdict.CONVERGED_ORBIT
    stride_down = bool((mc[period:] <= mc[:-period] * (1.0 + 1e-9)).all())
    if stride_down and mc[-1] < 1e-6:
        return OrbitVerdict.DIVERGING_BOUNDARY
    return OrbitVerdict.INCONCLUSIVE

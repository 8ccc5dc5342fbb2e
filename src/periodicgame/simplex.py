"""Core value types: simplices in log-space, payoff matrices, periodic
schedules, joint states, trajectories, and the joint KL-divergence.

Strategies are kept as (unnormalized) log-weights so that divergent runs,
where probabilities sink far below the smallest positive double, remain
fully representable.  A log-probability below ``LOG_ZERO`` is treated as an
exact boundary coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import InputError

# Double precision underflows near exp(-745.13); below this a coordinate
# counts as exactly zero and KL against positive reference mass is +inf.
LOG_ZERO = -745.0


def _as_float_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise InputError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size < 2:
        raise InputError(f"{name} needs at least 2 entries, got {arr.size}")
    return arr


@dataclass(frozen=True)
class Simplex:
    """A mixed strategy stored as log-weights.

    Probabilities are the softmax of ``log_weights``; adding a constant to
    every log-weight leaves the strategy unchanged.  ``-inf`` entries are
    allowed and represent exact boundary coordinates.
    """

    log_weights: np.ndarray

    def __post_init__(self):
        arr = _as_float_vector(self.log_weights, "log_weights")
        if np.isnan(arr).any() or np.isposinf(arr).any():
            raise InputError("log_weights must not contain NaN or +inf")
        if not np.isfinite(arr).any():
            raise InputError("log_weights must contain at least one finite entry")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "log_weights", arr)

    @classmethod
    def from_probabilities(cls, probs) -> "Simplex":
        p = _as_float_vector(probs, "probabilities")
        if (p < 0).any() or not np.isfinite(p).all():
            raise InputError("probabilities must be finite and nonnegative")
        total = p.sum()
        if not math.isclose(total, 1.0, rel_tol=0.0, abs_tol=1e-9):
            raise InputError(f"probabilities must sum to 1, got {float(total)!r}")
        with np.errstate(divide="ignore"):
            return cls(np.log(p / total))

    def __len__(self) -> int:
        return self.log_weights.size

    @property
    def log_probabilities(self) -> np.ndarray:
        """Normalized log-weights (logsumexp equals zero)."""
        lw = self.log_weights
        m = lw.max()
        return lw - (m + math.log(np.exp(lw - m).sum()))

    @property
    def probabilities(self) -> np.ndarray:
        lw = self.log_weights
        w = np.exp(lw - lw.max())
        return w / w.sum()


def normalize_log_weights(logw) -> Simplex:
    """Build a Simplex from raw log-weights via max-subtracted softmax.

    Idempotent up to a uniform shift; rejects all--inf input.
    """
    s = Simplex(logw)
    return Simplex(s.log_probabilities)


@dataclass(frozen=True)
class PayoffMatrix:
    """Payoff of the row player (the maximizer); the column player minimizes."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=np.float64)
        if arr.ndim != 2:
            raise InputError(f"payoff matrix must be 2-d, got shape {arr.shape}")
        if arr.shape[0] < 2 or arr.shape[1] < 2:
            raise InputError(f"payoff matrix must be at least 2x2, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise InputError("payoff matrix entries must be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @property
    def m(self) -> int:
        return self.entries.shape[0]

    @property
    def n(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True)
class PeriodicGame:
    """A periodic schedule of payoff matrices; ``matrix_at(t)`` wraps mod T."""

    matrices: tuple

    def __post_init__(self):
        mats = tuple(
            a if isinstance(a, PayoffMatrix) else PayoffMatrix(a) for a in self.matrices
        )
        if not mats:
            raise InputError("a periodic game needs at least one matrix")
        shape = mats[0].entries.shape
        for a in mats[1:]:
            if a.entries.shape != shape:
                raise InputError(
                    f"all matrices must share dimensions; got {a.entries.shape} vs {shape}"
                )
        object.__setattr__(self, "matrices", mats)

    @property
    def period(self) -> int:
        return len(self.matrices)

    @property
    def m(self) -> int:
        return self.matrices[0].m

    @property
    def n(self) -> int:
        return self.matrices[0].n

    def matrix_at(self, t: int) -> PayoffMatrix:
        # Python % maps t = -1 onto T-1, which is exactly the OMWU bootstrap.
        return self.matrices[t % self.period]

    def stacked(self) -> np.ndarray:
        return np.stack([a.entries for a in self.matrices])


@dataclass(frozen=True)
class JointState:
    """A pair of mixed strategies (player 1, player 2)."""

    x1: Simplex
    x2: Simplex

    @classmethod
    def from_probabilities(cls, p1, p2) -> "JointState":
        return cls(Simplex.from_probabilities(p1), Simplex.from_probabilities(p2))

    @classmethod
    def uniform(cls, m: int, n: int) -> "JointState":
        return cls(Simplex(np.zeros(m)), Simplex(np.zeros(n)))

    @property
    def dims(self) -> tuple:
        return (len(self.x1), len(self.x2))

    def max_norm_distance(self, other: "JointState") -> float:
        d1 = np.abs(self.x1.probabilities - other.x1.probabilities).max()
        d2 = np.abs(self.x2.probabilities - other.x2.probabilities).max()
        return float(max(d1, d2))


def _kl_rows(ref: Simplex, log_probs: np.ndarray) -> np.ndarray:
    """KL(ref, row) for each row of normalized log-probabilities, the
    per-player term of both KL routines below."""
    rp = ref.probabilities
    mask = rp > 0.0
    sub = log_probs[:, mask]
    # Using ref's normalized log-probabilities (not log(rp)) makes the
    # identity case cancel exactly.
    contrib = (rp[mask] * (ref.log_probabilities[mask][None, :] - sub)).sum(axis=1)
    contrib[(sub < LOG_ZERO).any(axis=1)] = math.inf
    return contrib


def kl_simplex(p: Simplex, q: Simplex) -> float:
    """KL(p, q) for a single pair of strategies, with 0*ln(0/.) = 0.

    Returns +inf when q vanishes (log-probability below LOG_ZERO) on a
    coordinate where p has positive mass.
    """
    if len(p) != len(q):
        raise InputError(f"dimension mismatch: {len(p)} vs {len(q)}")
    return max(float(_kl_rows(p, q.log_probabilities[None, :])[0]), 0.0)


def kl_divergence(p: JointState, q: JointState) -> float:
    """Joint KL-divergence: the sum of both players' KL terms."""
    if p.dims != q.dims:
        raise InputError(f"dimension mismatch: {p.dims} vs {q.dims}")
    return kl_simplex(p.x1, q.x1) + kl_simplex(p.x2, q.x2)


@dataclass(frozen=True)
class Trajectory:
    """A recorded run: normalized log-probabilities per recorded time step.

    ``kl_to_ref`` is NaN throughout when no reference was supplied and +inf
    exactly where the state has zero mass on a reference-positive coordinate.
    """

    times: np.ndarray       # (R,) int64, strictly increasing
    log_probs1: np.ndarray  # (R, m)
    log_probs2: np.ndarray  # (R, n)
    kl_to_ref: np.ndarray   # (R,)
    min_component: np.ndarray  # (R,)
    period: int
    eta: float
    algo: str
    reference: Optional[JointState] = None

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.int64)
        if t.size == 0 or (np.diff(t) <= 0).any():
            raise InputError("trajectory times must be nonempty and strictly increasing")
        object.__setattr__(self, "times", t)

    @property
    def n_records(self) -> int:
        return self.times.size

    @property
    def phases(self) -> np.ndarray:
        return self.times % self.period

    @property
    def probabilities1(self) -> np.ndarray:
        return np.exp(self.log_probs1)

    @property
    def probabilities2(self) -> np.ndarray:
        return np.exp(self.log_probs2)

    @property
    def is_contiguous(self) -> bool:
        """True when every step was recorded (record_every == 1)."""
        return bool((np.diff(self.times) == 1).all())

    def state_at(self, r: int) -> JointState:
        return JointState(Simplex(self.log_probs1[r]), Simplex(self.log_probs2[r]))

    @property
    def final_state(self) -> JointState:
        return self.state_at(self.n_records - 1)


def kl_to_reference(reference: JointState, log_probs1: np.ndarray,
                    log_probs2: np.ndarray) -> np.ndarray:
    """Vectorized KL(reference, state_r) over recorded log-probabilities."""
    out = np.zeros(log_probs1.shape[0])
    out += _kl_rows(reference.x1, log_probs1)
    out += _kl_rows(reference.x2, log_probs2)
    return np.maximum(out, 0.0)

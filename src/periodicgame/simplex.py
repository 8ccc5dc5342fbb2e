"""Core value types: simplices in log-space, payoff matrices, periodic
schedules, joint states, trajectories, and the joint KL-divergence.

Strategies are kept as (unnormalized) log-weights so that divergent runs,
where probabilities sink far below the smallest positive double, remain
fully representable.  A log-probability below ``LOG_ZERO`` is treated as an
exact boundary coordinate.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from .errors import InputError

# Double precision underflows near exp(-745.13); below this a coordinate
# counts as exactly zero and KL against positive reference mass is +inf.
LOG_ZERO = -745.0


def fold_columns(ufunc, a: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(a, axis=1)`` of a 2-d array as a left-to-right fold
    over its columns, in a new array; a sum starts from +0.0, as numpy's
    does, so a row of -0.0 sums to +0.0.

    The fold fixes the summation order instead of leaving it to how numpy
    iterates a reduction, and a few whole-column operations cost far less
    than numpy's per-row reduction of a narrow array.
    """
    acc = a[:, 0] + 0.0 if ufunc is np.add else a[:, 0].copy()
    for j in range(1, a.shape[1]):
        ufunc(acc, a[:, j], out=acc)
    return acc


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _as_float_vector(values, name: str) -> np.ndarray:
    try:
        arr = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as e:    # non-numeric, complex or ragged
        raise InputError(f"{name} must be a vector of real numbers: {e}") from e
    if arr.ndim != 1:
        raise InputError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size < 2:
        raise InputError(f"{name} needs at least 2 entries, got {arr.size}")
    return arr


def check_log_weights(lw: np.ndarray) -> np.ndarray:
    """``lw`` if it is a valid vector of log-weights, else InputError."""
    # One reduction: the maximum is NaN if any entry is, +inf if any entry
    # is and none is NaN, and -inf only when every entry is.
    top = np.maximum.reduce(lw)
    if top != top or top == math.inf:
        raise InputError("log_weights must not contain NaN or +inf")
    if top == -math.inf:
        raise InputError("log_weights must contain at least one finite entry")
    return lw


def log_normalize(lw: np.ndarray) -> np.ndarray:
    """Log-weights shifted so that their logsumexp is zero, in a new array."""
    m = lw.max()
    return lw - (m + math.log(np.exp(lw - m).sum()))


def softmax(lw: np.ndarray) -> np.ndarray:
    """Probabilities of log-weights, by max-subtracted softmax."""
    w = np.exp(lw - lw.max())
    return w / w.sum()


@dataclass(frozen=True)
class Simplex:
    """A mixed strategy stored as log-weights.

    Probabilities are the softmax of ``log_weights``; adding a constant to
    every log-weight leaves the strategy unchanged.  ``-inf`` entries are
    allowed and represent exact boundary coordinates.

    ``Simplex(log_weights)`` checks and copies its input.  The library's own
    builders from arrays they have just made (``from_probabilities``,
    ``normalize_log_weights`` and ``JointState.uniform``) keep that array,
    read-only, without the second check and copy: log-weights made from
    checked probabilities or checked log-weights, or zeros, hold no NaN or
    +inf and at least one finite entry, so that check could never fail.
    """

    log_weights: np.ndarray

    def __post_init__(self):
        arr = check_log_weights(_as_float_vector(self.log_weights, "log_weights"))
        object.__setattr__(self, "log_weights", _read_only(arr.copy()))

    @classmethod
    def from_probabilities(cls, probs) -> "Simplex":
        p = _as_float_vector(probs, "probabilities")
        # NaN fails ``lo >= 0``; -0.0 passes it.
        lo, hi = np.minimum.reduce(p), np.maximum.reduce(p)
        if not (lo >= 0 and hi < math.inf):
            raise InputError("probabilities must be finite and nonnegative")
        # np.add.reduce gives the bits of p.sum() without its Python wrapper.
        if hi <= 1.0:
            total = np.add.reduce(p)
        else:   # the sum may overflow to inf, which fails the check below
            with np.errstate(over="ignore"):
                total = np.add.reduce(p)
        if not math.isclose(total, 1.0, rel_tol=0.0, abs_tol=1e-9):
            raise InputError(f"probabilities must sum to 1, got {float(total)!r}")
        if lo > 0:  # only a zero entry makes np.log warn
            return _trusted(cls, np.log(p / total))
        with np.errstate(divide="ignore"):
            return _trusted(cls, np.log(p / total))

    def __len__(self) -> int:
        return self.log_weights.size

    def __reduce__(self):
        # Copies and pickles rebuild through __init__: read-only arrays and
        # no cached values carried over.
        return type(self), (self.log_weights,)

    # Both derived arrays are computed on first access and kept, read-only.
    @functools.cached_property
    def log_probabilities(self) -> np.ndarray:
        """Normalized log-weights (logsumexp equals zero)."""
        return _read_only(log_normalize(self.log_weights))

    @functools.cached_property
    def probabilities(self) -> np.ndarray:
        return _read_only(softmax(self.log_weights))


def _trusted(cls, lw: np.ndarray) -> Simplex:
    """A ``cls`` around ``lw``, which the caller has just made from checked
    input: a new 1-d float64 array of at least 2 entries, with no NaN or
    +inf and at least one finite entry.  It is kept, read-only, without
    ``__post_init__``'s check and copy."""
    s = object.__new__(cls)
    object.__setattr__(s, "log_weights", _read_only(lw))
    return s


def normalize_log_weights(logw) -> Simplex:
    """Build a Simplex from raw log-weights via max-subtracted softmax.

    Idempotent up to a uniform shift; rejects all--inf input.
    """
    return _trusted(Simplex, Simplex(logw).log_probabilities)


@dataclass(frozen=True)
class PayoffMatrix:
    """Payoff of the row player (the maximizer); the column player minimizes."""

    entries: np.ndarray

    def __post_init__(self):
        try:
            arr = np.asarray(self.entries, dtype=np.float64)
        except (TypeError, ValueError) as e:    # non-numeric, complex or ragged
            raise InputError(f"payoff matrix must be an array of real numbers: {e}") from e
        if arr.ndim != 2:
            raise InputError(f"payoff matrix must be 2-d, got shape {arr.shape}")
        if arr.shape[0] < 2 or arr.shape[1] < 2:
            raise InputError(f"payoff matrix must be at least 2x2, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise InputError("payoff matrix entries must be finite")
        object.__setattr__(self, "entries", _read_only(arr.copy()))

    def __reduce__(self):
        return type(self), (self.entries,)

    @functools.cached_property
    def spectral_norm(self) -> float:
        """The largest singular value of ``entries``, computed once."""
        return float(np.linalg.norm(self.entries, 2))

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

    def __reduce__(self):
        return type(self), (self.matrices,)

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
        """The schedule as one read-only (T, m, n) array."""
        return self._stacked

    @functools.cached_property
    def _stacked(self) -> np.ndarray:
        return _read_only(np.stack([a.entries for a in self.matrices]))


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
        return cls(*(_trusted(Simplex, _as_float_vector(np.zeros(k), "log_weights"))
                     for k in (m, n)))

    @property
    def dims(self) -> tuple:
        return (len(self.x1), len(self.x2))

    def max_norm_distance(self, other: "JointState") -> float:
        if self.dims != other.dims:
            raise InputError(f"dimension mismatch: {self.dims} vs {other.dims}")
        d1 = np.abs(self.x1.probabilities - other.x1.probabilities).max()
        d2 = np.abs(self.x2.probabilities - other.x2.probabilities).max()
        return float(max(d1, d2))


# The KL routines take the reference's normalized log-probabilities, not the
# log of its probabilities, so that the identity case cancels exactly.
def kl_from_logs(rp, rlp, lq) -> float:
    """KL(r, q) from r's probabilities ``rp`` and normalized
    log-probabilities ``rlp`` and q's normalized log-probabilities ``lq``,
    three sequences of floats; +inf when q vanishes (below LOG_ZERO) where
    r has mass, and never below zero."""
    acc = 0.0
    vanished = False
    for r, a, b in zip(rp, rlp, lq):
        if r > 0.0:
            acc += r * (a - b)
            vanished = vanished or b < LOG_ZERO
    return max(math.inf if vanished else acc, 0.0)


def kl_simplex(p: Simplex, q: Simplex) -> float:
    """KL(p, q) for a single pair of strategies, with 0*ln(0/.) = 0.

    Returns +inf when q vanishes (log-probability below LOG_ZERO) on a
    coordinate where p has positive mass.
    """
    if len(p) != len(q):
        raise InputError(f"dimension mismatch: {len(p)} vs {len(q)}")
    return kl_from_logs(p.probabilities.tolist(), p.log_probabilities.tolist(),
                        q.log_probabilities.tolist())


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
        # Compared, not differenced: np.diff of far-apart int64 times wraps.
        if t.ndim != 1 or t.size == 0 or (t[1:] <= t[:-1]).any():
            raise InputError("trajectory times must be nonempty and strictly increasing")
        if any(np.shape(a)[:1] != t.shape for a in (self.log_probs1, self.log_probs2,
                                                     self.kl_to_ref, self.min_component)):
            raise InputError(f"log_probs1, log_probs2, kl_to_ref and min_component must "
                             f"each have one row per recorded time ({t.size})")
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
        """True when every step was recorded (record_every == 1): strictly
        increasing integers are consecutive exactly when the last is the
        first plus their count less one."""
        return int(self.times[-1]) - int(self.times[0]) == self.times.size - 1

    def state_at(self, r: int) -> JointState:
        """The joint state of record ``r``; a negative ``r`` counts from the end."""
        n = self.n_records
        if not (isinstance(r, numbers.Integral) and not isinstance(r, bool) and -n <= r < n):
            raise InputError(f"record index must be an integer in [-n_records, n_records) "
                             f"with n_records = {n}, got {r!r}")
        return JointState(Simplex(self.log_probs1[r]), Simplex(self.log_probs2[r]))

    @property
    def final_state(self) -> JointState:
        return self.state_at(self.n_records - 1)


def kl_to_reference(reference: JointState, log_probs1: np.ndarray,
                    log_probs2: np.ndarray) -> np.ndarray:
    """KL(reference, state_r) for each row r of the (R, m) and (R, n) blocks
    of normalized log-probabilities, never below zero."""
    s1, s2 = np.shape(log_probs1), np.shape(log_probs2)
    if len(s1) != 2 or s1[:1] != s2[:1] or s1[1:] + s2[1:] != reference.dims:
        raise InputError(f"log-probability blocks of shapes {s1} and {s2} do not match "
                         f"the reference's dimensions {reference.dims} row for row")
    r1, r2 = reference.x1, reference.x2
    return _kernels.kl_rows(r1.probabilities, r1.log_probabilities, log_probs1,
                            r2.probabilities, r2.log_probabilities, log_probs2, LOG_ZERO)


def smallest_component(log_probs1: np.ndarray, log_probs2: np.ndarray) -> np.ndarray:
    """The smallest probability of each recorded joint state, from its rows
    of normalized log-probabilities: exp of their minimum, which is the
    minimum of their exps bit for bit, since exp never decreases."""
    low = fold_columns(np.minimum, log_probs1)
    np.minimum(low, fold_columns(np.minimum, log_probs2), out=low)
    return np.exp(low, out=low)

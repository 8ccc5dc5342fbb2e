"""The three update rules, the periodic scheduler, and trajectory execution.

All updates run in log-space with max-subtraction so that divergent OMWU
runs stay representable long after probabilities underflow.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import _kernels
from .errors import InputError, NumericalError
from .simplex import (
    JointState,
    PayoffMatrix,
    PeriodicGame,
    Simplex,
    Trajectory,
    kl_to_reference,
    normalize_log_weights,
    smallest_component,
)


class Algorithm(str, enum.Enum):
    MWU = "mwu"
    OMWU = "omwu"
    EXTRA_MWU = "extra"


_ALGO_CODES = {
    Algorithm.MWU: _kernels.ALGO_MWU,
    Algorithm.OMWU: _kernels.ALGO_OMWU,
    Algorithm.EXTRA_MWU: _kernels.ALGO_EXTRA,
}


@dataclass(frozen=True)
class OmwuState:
    """Current and previous joint state; OMWU looks one step back."""

    current: JointState
    previous: JointState

    def __post_init__(self):
        if self.current.dims != self.previous.dims:
            raise InputError("current and previous states must share dimensions")

    @classmethod
    def repeated(cls, state: JointState) -> "OmwuState":
        return cls(state, state)


def require_step_size(eta: float) -> None:
    """Reject a step size that is not a positive finite number (NaN too)."""
    if not (math.isfinite(eta) and eta > 0):
        raise InputError("eta must be a positive finite number")


def exp_weights_step(x: Simplex, payoff, eta: float) -> Simplex:
    """One exponential-weights step: log-weights shift by eta * payoff.

    Player 1 calls this with payoff A @ x2, player 2 with -A.T @ x1.
    """
    require_step_size(eta)
    p = np.asarray(payoff, dtype=np.float64)
    if p.shape != (len(x),):
        raise InputError(f"payoff length {p.shape} does not match strategy length {len(x)}")
    if not np.isfinite(p).all():
        raise InputError("payoff entries must be finite")
    return normalize_log_weights(x.log_weights + eta * p)


def omwu_joint_step(game: PeriodicGame, t: int, state: OmwuState, eta: float) -> OmwuState:
    """Optimistic update at time t: double weight on today's payoff vector,
    minus yesterday's (with the schedule wrapped so A_{-1} is the last matrix)."""
    if t < 0:
        raise InputError("t must be >= 0")
    require_step_size(eta)
    if state.current.dims != (game.m, game.n):
        raise InputError("state dimensions do not match the game")
    a = game.matrix_at(t).entries
    ap = game.matrix_at(t - 1).entries
    p2, q2 = state.current.x2.probabilities, state.previous.x2.probabilities
    p1, q1 = state.current.x1.probabilities, state.previous.x1.probabilities
    inc1 = eta * (2.0 * (a @ p2) - ap @ q2)
    inc2 = -eta * (2.0 * (a.T @ p1) - ap.T @ q1)
    new = JointState(
        normalize_log_weights(state.current.x1.log_weights + inc1),
        normalize_log_weights(state.current.x2.log_weights + inc2),
    )
    return OmwuState(current=new, previous=state.current)


def extra_mwu_joint_step(A: PayoffMatrix, state: JointState, eta: float):
    """One extra-gradient iteration: a half step evaluated at the current
    state, then a full step from the current state using the half step's
    payoffs.  Returns (half, next)."""
    require_step_size(eta)
    if state.dims != (A.m, A.n):
        raise InputError("state dimensions do not match the matrix")
    a = A.entries
    p1, p2 = state.x1.probabilities, state.x2.probabilities
    half = JointState(
        exp_weights_step(state.x1, a @ p2, eta),
        exp_weights_step(state.x2, -(a.T @ p1), eta),
    )
    h1, h2 = half.x1.probabilities, half.x2.probabilities
    nxt = JointState(
        exp_weights_step(state.x1, a @ h2, eta),
        exp_weights_step(state.x2, -(a.T @ h1), eta),
    )
    return half, nxt


def _resolve_init(init) -> OmwuState:
    if isinstance(init, OmwuState):
        return init
    if isinstance(init, JointState):
        return OmwuState.repeated(init)
    raise InputError(f"init must be a JointState or OmwuState, got {type(init).__name__}")


def _require_count(value, name: str, least: int = 1) -> None:
    """Reject a step count that is not an integer >= ``least``; Python and
    numpy integers pass, floats do not, even whole ones."""
    if not isinstance(value, numbers.Integral):
        raise InputError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise InputError(f"{name} must be >= {least}")


def default_record_every(steps: int) -> int:
    return 1 if steps <= 100_000 else 10


def run_trajectory(
    game: PeriodicGame,
    algo: Union[Algorithm, str],
    init,
    eta: float,
    steps: int,
    record_every: Optional[int] = None,
    reference: Optional[JointState] = None,
) -> Trajectory:
    """Iterate the chosen rule with A_t = matrices[t mod T] from t = 0.

    Records the state, KL to the reference (if given), and the smallest
    probability component every ``record_every`` steps and at the final
    step.  Deterministic: identical inputs give bit-identical output.
    """
    algo = Algorithm(algo)
    _require_count(steps, "steps")
    require_step_size(eta)
    if record_every is None:
        record_every = default_record_every(steps)
    _require_count(record_every, "record_every")

    state = _resolve_init(init)
    if state.current.dims != (game.m, game.n):
        raise InputError(
            f"init dimensions {state.current.dims} do not match game ({game.m}, {game.n})"
        )
    if reference is not None and reference.dims != (game.m, game.n):
        raise InputError("reference dimensions do not match the game")

    rec = np.append(np.arange(0, steps, record_every, dtype=np.int64), steps)
    m, n = game.m, game.n
    out1 = np.empty((rec.size, m))
    out2 = np.empty((rec.size, n))
    lw1 = state.current.x1.log_probabilities.copy()
    lw2 = state.current.x2.log_probabilities.copy()
    lwp1 = state.previous.x1.log_probabilities.copy()
    lwp2 = state.previous.x2.log_probabilities.copy()

    written = _kernels.run_schedule(
        _ALGO_CODES[algo], game.stacked(), float(eta), int(steps),
        rec, lw1, lw2, lwp1, lwp2, out1, out2,
    )
    if written != rec.size:  # pragma: no cover - internal consistency
        raise NumericalError(f"recorded {written} states, expected {rec.size}")

    minc = smallest_component(out1, out2)
    if reference is not None:
        kl = kl_to_reference(reference, out1, out2)
    else:
        kl = np.full(rec.size, np.nan)
    return Trajectory(
        times=rec, log_probs1=out1, log_probs2=out2, kl_to_ref=kl,
        min_component=minc, period=game.period, eta=float(eta),
        algo=algo.value, reference=reference,
    )


def max_step_size(game: PeriodicGame) -> float:
    """Reciprocal of the largest spectral norm in the schedule; step sizes
    must stay strictly below this (inf for an all-zero schedule)."""
    top = max(a.spectral_norm for a in game.matrices)
    if top == 0.0:
        return math.inf
    return 1.0 / top


_REDUCED_SLACK = 1e-3


def _check_reduced_state(z) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (4,):
        raise InputError(f"reduced state must have 4 coordinates, got shape {z.shape}")
    # A small slack admits finite-difference probes at boundary fixed points;
    # a NaN coordinate fails both comparisons.
    if not (np.minimum.reduce(z) >= -_REDUCED_SLACK
            and np.maximum.reduce(z) <= 1.0 + _REDUCED_SLACK):
        raise InputError("reduced-state coordinates must lie in [0, 1]")
    return z


def omwu_reduced_map(parity: str, z, eta: float) -> np.ndarray:
    """The 4-d two-step map tracking both players' first coordinates in the
    2x2 alternating game.  parity "even" advances a pair starting at an even
    time index, "odd" at an odd one."""
    z = _check_reduced_state(z)
    require_step_size(eta)
    if parity not in ("even", "odd"):
        raise InputError(f"parity must be 'even' or 'odd', got {parity!r}")
    out = np.empty(4)
    _kernels.reduced_step(1.0 if parity == "even" else -1.0, z, float(eta), out)
    return out


def omwu_reduced_composite(z, eta: float) -> np.ndarray:
    """One composite iteration: odd map followed by even map."""
    return omwu_reduced_map("even", omwu_reduced_map("odd", z, eta), eta)


def iterate_reduced(z0, eta: float, n_steps: int) -> np.ndarray:
    """Iterate the composite map n_steps times; returns (n_steps+1, 4)."""
    z0 = _check_reduced_state(z0)
    require_step_size(eta)
    _require_count(n_steps, "n_steps", least=0)
    out = np.empty((n_steps + 1, 4))
    _kernels.run_reduced_composite(z0, float(eta), int(n_steps), out)
    return out


def divergence_offset(init: JointState) -> float:
    """p = half the smaller offset of a first coordinate from 1/2 at a 2x2
    initial condition, the p of the divergence hypothesis."""
    if init.dims != (2, 2):
        raise InputError("divergence bound is defined for 2x2 joint states")
    return 0.5 * min(abs(float(init.x1.probabilities[0]) - 0.5),
                     abs(float(init.x2.probabilities[0]) - 0.5))


def omwu_eta_bound_for_divergence(init: JointState) -> float:
    """Largest step size for which the KL-increase hypothesis holds at this
    2x2 initial condition: (p/16)^2 with p = ``divergence_offset(init)``."""
    p = divergence_offset(init)
    if p == 0.0:
        raise InputError("initial condition sits on the equilibrium axis (p = 0)")
    return (p / 16.0) ** 2

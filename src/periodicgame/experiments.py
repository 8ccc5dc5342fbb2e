"""Built-in experiment registry, run configuration, and experiment driver."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from typing import List, Optional

import numpy as np

from .dynamics import Algorithm, OmwuState, max_step_size, run_trajectory
from .errors import ConfigError, InputError
from .simplex import JointState, PeriodicGame, Trajectory

# Payoff schedules transcribed verbatim (tuples are matrix rows; index 0 is
# the matrix used at t = 0).
GAME_2X2 = (
    ((0.0, -1.0), (-1.0, 0.0)),   # even t
    ((0.0, 1.0), (1.0, 0.0)),     # odd t
)
EXP1 = (
    ((0.0, 0.75, 0.25), (1.5, 0.0, 0.0), (0.0, 0.0, 1.0)),   # even t
    ((0.0, 0.25, 0.75), (1.5, 0.0, 0.0), (0.0, 1.0, 0.0)),   # odd t
)
EXP2 = (
    ((0.0, -1.0, 1.0), (1.0, 0.0, -1.0), (-1.0, 1.0, 0.0)),  # t mod 4 = 0
    ((0.0, 1.0, -1.0), (-1.0, 0.0, 1.0), (1.0, -1.0, 0.0)),  # t mod 4 = 1
    ((1.0, -3.0, 2.0), (-2.0, 1.0, 1.0), (1.0, 2.0, -3.0)),  # t mod 4 = 2
    ((1.0, -2.0, 1.0), (-2.0, 1.0, 1.0), (1.0, 1.0, -2.0)),  # t mod 4 = 3
)
NOCOMMON3 = (
    ((0.0, -1.0, 1.0), (1.0, 0.0, -1.0), (-1.0, 1.0, 0.0)),  # t mod 3 = 0
    ((0.0, 1.0, -1.0), (-1.0, 0.0, 1.0), (1.0, -1.0, 0.0)),  # t mod 3 = 1
    ((0.0, 0.25, 0.75), (1.5, 0.0, 0.0), (0.0, 1.0, 0.0)),   # t mod 3 = 2
)

DEFAULT_ALGO = Algorithm.EXTRA_MWU
DEFAULT_STEPS = 20_000
DEFAULT_ETA_EXTRA = 0.1
DEFAULT_ETA_OMWU = 0.01


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    game: PeriodicGame


def builtin_experiments() -> List[ExperimentSpec]:
    """The four built-in schedules: the 2x2 alternating counterexample, the
    two 3x3 common-equilibrium experiments, and the 3-periodic schedule
    without a common equilibrium."""
    return [
        ExperimentSpec("game2x2", PeriodicGame(GAME_2X2)),
        ExperimentSpec("exp1", PeriodicGame(EXP1)),
        ExperimentSpec("exp2", PeriodicGame(EXP2)),
        ExperimentSpec("nocommon3", PeriodicGame(NOCOMMON3)),
    ]


def experiment_by_name(name: str) -> ExperimentSpec:
    for spec in builtin_experiments():
        if spec.name == name:
            return spec
    known = ", ".join(s.name for s in builtin_experiments())
    raise ConfigError(f"unknown experiment {name!r} (known: {known})", field="experiment")


def default_eta(algo) -> float:
    """The step size a run takes when none is given: DEFAULT_ETA_OMWU for
    OMWU, DEFAULT_ETA_EXTRA for the other rules."""
    return DEFAULT_ETA_OMWU if Algorithm(algo) is Algorithm.OMWU else DEFAULT_ETA_EXTRA


def default_init(m: int, n: int) -> JointState:
    """Uniform distribution nudged by +0.05 on the last coordinate and
    renormalized, so divergence hypotheses start with p > 0."""
    def perturbed(k):
        p = np.full(k, 1.0 / k)
        p[-1] += 0.05
        return p / p.sum()

    return JointState.from_probabilities(perturbed(m), perturbed(n))


@dataclass
class RunConfig:
    experiment: Optional[str] = None
    matrices: Optional[list] = None
    period: Optional[int] = None
    algo: Optional[str] = None
    eta: Optional[float] = None
    steps: Optional[int] = None
    record_every: Optional[int] = None
    init: Optional[list] = None       # [probs_x1, probs_x2]
    init_prev: Optional[list] = None  # [probs_x1, probs_x2] for x^{-1}
    seed: Optional[int] = None
    out_csv: Optional[str] = None
    out_svg: Optional[str] = None
    log_y: bool = False


# log_y comes from the command line only.
_CONFIG_FIELDS = {f.name for f in fields(RunConfig)} - {"log_y"}


def parse_config(path: str) -> RunConfig:
    """Parse and validate a JSON run configuration; unknown fields and
    schema violations (JSON true/false count as no number) are rejected
    with the offending field named."""
    import json   # here, not at the top: only simulate reads a JSON file
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(raw) - _CONFIG_FIELDS
    if unknown:
        raise ConfigError(f"unknown config field {sorted(unknown)[0]!r}",
                          field=sorted(unknown)[0])

    cfg = RunConfig(**raw)
    for name in ("matrices", "init", "init_prev"):
        if _holds_bool(getattr(cfg, name)):
            raise ConfigError(f"{name} must hold numbers, got JSON true/false", field=name)
    has_inline = cfg.matrices is not None
    if (cfg.experiment is None) == (not has_inline):
        raise ConfigError("exactly one of 'experiment' or 'matrices' is required",
                          field="experiment")
    if cfg.period is not None and (type(cfg.period) is not int or cfg.period < 1):
        raise ConfigError(f"period must be a positive integer, got {cfg.period!r}",
                          field="period")
    if has_inline:
        try:
            game = PeriodicGame(tuple(cfg.matrices))
        except (InputError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid matrices: {exc}", field="matrices") from exc
        if cfg.period is not None and cfg.period != game.period:
            raise ConfigError(
                f"period {cfg.period} does not match the {game.period} matrices",
                field="period")
    if cfg.algo is not None:
        try:
            Algorithm(cfg.algo)
        except ValueError as exc:
            raise ConfigError(f"algo must be one of mwu|omwu|extra, got {cfg.algo!r}",
                              field="algo") from exc
    if cfg.eta is not None and (type(cfg.eta) not in (int, float)
                                or not math.isfinite(cfg.eta) or cfg.eta <= 0):
        raise ConfigError(f"eta must be a positive finite number, got {cfg.eta!r}",
                          field="eta")
    if cfg.steps is not None and (type(cfg.steps) is not int or cfg.steps < 1):
        raise ConfigError(f"steps must be a positive integer, got {cfg.steps!r}",
                          field="steps")
    if cfg.record_every is not None and (type(cfg.record_every) is not int
                                         or cfg.record_every < 1):
        raise ConfigError("record_every must be a positive integer", field="record_every")
    if cfg.seed is not None and (type(cfg.seed) is not int or cfg.seed < 0):
        raise ConfigError("seed must be a nonnegative integer", field="seed")
    for name in ("init", "init_prev"):
        value = getattr(cfg, name)
        if value is None:
            continue
        try:
            _init_state(value)
        except (InputError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid {name}: {exc}", field=name) from exc
    return cfg


def _holds_bool(value) -> bool:
    # JSON true/false load as bool, a subclass of int, which numpy takes as 1/0.
    if isinstance(value, list):
        return any(_holds_bool(v) for v in value)
    return isinstance(value, bool)


def _init_state(pair) -> JointState:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise InputError("expected a pair [probs_x1, probs_x2]")
    return JointState.from_probabilities(pair[0], pair[1])


def resolve_game(cfg: RunConfig) -> PeriodicGame:
    """The game a config names: its builtin experiment's, or its matrices."""
    if cfg.experiment is not None:
        return experiment_by_name(cfg.experiment).game
    return PeriodicGame(tuple(cfg.matrices))


def run_experiment(cfg: RunConfig):
    """Resolve defaults, solve for a common equilibrium as the reference,
    run, and write any requested files.

    Returns (trajectory, equilibrium-or-None, {kind: path}).
    """
    # Here and at the writes, not at the top: verify names experiments but
    # neither solves nor writes, so it loads neither module.
    from .equilibrium import common_equilibrium
    game = resolve_game(cfg)
    algo = Algorithm(cfg.algo) if cfg.algo else DEFAULT_ALGO
    eta = float(cfg.eta) if cfg.eta is not None else default_eta(algo)
    steps = cfg.steps if cfg.steps is not None else DEFAULT_STEPS

    equilibrium = common_equilibrium(game)
    reference = equilibrium.joint if equilibrium is not None else None

    if cfg.init is not None:
        current = _init_state(cfg.init)
    elif cfg.seed is not None:
        rng = np.random.default_rng(cfg.seed)
        current = JointState.from_probabilities(
            rng.dirichlet(np.ones(game.m)), rng.dirichlet(np.ones(game.n)))
    else:
        current = default_init(game.m, game.n)
    previous = _init_state(cfg.init_prev) if cfg.init_prev is not None else current
    init = OmwuState(current, previous)

    if algo is Algorithm.EXTRA_MWU:
        bound = max_step_size(game)
        if eta >= bound:
            print(f"warning: eta {eta} is not below the step-size bound {bound:.6g}; "
                  "convergence is not guaranteed", file=sys.stderr)

    traj = run_trajectory(game, algo, init, eta, steps,
                          record_every=cfg.record_every, reference=reference)
    paths = {}
    if cfg.out_csv:
        from .output import emit_csv
        emit_csv(traj, cfg.out_csv)
        paths["csv"] = cfg.out_csv
    if cfg.out_svg:
        from .output import emit_svg_plot
        emit_svg_plot(_svg_series(traj, cfg.log_y), cfg.out_svg, log_y=cfg.log_y)
        paths["svg"] = cfg.out_svg
    return traj, equilibrium, paths


def _svg_series(traj: Trajectory, log_y: bool):
    """The series run_experiment plots: the KL under log_y when the run has a
    reference, else every strategy's probability.  Each probability column
    is copied and exponentiated in place, which gives the bits of
    ``traj.probabilities1/2`` without making either (R, m) block."""
    ts = traj.times
    if log_y and traj.reference is not None:
        return [("KL(eq, x^t)", np.column_stack([ts, traj.kl_to_ref]))]
    series = []
    for name, log_probs in (("x1", traj.log_probs1), ("x2", traj.log_probs2)):
        for i in range(log_probs.shape[1]):
            p = log_probs[:, i].copy()
            series.append((f"{name}_{i + 1}", np.column_stack([ts, np.exp(p, out=p)])))
    return series

"""Command-line surface.

Exit codes: 0 success / property passed, 1 usage or config error,
2 numerical failure, 3 property-check failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import _kernels
from .checks import (
    OrbitVerdict,
    boundary_fixed_point,
    check_bregman_identities,
    check_extra_kl_decrease,
    check_omwu_increments,
    check_omwu_ratio_identities,
    detect_periodic_orbit,
)
from .dynamics import (
    Algorithm,
    divergence_offset,
    max_step_size,
    omwu_eta_bound_for_divergence,
    omwu_reduced_composite,
    run_trajectory,
)
from .equilibrium import common_equilibrium
from .errors import ConfigError, InputError, NumericalError
from .experiments import (
    DEFAULT_ALGO,
    RunConfig,
    builtin_experiments,
    default_eta,
    default_init,
    experiment_by_name,
    parse_config,
    run_experiment,
)
from .linalg import (
    boundary_eigenvalue,
    char_poly_eval,
    eigenvalues_small,
    interior_eigenvalue_pair,
    jacobian_fd,
    unit_eigenvector,
)
from .output import emit_svg_plot, read_csv
from .simplex import JointState, Simplex

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_PROPERTY = 3

EQUILIBRIUM_4D = np.array([0.5, 0.5, 0.5, 0.5])


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        raise SystemExit(self._fail(message))

    @staticmethod
    def _fail(message):
        print(f"error: {message}", file=sys.stderr)
        return EXIT_USAGE


def _add_run_flags(sub):
    sub.add_argument("--algo", choices=[a.value for a in Algorithm])
    sub.add_argument("--eta", type=float)
    sub.add_argument("--steps", type=int)
    sub.add_argument("--record-every", type=int, dest="record_every")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--out-csv", dest="out_csv")
    sub.add_argument("--out-svg", dest="out_svg")
    sub.add_argument("--log-y", action="store_true", dest="log_y")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="periodicgame",
                     description="Learning dynamics in periodic zero-sum games")
    parser.add_argument("--backend-info", action="store_true",
                        help="print the active kernel backend, why it was chosen, and exit")
    sub = parser.add_subparsers(dest="command")

    sim = sub.add_parser("simulate", help="run from a JSON config")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out-csv", dest="out_csv")
    sim.add_argument("--out-svg", dest="out_svg")
    sim.add_argument("--log-y", action="store_true", dest="log_y")

    exp = sub.add_parser("experiment", help="run a builtin experiment")
    exp.add_argument("name", nargs="?", help="builtin name (see --list)")
    exp.add_argument("--list", action="store_true", help="list builtin experiments")
    exp.add_argument("--all", action="store_true", help="run every builtin experiment")
    exp.add_argument("--out-dir", dest="out_dir", help="CSV output directory for --all")
    _add_run_flags(exp)

    ana = sub.add_parser("analyze", help="Jacobians, eigenvalues, fixed-point curve")
    ana.add_argument("what", choices=["jacobian", "eigen", "fixed-curve"])
    ana.add_argument("--eta", type=float, default=0.1)
    ana.add_argument("--boundary-a", type=float, dest="boundary_a",
                     help="analyze the boundary fixed point at this curve parameter")
    ana.add_argument("--samples", type=int, default=20)

    ver = sub.add_parser("verify", help="run a property checker; exit 3 on failure")
    ver.add_argument("what", choices=["identities", "increments", "kl-monotone",
                                      "bregman", "orbit"])
    ver.add_argument("--experiment", default=None)
    ver.add_argument("--eta", type=float)
    ver.add_argument("--steps", type=int)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--cases", type=int, default=1000)
    ver.add_argument("--dim", type=int, default=3)
    ver.add_argument("--tol", type=float)
    ver.add_argument("--expect", choices=[v.value for v in OrbitVerdict],
                     default="converged_orbit")
    ver.add_argument("--algo", choices=[a.value for a in Algorithm])

    plot = sub.add_parser("plot", help="CSV -> SVG")
    plot.add_argument("--in-csv", required=True, dest="in_csv")
    plot.add_argument("--out-svg", required=True, dest="out_svg")
    plot.add_argument("--series", choices=["strategies", "kl"], default="strategies")
    plot.add_argument("--log-y", action="store_true", dest="log_y")
    return parser


def _cmd_simulate(args) -> int:
    cfg = parse_config(args.config)
    if args.out_csv:
        cfg.out_csv = args.out_csv
    if args.out_svg:
        cfg.out_svg = args.out_svg
    cfg.log_y = args.log_y
    traj, equilibrium, paths = run_experiment(cfg)
    _print_run_summary(traj, equilibrium, paths)
    return EXIT_OK


def _cmd_experiment(args) -> int:
    if args.list:
        for spec in builtin_experiments():
            game = spec.game
            print(f"{spec.name}: {game.m}x{game.n}, period {game.period}, "
                  f"default algo {DEFAULT_ALGO.value}, eta {default_eta(DEFAULT_ALGO)}")
        return EXIT_OK
    if args.all:
        for spec in builtin_experiments():
            out_csv = None
            if args.out_dir:
                out_csv = f"{args.out_dir.rstrip('/')}/{spec.name}.csv"
            cfg = RunConfig(experiment=spec.name, algo=args.algo, eta=args.eta,
                            steps=args.steps, record_every=args.record_every,
                            seed=args.seed, out_csv=out_csv, log_y=args.log_y)
            traj, equilibrium, paths = run_experiment(cfg)
            print(f"== {spec.name}")
            _print_run_summary(traj, equilibrium, paths)
        return EXIT_OK
    if not args.name:
        raise ConfigError("experiment name required (or --list / --all)")
    cfg = RunConfig(experiment=args.name, algo=args.algo, eta=args.eta,
                    steps=args.steps, record_every=args.record_every, seed=args.seed,
                    out_csv=args.out_csv, out_svg=args.out_svg, log_y=args.log_y)
    traj, equilibrium, paths = run_experiment(cfg)
    _print_run_summary(traj, equilibrium, paths)
    return EXIT_OK


def _print_run_summary(traj, equilibrium, paths):
    final = traj.final_state
    print(f"algo={traj.algo} eta={traj.eta} steps={int(traj.times[-1])} "
          f"period={traj.period}")
    if equilibrium is not None:
        print(f"common equilibrium: x*={_vec(equilibrium.x_star.probabilities)} "
              f"y*={_vec(equilibrium.y_star.probabilities)} value={equilibrium.value:.6g} "
              f"gap={equilibrium.gap:.3g}")
    else:
        print("common equilibrium: none")
    print(f"final x1={_vec(final.x1.probabilities)} x2={_vec(final.x2.probabilities)}")
    print(f"final kl_to_ref={traj.kl_to_ref[-1]:.6g} "
          f"min_component={traj.min_component[-1]:.6g}")
    for kind, path in paths.items():
        print(f"wrote {kind}: {path}")


def _vec(v) -> str:
    return "(" + ", ".join(f"{x:.6g}" for x in v) + ")"


def _composite(eta):
    return lambda z: omwu_reduced_composite(z, eta)


def _cmd_analyze(args) -> int:
    eta = args.eta
    if args.what == "fixed-curve":
        worst = 0.0
        print(f"boundary fixed-point curve at eta={eta}")
        for k in range(args.samples):
            a = (k + 1) / (args.samples + 1)
            z = boundary_fixed_point(a, eta)
            residual = float(np.abs(omwu_reduced_composite(z, eta) - z).max())
            worst = max(worst, residual)
            print(f"a={a:.6g} point=({z[2]:.12g}, {z[3]:.12g}) residual={residual:.3g}")
        print(f"max residual: {worst:.3g}")
        return EXIT_OK

    point = (boundary_fixed_point(args.boundary_a, eta)
             if args.boundary_a is not None else EQUILIBRIUM_4D)
    jac = jacobian_fd(_composite(eta), point)
    if args.what == "jacobian":
        label = (f"boundary a={args.boundary_a}" if args.boundary_a is not None
                 else "interior equilibrium")
        print(f"jacobian of the composed reduced map at {label}, eta={eta}")
        for row in jac:
            print("  [" + ", ".join(f"{v: .12g}" for v in row) + "]")
        return EXIT_OK

    eigs = eigenvalues_small(jac)
    print("eigenvalues (modulus descending):")
    for z in eigs:
        print(f"  {z.real:+.12g}{z.imag:+.12g}j  |.|={abs(z):.12g}")
    if args.boundary_a is not None:
        lam = boundary_eigenvalue(args.boundary_a, eta)
        print(f"analytic nontrivial eigenvalue: {lam:.12g}")
        vec = unit_eigenvector(jac)
        print(f"central eigenvector: {_vec(vec)}")
    else:
        lo, hi = interior_eigenvalue_pair(eta)
        for lam in (lo, hi):
            res = abs(char_poly_eval(jac, lam))
            print(f"analytic eigenvalue {lam:.12g}: char-poly residual {res:.3g}")
    return EXIT_OK


def _report_exit(report) -> int:
    print(report.summary())
    for key, value in sorted(report.stats.items()):
        print(f"  {key}: {value}")
    for v in report.violations[:10]:
        print(f"  violation at t={v.t}: lhs={v.lhs!r} rhs={v.rhs!r} slack={v.slack!r}")
    return EXIT_OK if report.passed else EXIT_PROPERTY


def _cmd_verify(args) -> int:
    # --tol replaces the checker's own default only when given.
    tol = {} if args.tol is None else {"tol": args.tol}
    if args.what == "identities":
        spec = experiment_by_name(args.experiment or "game2x2")
        eta = args.eta if args.eta is not None else 1e-3
        steps = args.steps if args.steps is not None else 1000
        init = default_init(spec.game.m, spec.game.n)
        traj = run_trajectory(spec.game, Algorithm.OMWU, init, eta, steps,
                              record_every=1)
        return _report_exit(check_omwu_ratio_identities(traj, eta, **tol))
    if args.what == "increments":
        spec = experiment_by_name(args.experiment or "game2x2")
        init = JointState.from_probabilities([0.45, 0.55], [0.45, 0.55])
        p = divergence_offset(init)
        eta = args.eta if args.eta is not None else omwu_eta_bound_for_divergence(init)
        steps = args.steps if args.steps is not None else 2000
        traj = run_trajectory(spec.game, Algorithm.OMWU, init, eta, steps,
                              record_every=1)
        return _report_exit(check_omwu_increments(traj, p, eta))
    if args.what == "kl-monotone":
        spec = experiment_by_name(args.experiment or "game2x2")
        eq = common_equilibrium(spec.game)
        if eq is None:
            raise NumericalError(f"{spec.name} has no common equilibrium")
        eta = args.eta if args.eta is not None else 0.5 * max_step_size(spec.game)
        steps = args.steps if args.steps is not None else 10_000
        traj = run_trajectory(spec.game, Algorithm.EXTRA_MWU,
                              default_init(spec.game.m, spec.game.n), eta, steps,
                              record_every=1, reference=eq.joint)
        return _report_exit(check_extra_kl_decrease(traj, eq.joint, **tol))
    if args.what == "bregman":
        rng = np.random.default_rng(args.seed)
        worst = 0.0
        for _ in range(args.cases):
            p, x, xp = (Simplex.from_probabilities(rng.dirichlet(np.ones(args.dim)))
                        for _ in range(3))
            y = rng.normal(size=args.dim)
            report = check_bregman_identities(p, x, xp, y, **tol)
            worst = max(worst, max(report.stats["residuals"]))
            if not report.passed:
                print(f"bregman-identities: FAILED (worst residual {worst:.3g})")
                return EXIT_PROPERTY
        print(f"bregman-identities: passed over {args.cases} cases "
              f"(worst residual {worst:.3g})")
        return EXIT_OK
    # orbit
    spec = experiment_by_name(args.experiment or "nocommon3")
    algo = Algorithm(args.algo) if args.algo else Algorithm.EXTRA_MWU
    eta = args.eta if args.eta is not None else default_eta(algo)
    steps = args.steps if args.steps is not None else 30_000
    traj = run_trajectory(spec.game, algo, default_init(spec.game.m, spec.game.n),
                          eta, steps, record_every=1)
    verdict = detect_periodic_orbit(traj)
    print(f"orbit verdict: {verdict.value} (expected {args.expect})")
    return EXIT_OK if verdict.value == args.expect else EXIT_PROPERTY


def _cmd_plot(args) -> int:
    data = read_csv(args.in_csv)
    ts = data["t"]
    if args.series == "kl":
        series = [("kl_to_ref", np.column_stack([ts, data["kl_to_ref"]]))]
    else:
        series = []
        for name in ("x1", "x2"):
            block = data[name]
            for i in range(block.shape[1]):
                series.append((f"{name}_{i + 1}", np.column_stack([ts, block[:, i]])))
    emit_svg_plot(series, args.out_svg, log_y=args.log_y)
    print(f"wrote svg: {args.out_svg}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.backend_info:
        print(f"kernel backend: {_kernels.backend_name()}")
        print(_kernels.backend_reason())
        return EXIT_OK
    if not args.command:
        parser.print_help()
        return EXIT_USAGE
    handlers = {
        "simulate": _cmd_simulate,
        "experiment": _cmd_experiment,
        "analyze": _cmd_analyze,
        "verify": _cmd_verify,
        "plot": _cmd_plot,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

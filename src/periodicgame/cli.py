"""Command-line surface.

Exit codes: 0 success / property passed, 1 usage or config error,
2 numerical failure, 3 property-check failure.

``main(argv)`` runs one command and returns its exit code.  ``run()`` is
the process entry (``python -m periodicgame.cli`` and the ``periodicgame``
script): it flushes stdout and stderr after ``main()`` and ends the process
with ``os._exit``, skipping the interpreter's teardown of numpy and every
module; after a failed flush or under a tracer or profiler it exits
through ``sys.exit`` as any script does.

Each command imports the modules it runs, numpy among them, inside its
handler, so a process loads only those: ``plot`` the emitters,
``--backend-info`` the C library and no numpy.  ``--help``, a usage error
and a config error that the arguments alone decide load no numpy either:
each handler makes those checks before its imports.
Each check of ``verify`` and ``analyze`` is its own subcommand that declares
only the flags it reads, with their defaults unless worked out from its
inputs, and names its handler; any other flag is a usage error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import ConfigError, InputError, NumericalError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_PROPERTY = 3

# The values of dynamics.Algorithm and checks.OrbitVerdict, written out so
# that building the parser imports neither module.
ALGORITHMS = ("mwu", "omwu", "extra")
ORBIT_VERDICTS = ("converged_point", "converged_orbit", "diverging_boundary", "inconclusive")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"error: {message}\n")


def _checks(sub, name, about):
    """Add the command ``name``; return a function that adds one of its checks."""
    checks = sub.add_parser(name, help=about).add_subparsers(dest="what", required=True)

    def add(check, handler, about):
        parser = checks.add_parser(check, help=about)
        parser.set_defaults(handler=handler)
        return parser
    return add


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="periodicgame",
                     description="Learning dynamics in periodic zero-sum games")
    parser.add_argument("--backend-info", action="store_true",
                        help="print the active kernel backend, why it was chosen, and exit")
    sub = parser.add_subparsers(dest="command")

    sim = sub.add_parser("simulate", help="run from a JSON config")
    sim.set_defaults(handler=_cmd_simulate)
    sim.add_argument("--config", required=True)
    sim.add_argument("--out-csv", dest="out_csv")
    sim.add_argument("--out-svg", dest="out_svg")
    sim.add_argument("--log-y", action="store_true", dest="log_y")

    exp = sub.add_parser("experiment", help="run a builtin experiment")
    exp.set_defaults(handler=_cmd_experiment)
    exp.add_argument("name", nargs="?", help="builtin name (see --list)")
    exp.add_argument("--list", action="store_true", help="list builtin experiments")
    exp.add_argument("--all", action="store_true", help="run every builtin experiment")
    exp.add_argument("--out-dir", dest="out_dir", help="CSV output directory for --all")
    exp.add_argument("--algo", choices=ALGORITHMS)
    exp.add_argument("--eta", type=float)
    exp.add_argument("--steps", type=int)
    exp.add_argument("--record-every", type=int, dest="record_every")
    exp.add_argument("--seed", type=int)
    exp.add_argument("--out-csv", dest="out_csv")
    exp.add_argument("--out-svg", dest="out_svg")
    exp.add_argument("--log-y", action="store_true", dest="log_y")

    analyze = _checks(sub, "analyze", "Jacobians, eigenvalues, fixed-point curve")
    for name, handler, about in (
            ("jacobian", _analyze_jacobian, "the composed reduced map's Jacobian"),
            ("eigen", _analyze_eigen, "its eigenvalues against the analytic ones")):
        point = analyze(name, handler, about)
        point.add_argument("--eta", type=float, default=0.1)
        point.add_argument("--boundary-a", type=float, dest="boundary_a",
                           help="analyze the boundary fixed point at this curve parameter")
    curve = analyze("fixed-curve", _analyze_fixed_curve, "the boundary fixed-point curve")
    curve.add_argument("--eta", type=float, default=0.1)
    curve.add_argument("--samples", type=int, default=20)

    verify = _checks(sub, "verify", "run a property checker; exit 3 on failure")
    ident = verify("identities", _verify_identities, "OMWU's ratio identities on game2x2")
    ident.add_argument("--eta", type=float, default=1e-3)
    ident.add_argument("--steps", type=int, default=1000)
    ident.add_argument("--tol", type=float)
    incr = verify("increments", _verify_increments, "OMWU's increment bounds on game2x2")
    incr.add_argument("--eta", type=float,
                      help="default: the divergence hypothesis' bound at the start")
    incr.add_argument("--steps", type=int, default=2000)
    kl = verify("kl-monotone", _verify_kl_monotone, "Extra-MWU's per-step KL decrease")
    kl.add_argument("--experiment", default="game2x2")
    kl.add_argument("--eta", type=float, help="default: half the game's max_step_size")
    kl.add_argument("--steps", type=int, default=10_000)
    kl.add_argument("--tol", type=float)
    breg = verify("bregman", _verify_bregman, "the Bregman identities at random points")
    breg.add_argument("--seed", type=int, default=0)
    breg.add_argument("--cases", type=int, default=1000)
    breg.add_argument("--dim", type=int, default=3)
    breg.add_argument("--tol", type=float)
    orbit = verify("orbit", _verify_orbit, "the verdict on a run's last ten periods")
    orbit.add_argument("--experiment", default="nocommon3")
    orbit.add_argument("--algo", choices=ALGORITHMS, default="extra")
    orbit.add_argument("--eta", type=float, help="default: an experiment run's eta for --algo")
    orbit.add_argument("--steps", type=int, default=30_000)
    orbit.add_argument("--expect", choices=ORBIT_VERDICTS, default="converged_orbit")

    plot = sub.add_parser("plot", help="CSV -> SVG")
    plot.set_defaults(handler=_cmd_plot)
    plot.add_argument("--in-csv", required=True, dest="in_csv")
    plot.add_argument("--out-svg", required=True, dest="out_svg")
    plot.add_argument("--series", choices=["strategies", "kl"], default="strategies")
    plot.add_argument("--log-y", action="store_true", dest="log_y")
    return parser


def _require_at_least(flag, value, low):
    if value is not None and value < low:
        raise ConfigError(f"{flag} must be at least {low}, got {value}")


def _require_distinct(*files):
    """A ConfigError when two of ``files``, (flag, path or None) pairs, name
    one file, which a later write would replace: the same inode (so a hard
    link too), or for a path not yet created the same ``os.path.realpath``."""
    seen = {}
    for flag, path in files:
        if path:
            try:
                info = os.stat(path)
                key = info.st_dev, info.st_ino
            except OSError:
                key = os.path.realpath(path)
            first = seen.setdefault(key, flag)
            if first != flag:
                raise ConfigError(f"{flag} names the same file as {first}: {path}")


def _cmd_simulate(args) -> int:
    from .experiments import parse_config, run_experiment
    cfg = parse_config(args.config)
    cfg.out_csv = args.out_csv or cfg.out_csv
    cfg.out_svg = args.out_svg or cfg.out_svg
    _require_distinct(("--config", args.config), ("--out-csv", cfg.out_csv),
                      ("--out-svg", cfg.out_svg))
    if args.log_y and not cfg.out_svg:
        raise ConfigError("--log-y sets the y axis of the SVG; give --out-svg or out_svg")
    cfg.log_y = args.log_y
    traj, equilibrium, paths = run_experiment(cfg)
    _print_run_summary(traj, equilibrium, paths)
    return EXIT_OK


def _cmd_experiment(args) -> int:
    if args.list:
        given = {dest for dest, value in vars(args).items()
                 if value is not None and value is not False}
        if given != {"command", "handler", "list"}:
            raise ConfigError("--list lists the builtin experiments; it runs none, "
                              "so it takes no other argument")
        from .experiments import DEFAULT_ALGO, builtin_experiments, default_eta
        for spec in builtin_experiments():
            game = spec.game
            print(f"{spec.name}: {game.m}x{game.n}, period {game.period}, "
                  f"default algo {DEFAULT_ALGO.value}, eta {default_eta(DEFAULT_ALGO)}")
        return EXIT_OK
    # numpy's generators take no negative seed.
    _require_at_least("--seed", args.seed, 0)
    if args.all and (args.out_csv or args.out_svg):
        raise ConfigError("--out-csv and --out-svg name one run's files; "
                          "use --out-dir with --all")
    if args.out_dir and not args.all:
        raise ConfigError("--out-dir applies only to --all; use --out-csv for one run")
    if args.log_y and not args.out_svg:
        raise ConfigError("--log-y sets the y axis of the SVG; give --out-svg")
    if not (args.all or args.name):
        raise ConfigError("experiment name required (or --list / --all)")
    if args.all and args.name:
        raise ConfigError("--all runs every builtin experiment; give no name with it")
    _require_distinct(("--out-csv", args.out_csv), ("--out-svg", args.out_svg))
    from .experiments import RunConfig, builtin_experiments, run_experiment
    names = [spec.name for spec in builtin_experiments()] if args.all else [args.name]
    for name in names:
        out_csv = f"{args.out_dir.rstrip('/')}/{name}.csv" if args.out_dir else args.out_csv
        cfg = RunConfig(experiment=name, algo=args.algo, eta=args.eta, steps=args.steps,
                        record_every=args.record_every, seed=args.seed, out_csv=out_csv,
                        out_svg=args.out_svg, log_y=args.log_y)
        traj, equilibrium, paths = run_experiment(cfg)
        if args.all:
            print(f"== {name}")
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


def _analyze_fixed_curve(args) -> int:
    _require_at_least("--samples", args.samples, 1)
    from .checks import boundary_fixed_point
    from .dynamics import omwu_reduced_composite, require_step_size
    require_step_size(args.eta)   # before the header line is printed
    worst = 0.0
    print(f"boundary fixed-point curve at eta={args.eta}")
    for k in range(args.samples):
        a = (k + 1) / (args.samples + 1)
        z = boundary_fixed_point(a, args.eta)
        residual = float(abs(omwu_reduced_composite(z, args.eta) - z).max())
        worst = max(worst, residual)
        print(f"a={a:.6g} point=({z[2]:.12g}, {z[3]:.12g}) residual={residual:.3g}")
    print(f"max residual: {worst:.3g}")
    return EXIT_OK


def _reduced_jacobian(args):
    """The composed reduced map's Jacobian at the interior equilibrium, or at
    the boundary fixed point of ``--boundary-a``."""
    from .dynamics import omwu_reduced_composite
    from .linalg import jacobian_fd
    point = (0.5, 0.5, 0.5, 0.5)
    if args.boundary_a is not None:
        from .checks import boundary_fixed_point
        point = boundary_fixed_point(args.boundary_a, args.eta)
    return jacobian_fd(lambda z: omwu_reduced_composite(z, args.eta), point)


def _analyze_jacobian(args) -> int:
    jac = _reduced_jacobian(args)
    label = (f"boundary a={args.boundary_a}" if args.boundary_a is not None
             else "interior equilibrium")
    print(f"jacobian of the composed reduced map at {label}, eta={args.eta}")
    for row in jac:
        print("  [" + ", ".join(f"{v: .12g}" for v in row) + "]")
    return EXIT_OK


def _analyze_eigen(args) -> int:
    from .linalg import (boundary_eigenvalue, char_poly_eval, eigenvalues_small,
                         interior_eigenvalue_pair, unit_eigenvector)
    jac = _reduced_jacobian(args)
    print("eigenvalues (modulus descending):")
    for z in eigenvalues_small(jac):
        print(f"  {z.real:+.12g}{z.imag:+.12g}j  |.|={abs(z):.12g}")
    if args.boundary_a is not None:
        lam = boundary_eigenvalue(args.boundary_a, args.eta)
        print(f"analytic nontrivial eigenvalue: {lam:.12g}")
        print(f"central eigenvector: {_vec(unit_eigenvector(jac))}")
    else:
        for lam in interior_eigenvalue_pair(args.eta):
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


def _tol(args) -> dict:
    # --tol replaces the checker's own default only when given.
    return {} if args.tol is None else {"tol": args.tol}


def _verify_identities(args) -> int:
    from .checks import check_omwu_ratio_identities
    from .dynamics import Algorithm, run_trajectory
    from .experiments import default_init, experiment_by_name
    game = experiment_by_name("game2x2").game
    traj = run_trajectory(game, Algorithm.OMWU, default_init(game.m, game.n), args.eta,
                          args.steps, record_every=1)
    return _report_exit(check_omwu_ratio_identities(traj, args.eta, **_tol(args)))


def _verify_increments(args) -> int:
    from .checks import check_omwu_increments
    from .dynamics import (Algorithm, divergence_offset, omwu_eta_bound_for_divergence,
                           run_trajectory)
    from .experiments import experiment_by_name
    from .simplex import JointState
    init = JointState.from_probabilities([0.45, 0.55], [0.45, 0.55])
    eta = args.eta if args.eta is not None else omwu_eta_bound_for_divergence(init)
    traj = run_trajectory(experiment_by_name("game2x2").game, Algorithm.OMWU, init, eta,
                          args.steps, record_every=1)
    return _report_exit(check_omwu_increments(traj, divergence_offset(init), eta))


def _verify_kl_monotone(args) -> int:
    from .checks import check_extra_kl_decrease
    from .dynamics import Algorithm, max_step_size, run_trajectory
    from .equilibrium import common_equilibrium
    from .experiments import default_init, experiment_by_name
    spec = experiment_by_name(args.experiment)
    eq = common_equilibrium(spec.game)
    if eq is None:
        raise NumericalError(f"{spec.name} has no common equilibrium")
    eta = args.eta if args.eta is not None else 0.5 * max_step_size(spec.game)
    traj = run_trajectory(spec.game, Algorithm.EXTRA_MWU,
                          default_init(spec.game.m, spec.game.n), eta, args.steps,
                          record_every=1, reference=eq.joint)
    return _report_exit(check_extra_kl_decrease(traj, eq.joint, **_tol(args)))


def _verify_bregman(args) -> int:
    _require_at_least("--cases", args.cases, 1)
    _require_at_least("--dim", args.dim, 2)
    _require_at_least("--seed", args.seed, 0)
    import numpy as np

    from .checks import check_bregman_identities
    from .simplex import Simplex
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(args.cases):
        p, x, xp = (Simplex.from_probabilities(rng.dirichlet(np.ones(args.dim)))
                    for _ in range(3))
        y = rng.normal(size=args.dim)
        report = check_bregman_identities(p, x, xp, y, **_tol(args))
        worst = max(worst, max(report.stats["residuals"]))
        if not report.passed:
            print(f"bregman-identities: FAILED (worst residual {worst:.3g})")
            return EXIT_PROPERTY
    print(f"bregman-identities: passed over {args.cases} cases "
          f"(worst residual {worst:.3g})")
    return EXIT_OK


def _verify_orbit(args) -> int:
    from .checks import detect_periodic_orbit
    from .dynamics import run_trajectory
    from .experiments import default_eta, default_init, experiment_by_name
    game = experiment_by_name(args.experiment).game
    eta = args.eta if args.eta is not None else default_eta(args.algo)
    traj = run_trajectory(game, args.algo, default_init(game.m, game.n), eta, args.steps,
                          record_every=1)
    verdict = detect_periodic_orbit(traj)
    print(f"orbit verdict: {verdict.value} (expected {args.expect})")
    return EXIT_OK if verdict.value == args.expect else EXIT_PROPERTY


def _cmd_plot(args) -> int:
    _require_distinct(("--in-csv", args.in_csv), ("--out-svg", args.out_svg))
    import numpy as np

    from .output import emit_svg_plot, read_csv
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
        from . import _kernels
        print(f"kernel backend: {_kernels.backend_name()}")
        print(_kernels.backend_reason())
        return EXIT_OK
    if not args.command:
        parser.print_help()
        return EXIT_USAGE
    try:
        return args.handler(args)
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


def run() -> None:
    """Exit the process with ``main()``'s code, without interpreter teardown
    when nothing is left to do at exit."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:   # a closed pipe, a full disk, no stream: the normal exit handles it
        sys.exit(code)
    # A tracer or profiler (coverage, cProfile, a debugger) may still have
    # work to do at exit; coverage may watch through sys.monitoring (3.12+).
    monitoring = getattr(sys, "monitoring", None)
    if (sys.gettrace() is not None or sys.getprofile() is not None
            or (monitoring is not None and any(map(monitoring.get_tool, range(6))))):
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()

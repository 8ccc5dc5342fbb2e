import argparse
import json
import os
import pathlib
import subprocess
import sys
import types
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import periodicgame as pg
from periodicgame import cli
from periodicgame.cli import main, run

from conftest import clean_env

DATA = pathlib.Path(__file__).parent / "data"
GOOD_CSV = ("t,phase,x1_1,x1_2,x2_1,x2_2,kl_to_ref,min_component\n"
            "0,0,0.5,0.5,0.5,0.5,0,0.5\n"
            "1,1,0.5,0.5,0.5,0.5,0,0.5\n")


class TestBuiltinRegistry:
    def test_exactly_four(self):
        names = [s.name for s in pg.builtin_experiments()]
        assert names == ["game2x2", "exp1", "exp2", "nocommon3"]

    def test_matrices_match_fixture_exactly(self):
        fixture = json.loads((DATA / "builtin_games.json").read_text())
        for spec in pg.builtin_experiments():
            expect = fixture[spec.name]
            assert spec.game.period == expect["period"]
            for got, want in zip(spec.game.matrices, expect["matrices"]):
                assert np.array_equal(got.entries, np.asarray(want, dtype=float))

    def test_spot_values(self):
        reg = {s.name: s for s in pg.builtin_experiments()}
        assert np.array_equal(reg["game2x2"].game.matrices[1].entries,
                              [[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(reg["exp2"].game.matrices[0].entries,
                              [[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])
        assert reg["nocommon3"].game.period == 3

    def test_unknown_name(self):
        with pytest.raises(pg.ConfigError):
            pg.experiment_by_name("exp9")


class TestParseConfig:
    def write(self, tmp_path, payload):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_minimal_valid(self, tmp_path):
        cfg = pg.parse_config(self.write(tmp_path, {
            "experiment": "game2x2", "algo": "extra", "eta": 0.1, "steps": 10000}))
        assert cfg.experiment == "game2x2"
        assert cfg.algo == "extra"

    def test_negative_eta_names_field(self, tmp_path):
        with pytest.raises(pg.ConfigError) as err:
            pg.parse_config(self.write(tmp_path, {"experiment": "game2x2", "eta": -0.5}))
        assert err.value.field == "eta"

    @pytest.mark.parametrize("eta", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_eta_names_field(self, tmp_path, eta):
        # json.dumps cannot write these, but json.load accepts them.
        path = tmp_path / "cfg.json"
        path.write_text(f'{{"experiment": "game2x2", "eta": {eta}}}')
        with pytest.raises(pg.ConfigError, match="positive finite") as err:
            pg.parse_config(str(path))
        assert err.value.field == "eta"
        assert main(["simulate", "--config", str(path)]) == 1

    @pytest.mark.parametrize("field", ["eta", "steps", "record_every", "seed", "period"])
    @pytest.mark.parametrize("value", [True, False])
    def test_boolean_number_names_field(self, tmp_path, field, value):
        # JSON true/false load as bool, a subclass of int.
        path = self.write(tmp_path, {"experiment": "game2x2", field: value})
        with pytest.raises(pg.ConfigError) as err:
            pg.parse_config(path)
        assert err.value.field == field
        assert main(["simulate", "--config", path]) == 1

    @pytest.mark.parametrize("field, value", [
        ("init", [[True, False], [0.5, 0.5]]),
        ("init_prev", [[0.5, 0.5], [False, True]]),
        ("matrices", [[[True, False], [False, True]]]),
    ])
    def test_boolean_in_nested_list_names_field(self, tmp_path, field, value):
        source = {} if field == "matrices" else {"experiment": "game2x2"}
        path = self.write(tmp_path, {**source, field: value})
        with pytest.raises(pg.ConfigError) as err:
            pg.parse_config(path)
        assert err.value.field == field
        assert main(["simulate", "--config", path]) == 1

    def test_unknown_field_named(self, tmp_path):
        with pytest.raises(pg.ConfigError) as err:
            pg.parse_config(self.write(tmp_path, {"experiment": "game2x2", "speed": 9}))
        assert err.value.field == "speed"

    def test_requires_exactly_one_source(self, tmp_path):
        with pytest.raises(pg.ConfigError):
            pg.parse_config(self.write(tmp_path, {"algo": "mwu"}))
        with pytest.raises(pg.ConfigError):
            pg.parse_config(self.write(tmp_path, {
                "experiment": "game2x2", "matrices": [[[0, 1], [1, 0]]]}))

    def test_bad_init_named(self, tmp_path):
        with pytest.raises(pg.ConfigError) as err:
            pg.parse_config(self.write(tmp_path, {
                "experiment": "game2x2", "init": [[0.7, 0.7], [0.5, 0.5]]}))
        assert err.value.field == "init"

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(pg.ConfigError):
            pg.parse_config(str(path))

    def test_inline_matrices_equal_builtin(self, tmp_path):
        cfg = pg.parse_config(self.write(tmp_path, {
            "matrices": [[[0, -1], [-1, 0]], [[0, 1], [1, 0]]], "period": 2}))
        game = pg.experiments.resolve_game(cfg)
        builtin = pg.experiment_by_name("game2x2").game
        assert game.period == builtin.period
        for a, b in zip(game.matrices, builtin.matrices):
            assert np.array_equal(a.entries, b.entries)


# The flags of each check of verify and analyze.
CHECK_FLAGS = {
    ("verify", "identities"): {"--eta", "--steps", "--tol"},
    ("verify", "increments"): {"--eta", "--steps"},
    ("verify", "kl-monotone"): {"--experiment", "--eta", "--steps", "--tol"},
    ("verify", "bregman"): {"--seed", "--cases", "--dim", "--tol"},
    ("verify", "orbit"): {"--experiment", "--algo", "--eta", "--steps", "--expect"},
    ("analyze", "jacobian"): {"--eta", "--boundary-a"},
    ("analyze", "eigen"): {"--eta", "--boundary-a"},
    ("analyze", "fixed-curve"): {"--eta", "--samples"},
}


class TestCliCommands:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out.lower()

    def test_backend_info(self, capsys):
        assert main(["--backend-info"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"kernel backend: {pg.backend_name()}", pg.backend_reason()]

    def test_experiment_list(self, capsys):
        assert main(["experiment", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("game2x2", "exp1", "exp2", "nocommon3"):
            assert name in out

    def test_experiment_run_writes_files(self, tmp_path, capsys):
        csv = tmp_path / "out.csv"
        svg = tmp_path / "out.svg"
        code = main(["experiment", "game2x2", "--steps", "200",
                     "--out-csv", str(csv), "--out-svg", str(svg)])
        assert code == 0
        assert csv.exists() and svg.exists()
        out = capsys.readouterr().out
        assert "common equilibrium" in out

    def test_simulate_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "experiment": "game2x2", "algo": "extra", "eta": 0.2,
            "steps": 100, "out_csv": str(tmp_path / "sim.csv")}))
        assert main(["simulate", "--config", str(cfg)]) == 0
        assert (tmp_path / "sim.csv").exists()

    def test_bad_config_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "nope"}))
        assert main(["simulate", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("argv", [
        ["experiment", "game2x2", "--eta", "nan", "--steps", "10"],
        ["experiment", "game2x2", "--eta", "inf", "--steps", "10"],
        ["analyze", "fixed-curve", "--eta", "nan"],
        ["analyze", "eigen", "--eta", "nan"],
        ["verify", "identities", "--eta", "nan", "--steps", "10"],
    ])
    def test_non_finite_eta_exit_code(self, argv, capsys):
        assert main(argv) == 1
        assert "eta must be a positive finite number" in capsys.readouterr().err

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["experiment", "game2x2", "--algo", "bogus"])
        assert info.value.code == 1

    def test_analyze_commands(self, capsys):
        assert main(["analyze", "jacobian", "--eta", "0.1"]) == 0
        assert main(["analyze", "jacobian", "--eta", "0.1", "--boundary-a", "0.5"]) == 0
        assert main(["analyze", "eigen", "--eta", "0.1"]) == 0
        assert main(["analyze", "eigen", "--eta", "0.1", "--boundary-a", "0.3"]) == 0
        assert main(["analyze", "fixed-curve", "--eta", "0.05", "--samples", "5"]) == 0
        out = capsys.readouterr().out
        assert "residual" in out
        assert "central eigenvector" in out

    def test_verify_identities_passes(self, capsys):
        assert main(["verify", "identities", "--steps", "200"]) == 0

    def test_verify_increments_passes(self, capsys):
        assert main(["verify", "increments", "--steps", "500"]) == 0

    def test_verify_kl_monotone_passes(self, capsys):
        assert main(["verify", "kl-monotone", "--steps", "2000"]) == 0

    def test_verify_bregman_passes(self, capsys):
        assert main(["verify", "bregman", "--cases", "50"]) == 0

    def test_verify_zero_tol_is_honoured(self, capsys):
        # tol = 0 leaves no room for rounding: the identities fail.
        assert main(["verify", "identities", "--steps", "200", "--tol", "0"]) == 3
        assert "FAILED" in capsys.readouterr().out

    @pytest.mark.parametrize("what", ["identities", "kl-monotone", "bregman"])
    @pytest.mark.parametrize("tol", ["-1e-10", "nan", "inf"])
    def test_verify_bad_tol_exit_code(self, what, tol, capsys):
        size = ["--cases", "2"] if what == "bregman" else ["--steps", "20"]
        argv = ["verify", what, *size, f"--tol={tol}"]
        assert main(argv) == 1
        assert "tol must be a nonnegative finite number" in capsys.readouterr().err

    def test_verify_orbit_mismatch_is_property_failure(self, capsys):
        code = main(["verify", "orbit", "--steps", "1000",
                     "--expect", "converged_point"])
        assert code == 3

    def test_verify_kl_monotone_without_common_eq_is_numerical(self, capsys):
        code = main(["verify", "kl-monotone", "--experiment", "nocommon3",
                     "--steps", "100"])
        assert code == 2

    def test_plot_roundtrip(self, tmp_path, capsys):
        csv = tmp_path / "run.csv"
        main(["experiment", "game2x2", "--steps", "100", "--out-csv", str(csv)])
        svg = tmp_path / "run.svg"
        assert main(["plot", "--in-csv", str(csv), "--out-svg", str(svg)]) == 0
        assert svg.exists()
        svg2 = tmp_path / "kl.svg"
        assert main(["plot", "--in-csv", str(csv), "--out-svg", str(svg2),
                     "--series", "kl", "--log-y"]) == 0

    @pytest.mark.parametrize("body", [
        pytest.param(GOOD_CSV.replace("1,1,0.5", "1,1,abc"), id="non-numeric-cell"),
        pytest.param(GOOD_CSV.replace("1,1,0.5", "1.7,1,0.5"), id="non-integer-time"),
        pytest.param(GOOD_CSV.replace("0,0.5\n", "0\n", 1), id="ragged-row"),
        pytest.param(GOOD_CSV.replace("0,0.5\n", "0\n"), id="rows-shorter-than-header"),
        pytest.param(GOOD_CSV.replace("t,", "time,", 1), id="no-t-column"),
        pytest.param(GOOD_CSV.replace("kl_to_ref", "kl"), id="no-kl-column"),
        pytest.param(GOOD_CSV.encode("utf-16"), id="not-utf8"),
        pytest.param(GOOD_CSV.replace("x1_2", "x1_1", 1), id="repeated-column"),
    ])
    def test_plot_bad_csv_is_input_error(self, tmp_path, capsys, body):
        csv = tmp_path / "bad.csv"
        csv.write_bytes(body if isinstance(body, bytes) else body.encode())
        code = main(["plot", "--in-csv", str(csv), "--out-svg", str(tmp_path / "bad.svg")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"input error: {csv}")
        assert "Traceback" not in err
        assert not (tmp_path / "bad.svg").exists()

    def test_experiment_seed_draws_init(self, tmp_path, capsys):
        def exp1_csv(tag, *flags):
            out = tmp_path / tag
            out.mkdir()
            main(["experiment", "exp1", "--steps", "50", "--out-csv", str(out / "exp1.csv"),
                  *flags])
            all_dir = out / "all"
            all_dir.mkdir()
            main(["experiment", "--all", "--steps", "50", "--out-dir", str(all_dir), *flags])
            return (out / "exp1.csv").read_bytes(), (all_dir / "exp1.csv").read_bytes()

        seed1, seed1_again, seed2 = (exp1_csv("a", "--seed", "1"), exp1_csv("b", "--seed", "1"),
                                     exp1_csv("c", "--seed", "2"))
        assert seed1 == seed1_again
        assert seed1[0] != seed2[0] and seed1[1] != seed2[1]
        assert seed1[0] != exp1_csv("d")[0]

    def test_experiment_all(self, tmp_path, capsys):
        code = main(["experiment", "--all", "--steps", "50",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        for name in ("game2x2", "exp1", "exp2", "nocommon3"):
            assert (tmp_path / f"{name}.csv").exists()

    # Each flag would otherwise be ignored: --all writes only to --out-dir,
    # and one run only to --out-csv and --out-svg.
    @pytest.mark.parametrize("flags", [
        ["--all", "--out-csv", "{d}/x.csv"],
        ["--all", "--out-svg", "{d}/x.svg"],
        ["exp1", "--out-dir", "{d}/o"],
    ])
    def test_experiment_output_flag_that_would_be_ignored(self, tmp_path, capsys, flags):
        flags = [f.format(d=tmp_path) for f in flags]
        assert main(["experiment", "--steps", "10", *flags]) == 1
        assert capsys.readouterr().err.startswith("config error: ")
        assert not list(tmp_path.iterdir())

    # A flag that the command would ignore is refused: --list runs nothing,
    # --log-y sets the axis of an SVG that is not written, and --all runs
    # every builtin whatever name is given.
    @pytest.mark.parametrize("argv", [
        ["experiment", "--list", "--all"],
        ["experiment", "--list", "exp1"],
        *(["experiment", "--list", *flag] for flag in (
            ["--algo", "mwu"], ["--eta", "0.1"], ["--steps", "10"], ["--record-every", "2"],
            ["--seed", "0"], ["--out-csv", "{d}/x.csv"], ["--out-svg", "{d}/x.svg"],
            ["--log-y"], ["--out-dir", "{d}/o"])),
        ["experiment", "exp1", "--steps", "10", "--log-y"],
        ["experiment", "exp1", "--steps", "10", "--out-csv", "{d}/x.csv", "--log-y"],
        ["experiment", "--all", "--steps", "10", "--log-y"],
        ["simulate", "--config", "{d}/cfg.json", "--log-y"],
        ["experiment", "exp1", "--all", "--steps", "10"],
    ])
    def test_flag_without_effect_is_config_error(self, argv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "game2x2", "steps": 10,
                                   "out_csv": str(tmp_path / "sim.csv")}))
        assert main([a.format(d=tmp_path) for a in argv]) == 1
        out = capsys.readouterr()
        assert out.err.startswith("config error: ") and not out.out
        assert list(tmp_path.iterdir()) == [cfg]

    # A write must not replace the command's input or its other output: the
    # same path, spelled the same or not, or a link to it.
    @pytest.mark.parametrize("argv", [
        ["experiment", "exp1", "--steps", "10", "--out-csv", "{d}/f", "--out-svg", "{d}/f"],
        ["experiment", "exp1", "--steps", "10", "--out-csv", "{d}/f", "--out-svg", "{d}/./f"],
        ["experiment", "exp1", "--steps", "10", "--out-csv", "{d}/link", "--out-svg",
         "{d}/cfg.json"],
        ["simulate", "--config", "{d}/cfg.json", "--out-svg", "{d}/sim.csv"],
        ["simulate", "--config", "{d}/cfg.json", "--out-csv", "{d}/cfg.json"],
        ["simulate", "--config", "{d}/link", "--out-csv", "{d}/x.csv", "--out-svg",
         "{d}/cfg.json"],
        ["plot", "--in-csv", "{d}/cfg.json", "--out-svg", "{d}/cfg.json"],
        ["plot", "--in-csv", "{d}/cfg.json", "--out-svg", "{d}/link"],
        ["experiment", "exp1", "--steps", "10", "--out-csv", "{d}/cfg.json", "--out-svg",
         "{d}/hard"],
        ["simulate", "--config", "{d}/hard", "--out-csv", "{d}/x.csv", "--out-svg",
         "{d}/link"],
        ["plot", "--in-csv", "{d}/hard", "--out-svg", "{d}/cfg.json"],
    ])
    def test_output_over_another_file_is_config_error(self, argv, tmp_path, capsys):
        # "link" is a symlink to cfg.json, "hard" a hard link to it.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "game2x2", "steps": 10,
                                   "out_csv": str(tmp_path / "sim.csv")}))
        before = cfg.read_bytes()
        (tmp_path / "link").symlink_to(cfg)
        os.link(cfg, tmp_path / "hard")
        assert main([a.format(d=tmp_path) for a in argv]) == 1
        out = capsys.readouterr()
        assert out.err.startswith("config error: ") and "names the same file as" in out.err
        assert not out.out
        assert sorted(tmp_path.iterdir()) == [cfg, tmp_path / "hard", tmp_path / "link"]
        assert cfg.read_bytes() == before

    # Each check is its own subcommand: a flag it does not declare is a usage
    # error, whether another check reads it or none does.
    @pytest.mark.parametrize("argv", [
        ["verify", "increments", "--steps", "200", "--tol", "-1"],
        ["verify", "orbit", "--steps", "100", "--tol", "1e-3"],
        ["verify", "identities", "--steps", "200", "--dim", "7"],
        ["verify", "increments", "--steps", "200", "--cases", "5"],
        ["verify", "orbit", "--steps", "100", "--seed", "3"],
        ["verify", "identities", "--steps", "200", "--algo", "omwu"],
        ["verify", "kl-monotone", "--steps", "100", "--expect", "converged_orbit"],
        ["verify", "bregman", "--cases", "5", "--experiment", "exp1"],
        ["verify", "bregman", "--cases", "5", "--eta", "0.1"],
        ["verify", "bregman", "--cases", "5", "--steps", "10"],
        ["verify", "identities", "--steps", "200", "--experiment", "game2x2"],
        ["verify", "increments", "--steps", "200", "--experiment", "game2x2"],
        ["analyze", "eigen", "--samples", "5"],
        ["analyze", "jacobian", "--samples", "5"],
        ["analyze", "fixed-curve", "--samples", "3", "--boundary-a", "0.3"],
    ])
    def test_flag_of_no_check_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        out = capsys.readouterr()
        assert info.value.code == 1
        assert "unrecognized arguments" in out.err and not out.out

    @pytest.mark.parametrize("command, check", sorted(CHECK_FLAGS))
    def test_each_check_takes_only_its_own_flags(self, command, check, capsys):
        parser = cli.build_parser()
        for name in (command, check):
            subparsers, = (a for a in parser._actions
                           if isinstance(a, argparse._SubParsersAction))
            parser = subparsers.choices[name]
        options = {s for a in parser._actions for s in a.option_strings}
        assert options == {"-h", "--help", *CHECK_FLAGS[command, check]}
        for flag in sorted(set().union(*CHECK_FLAGS.values()) - options):
            with pytest.raises(SystemExit) as info:
                main([command, check, flag, "1"])
            assert info.value.code == 1
        assert not capsys.readouterr().out

    def test_literal_choices_are_the_enum_values(self):
        # The parser names them without importing dynamics or checks.
        assert cli.ALGORITHMS == tuple(a.value for a in pg.Algorithm)
        assert cli.ORBIT_VERDICTS == tuple(v.value for v in pg.OrbitVerdict)

    def test_long_run_svgs_keep_four_points_per_column(self, tmp_path, capsys):
        """A 100k-step run's polylines hold at most four points for each of
        the 713 integer x of the plot box, 72 to 784."""
        csv, svg, kl = tmp_path / "exp1.csv", tmp_path / "exp1.svg", tmp_path / "kl.svg"
        assert main(["experiment", "exp1", "--steps", "100000", "--out-csv", str(csv),
                     "--out-svg", str(svg)]) == 0
        assert main(["plot", "--in-csv", str(csv), "--out-svg", str(kl), "--series", "kl",
                     "--log-y"]) == 0
        for path, lines in ((svg, 6), (kl, 1)):
            polylines = ET.parse(path).getroot().iter("{http://www.w3.org/2000/svg}polyline")
            sizes = [len(line.get("points").split()) for line in polylines]
            assert len(sizes) == lines and max(sizes) <= 4 * 713
        assert svg.stat().st_size < 300_000

    @pytest.mark.parametrize("argv", [
        ["verify", "bregman", "--cases", "-5"],
        ["verify", "bregman", "--cases", "0"],
        ["analyze", "fixed-curve", "--samples", "0"],
        ["analyze", "fixed-curve", "--samples", "-1"],
    ])
    def test_nonpositive_count_exit_code(self, argv, capsys):
        assert main(argv) == 1
        out = capsys.readouterr()
        assert f"{argv[2]} must be at least 1, got {argv[3]}" in out.err and not out.out


    @pytest.mark.parametrize("argv, message", [
        (["verify", "bregman", "--cases", "2", "--dim", "-2"], "config error: --dim must be at "
         "least 2, got -2"),
        (["verify", "bregman", "--cases", "2", "--dim", "1"], "config error: --dim must be at "
         "least 2, got 1"),
        (["verify", "bregman", "--cases", "2", "--seed", "-1"], "config error: --seed must be "
         "at least 0, got -1"),
        (["experiment", "game2x2", "--steps", "10", "--seed", "-1"], "config error: --seed "
         "must be at least 0, got -1"),
        (["experiment", "--all", "--steps", "10", "--seed", "-3"], "config error: --seed "
         "must be at least 0, got -3"),
        (["analyze", "fixed-curve", "--eta", "0"], "input error: eta must be a positive "
         "finite number"),
    ], ids=["dim_negative", "dim_one", "bregman_seed", "experiment_seed", "all_seed",
            "fixed_curve_eta"])
    def test_out_of_range_value_fails_before_any_output(self, argv, message, capsys):
        assert main(argv) == 1
        out = capsys.readouterr()
        assert out.err == message + "\n" and not out.out


PROPERTY_ARGV = ["verify", "orbit", "--steps", "1000", "--expect", "converged_point"]
# One command per exit code, as the process entry runs them.
PROCESS_CASES = [
    pytest.param(["experiment", "--all"], 0, id="ok"),
    pytest.param(["experiment", "game2x2", "--algo", "bogus"], 1, id="usage"),
    pytest.param(["verify", "kl-monotone", "--experiment", "nocommon3", "--steps", "100"], 2,
                 id="numerical"),
    pytest.param(PROPERTY_ARGV, 3, id="property"),
]
ATEXIT = "atexit handler ran"


def _process_env():
    """The children's environment: stdout block-buffered, so an output that
    was never flushed goes missing, and the backend of this session."""
    env = clean_env()
    env.pop("PYTHONUNBUFFERED", None)
    if "CC" in os.environ:
        env["CC"] = os.environ["CC"]
    return env


def _in_process(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def _child(tmp_path, args, stdout=None):
    """(exit code, stdout, stderr) of a Python child with stdout in a file."""
    out_path = tmp_path / "stdout.txt"
    with open(out_path, "w") as out:
        proc = subprocess.run([sys.executable, *args], stdout=stdout or out,
                              stderr=subprocess.PIPE, text=True, env=_process_env(),
                              cwd=tmp_path, timeout=300)
    return proc.returncode, out_path.read_text(), proc.stderr


class TestProcessEntry:
    @pytest.mark.parametrize("argv, code", PROCESS_CASES)
    def test_process_matches_main(self, tmp_path, capsys, argv, code):
        expected = _in_process(argv, capsys)
        assert expected[0] == code
        assert _child(tmp_path, ["-m", "periodicgame.cli", *argv]) == expected

    @pytest.mark.parametrize("hook", ["", "sys.settrace(lambda *args: None)\n",
                                      "sys.setprofile(lambda *args: None)\n"],
                             ids=["plain", "settrace", "setprofile"])
    def test_process_exit_under_tracer_or_profiler(self, tmp_path, capsys, hook):
        """Under a tracer or profiler run() exits through sys.exit, so the
        atexit handlers that coverage and cProfile rely on run; otherwise
        it skips them along with the rest of the teardown."""
        script = ("import atexit, sys\n"
                  "from periodicgame.cli import run\n"
                  f"atexit.register(print, {ATEXIT!r}, file=sys.stderr)\n"
                  f"sys.argv[1:] = {PROPERTY_ARGV!r}\n"
                  f"{hook}run()\n")
        code, out, err = _child(tmp_path, ["-c", script])
        expected = _in_process(PROPERTY_ARGV, capsys)
        assert (code, out) == expected[:2]
        assert err == expected[2] + (f"{ATEXIT}\n" if hook else "")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_process_failed_flush_exits_normally(self, tmp_path):
        """A flush that fails is reported and fails the process as it does
        after sys.exit, not dropped by os._exit."""
        with open("/dev/full", "w") as full:
            code, _, err = _child(tmp_path, ["-m", "periodicgame.cli", "experiment", "--list"],
                                  stdout=full)
        assert code == 120
        assert "No space left on device" in err

    def test_process_exit_under_monitoring_tool(self, monkeypatch, capsys):
        """A sys.monitoring tool (Python 3.12+; coverage's sysmon core) also
        keeps the normal exit."""
        def refuse(code):
            raise AssertionError("os._exit under a monitoring tool")

        tools = types.SimpleNamespace(get_tool=lambda i: "coverage.py" if i == 1 else None)
        monkeypatch.setattr(sys, "monitoring", tools, raising=False)
        monkeypatch.setattr(sys, "argv", ["periodicgame", "experiment", "--list"])
        monkeypatch.setattr(os, "_exit", refuse)
        with pytest.raises(SystemExit) as info:
            run()
        assert info.value.code == 0
        assert "game2x2" in capsys.readouterr().out

import json
import pathlib

import numpy as np
import pytest

import periodicgame as pg
from periodicgame.cli import main

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
        game, spec = pg.experiments.resolve_game(cfg)
        builtin = pg.experiment_by_name("game2x2").game
        assert spec is None
        assert game.period == builtin.period
        for a, b in zip(game.matrices, builtin.matrices):
            assert np.array_equal(a.entries, b.entries)


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
        argv = ["verify", what, "--steps", "20", "--cases", "2", f"--tol={tol}"]
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
        pytest.param(GOOD_CSV.replace("0,0.5\n", "0\n", 1), id="ragged-row"),
        pytest.param(GOOD_CSV.replace("0,0.5\n", "0\n"), id="rows-shorter-than-header"),
        pytest.param(GOOD_CSV.replace("t,", "time,", 1), id="no-t-column"),
        pytest.param(GOOD_CSV.replace("kl_to_ref", "kl"), id="no-kl-column"),
        pytest.param(GOOD_CSV.encode("utf-16"), id="not-utf8"),
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

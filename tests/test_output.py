import collections
import dataclasses
import hashlib
import io
import math
from unittest import mock

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import periodicgame as pg
from periodicgame import _kernels
from periodicgame.experiments import _svg_series

DBL_MAX = np.finfo(np.float64).max


@pytest.fixture
def small_traj(game2x2):
    eq = pg.JointState.from_probabilities([0.5, 0.5], [0.5, 0.5])
    init = pg.JointState.from_probabilities([0.45, 0.55], [0.4, 0.6])
    return pg.run_trajectory(game2x2, "extra", init, 0.1, 50, record_every=1,
                             reference=eq)


class TestCsv:
    def test_one_step_layout(self, game2x2, tmp_path):
        traj = pg.run_trajectory(game2x2, "mwu", pg.JointState.uniform(2, 2), 0.1, 1)
        path = tmp_path / "run.csv"
        pg.emit_csv(traj, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "t,phase,x1_1,x1_2,x2_1,x2_2,kl_to_ref,min_component"
        assert len(lines) == 3
        assert all(len(line.split(",")) == 8 for line in lines)
        assert path.read_bytes().count(b"\r") == 0

    def test_no_reference_gives_nan_column(self, game2x2, tmp_path):
        traj = pg.run_trajectory(game2x2, "mwu", pg.JointState.uniform(2, 2), 0.1, 3)
        path = tmp_path / "run.csv"
        pg.emit_csv(traj, str(path))
        for line in path.read_text().splitlines()[1:]:
            assert line.split(",")[6] == "nan"

    def test_inf_serialization(self, game2x2, tmp_path):
        eq = pg.JointState.from_probabilities([0.5, 0.5], [0.5, 0.5])
        boundary = pg.OmwuState.repeated(
            pg.JointState(pg.Simplex([0.0, -np.inf]), pg.Simplex([0.0, 0.0])))
        traj = pg.run_trajectory(game2x2, "mwu", boundary, 0.1, 1, reference=eq)
        path = tmp_path / "run.csv"
        pg.emit_csv(traj, str(path))
        assert ",inf," in path.read_text()

    def test_round_trip_is_exact(self, small_traj, tmp_path):
        path = tmp_path / "run.csv"
        pg.emit_csv(small_traj, str(path))
        data = pg.read_csv(str(path))
        assert np.array_equal(data["t"], small_traj.times)
        assert np.array_equal(data["x1"], small_traj.probabilities1)
        assert np.array_equal(data["x2"], small_traj.probabilities2)
        assert np.array_equal(data["kl_to_ref"], small_traj.kl_to_ref)
        assert np.array_equal(data["min_component"], small_traj.min_component)

    def test_reemission_is_byte_identical(self, small_traj, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        pg.emit_csv(small_traj, str(a))
        pg.emit_csv(small_traj, str(b))
        assert a.read_bytes() == b.read_bytes()


def _same_bits(a, b):
    """Bitwise equality, except that every NaN reads back as the plain NaN."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    nan = np.isnan(a)
    return bool((nan == np.isnan(b)).all()
                and (a[~nan].view(np.int64) == b[~nan].view(np.int64)).all())


_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


@st.composite
def _trajectories(draw):
    r = draw(st.integers(1, 6))
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    start = draw(st.integers(0, 10**12))
    gaps = draw(hnp.arrays(np.int64, r, elements=st.integers(1, 1000)))

    def column(*shape):
        return draw(hnp.arrays(np.float64, shape, elements=_ANY_FLOAT))

    return pg.Trajectory(times=start + np.cumsum(gaps) - gaps[0],
                         log_probs1=column(r, m), log_probs2=column(r, n),
                         kl_to_ref=column(r), min_component=column(r),
                         period=draw(st.integers(1, 4)), eta=0.1, algo="mwu")


class TestCsvRoundTrip:
    @pytest.mark.filterwarnings("ignore:overflow encountered in exp")
    @settings(max_examples=200, deadline=None)
    @given(traj=_trajectories(), special=st.sampled_from(
        [0.0, -0.0, 5e-324, -2.2250738585072014e-308, np.nan, np.inf, -np.inf]))
    def test_arbitrary_columns_round_trip(self, traj, special, tmp_path_factory):
        kl = traj.kl_to_ref.copy()
        kl[0] = special
        traj = dataclasses.replace(traj, kl_to_ref=kl)
        path = tmp_path_factory.mktemp("rt") / "run.csv"
        pg.emit_csv(traj, str(path))
        data = pg.read_csv(str(path))
        assert _same_bits(data["t"], traj.times)
        assert _same_bits(data["phase"], traj.phases)
        assert _same_bits(data["x1"], traj.probabilities1)
        assert _same_bits(data["x2"], traj.probabilities2)
        assert _same_bits(data["kl_to_ref"], traj.kl_to_ref)
        assert _same_bits(data["min_component"], traj.min_component)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("t,phase,x1_1,x2_1,kl_to_ref,min_component\n")
        with pytest.raises(pg.InputError):
            pg.read_csv(str(path))

    def test_trailing_blank_line_skipped(self, small_traj, tmp_path):
        path = tmp_path / "run.csv"
        pg.emit_csv(small_traj, str(path))
        with open(path, "a") as fh:
            fh.write("\n  \n")
        data = pg.read_csv(str(path))
        assert data["t"].shape == (small_traj.n_records,)
        assert _same_bits(data["x1"], small_traj.probabilities1)

    def test_times_read_back_as_exact_integers(self, tmp_path):
        times = np.array([3, 2**53 + 1, 2**63 - 1])
        half = np.log(np.full((3, 2), 0.5))
        traj = pg.Trajectory(times=times, log_probs1=half, log_probs2=half,
                             kl_to_ref=np.zeros(3), min_component=np.full(3, 0.5),
                             period=7, eta=0.1, algo="mwu")
        path = tmp_path / "run.csv"
        pg.emit_csv(traj, str(path))
        data = pg.read_csv(str(path))
        assert data["t"].tolist() == times.tolist()
        assert data["phase"].tolist() == (times % 7).tolist()

    @pytest.mark.parametrize("line, message", [
        ("1.7,1,0.5,0.5,0,0.5", "line 4, column 't': '1.7' is not an integer"),
        ("1,1,abc,0.5,0,0.5", "line 4, column 'x1_1': 'abc' is not a number"),
        ("1,1,0.5,0.5,0", "line 4 has 5 cells, the header names 6"),
    ])
    def test_errors_name_the_file_line_and_column(self, tmp_path, line, message):
        path = tmp_path / "bad.csv"
        path.write_text("t,phase,x1_1,x2_1,kl_to_ref,min_component\n"
                        f"0,0,0.5,0.5,0,0.5\n\n{line}\n")
        with pytest.raises(pg.InputError) as info:
            pg.read_csv(str(path))
        assert str(info.value) == f"{path}: {message}"

    def test_single_row_shapes(self, game2x2, tmp_path):
        traj = pg.run_trajectory(game2x2, "mwu", pg.JointState.uniform(2, 2), 0.1, 1)
        path = tmp_path / "run.csv"
        pg.emit_csv(traj, str(path))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:2]) + "\n")
        data = pg.read_csv(str(path))
        assert data["x1"].shape == (1, 2) and data["x2"].shape == (1, 2)
        assert data["t"].dtype == np.int64 and data["phase"].dtype == np.int64
        assert data["kl_to_ref"].shape == (1,)


class TestSvg:
    def test_constant_series_horizontal(self, tmp_path):
        path = tmp_path / "flat.svg"
        pg.emit_svg_plot([("flat", [(t, 2.0) for t in range(10)])], str(path))
        text = path.read_text()
        assert text.count("<polyline") == 1
        pts = text.split('points="')[1].split('"')[0].split()
        ys = {p.split(",")[1] for p in pts}
        assert len(ys) == 1

    def test_deterministic_output(self, tmp_path):
        series = [("a", [(0, 1.0), (1, 2.0)]), ("b", [(0, 3.0), (1, 1.5)])]
        p1, p2 = tmp_path / "1.svg", tmp_path / "2.svg"
        pg.emit_svg_plot(series, str(p1))
        pg.emit_svg_plot(series, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text().count("<polyline") == 2

    def test_nonfinite_dropped_with_comment(self, tmp_path):
        series = [("a", [(0, 1.0), (1, float("inf")), (2, float("nan")), (3, 2.0)])]
        path = tmp_path / "drop.svg"
        pg.emit_svg_plot(series, str(path))
        assert "dropped 2 non-finite points" in path.read_text()

    def test_log_scale_drops_nonpositive(self, tmp_path):
        series = [("kl", [(0, 0.0), (1, 1e-8), (2, 1e-2)])]
        path = tmp_path / "log.svg"
        pg.emit_svg_plot(series, str(path), log_y=True)
        text = path.read_text()
        assert "dropped 1 non-finite points" in text
        assert "1e-8" in text  # min tick label on the log axis

    @pytest.mark.parametrize("first, label", [(0.0, "0"), (-0.0, "-0")])
    def test_zero_tick_label_is_first_minimum(self, first, label, tmp_path):
        path = tmp_path / "zero.svg"
        pg.emit_svg_plot([("a", [(0, first), (1, -first), (2, 1.0)])], str(path))
        assert f'text-anchor="end">{label}</text>' in path.read_text()

    @pytest.mark.parametrize("first, label", [(0.0, "0"), (-0.0, "-0")])
    def test_zero_tick_label_is_first_minimum_across_series(self, first, label, tmp_path):
        path = tmp_path / "zero.svg"
        pg.emit_svg_plot([("a", [(0, 1.0), (1, first)]), ("b", [(0, -first), (1, 2.0)])],
                         str(path))
        assert f'text-anchor="end">{label}</text>' in path.read_text()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("points", [
        [(-1e308, 1.0), (0.0, 2.0), (1e308, 3.0)],
        [(1.0, -1e308), (2.0, 0.0), (3.0, 1e308)],
    ], ids=["x", "y"])
    def test_axis_span_past_float_range(self, points, tmp_path):
        path = tmp_path / "wide.svg"
        pg.emit_svg_plot([("a", points)], str(path))
        pts = path.read_text().split('points="')[1].split('"')[0].split()
        coords = [tuple(map(float, p.split(","))) for p in pts]
        # The plot box spans x 72..784 and y 16..552.
        assert all(72 <= x <= 784 and 16 <= y <= 552 for x, y in coords)
        assert coords[1] == (428.0, 284.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [1e20, 2.0**53, DBL_MAX, -DBL_MAX])
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_constant_axis_past_half_unit_steps(self, value, axis, tmp_path):
        # v +- 0.5 == v here, so the axis is widened by a pad scaled to v.
        path = tmp_path / "flat.svg"
        points = [(value, 1.0), (value, 2.0)] if axis == "x" else [(1.0, value), (2.0, value)]
        pg.emit_svg_plot([("a", points)], str(path))
        pts = path.read_text().split('points="')[1].split('"')[0].split()
        coords = [tuple(map(float, p.split(","))) for p in pts]
        assert all(72 <= x <= 784 and 16 <= y <= 552 for x, y in coords)
        if abs(value) < DBL_MAX:    # the pad fits on both sides: the middle
            assert {x if axis == "x" else y for x, y in coords} == {
                428.0 if axis == "x" else 284.0}

    @pytest.mark.parametrize("points", [
        [(1, 2, 3), (4, 5)], [(1,), (2, 3)], [1.0, 2.0],
        np.ones((4, 3)), np.ones(6), np.ones((2, 2, 2)), np.ones((3, 3)),
        [("a", "b")], np.array([["a", "b"]]),
        [(0, 1.0), ("1.5", 2)], [(1, b"2")], [(None, 1.0)], ["12", "34"],
        np.array([["1.5", "2"]]), np.array([[b"1", b"2"]]),
        np.array([[1.0, 2.0]], dtype=object), [(1, 10**400)], [(-(10**400), 1.0)],
    ], ids=["long", "short", "scalars", "array4x3", "array6", "array2x2x2", "array3x3",
            "text", "text_array", "numeric_text", "bytes", "none", "text_pairs",
            "numeric_text_array", "bytes_array", "object_array", "huge_int",
            "huge_negative_int"])
    def test_malformed_points_rejected(self, points, tmp_path):
        with pytest.raises(pg.InputError, match="series 'bad'"):
            pg.emit_svg_plot([("ok", [(0, 1.0)]), ("bad", points)], str(tmp_path / "x.svg"))

    def test_real_numbers_of_any_kind_accepted(self, tmp_path):
        """bools, numpy scalars, ints past 2^64, namedtuple pairs and integer
        arrays plot as the floats they convert to."""
        Pair = collections.namedtuple("Pair", "t v")
        as_floats = [(0.0, 1.0), (1.0, 0.5), (2.0, 2.0**70), (3.0, 0.25)]
        mixed = [(False, True), [np.int64(1), np.float32(0.5)], Pair(2, 2**70),
                 (np.uint8(3), np.float64(0.25))]
        path, ref = tmp_path / "mixed.svg", tmp_path / "floats.svg"
        pg.emit_svg_plot([("a", as_floats), ("b", np.array([[0, 3], [4, 5]]))], str(ref))
        for points in (mixed, tuple(mixed)):
            pg.emit_svg_plot([("a", points), ("b", np.array([[0, 3], [4, 5]], np.uint16))],
                             str(path))
            assert path.read_bytes() == ref.read_bytes()

    def test_empty_series_rejected(self, tmp_path):
        with pytest.raises(pg.InputError):
            pg.emit_svg_plot([], str(tmp_path / "x.svg"))
        with pytest.raises(pg.InputError):
            pg.emit_svg_plot([("a", [(0, float("nan"))])], str(tmp_path / "x.svg"))

    def test_viewbox_and_version(self, tmp_path):
        path = tmp_path / "v.svg"
        pg.emit_svg_plot([("a", [(0, 1.0), (1, 2.0)])], str(path))
        text = path.read_text()
        assert 'version="1.1"' in text
        assert 'viewBox="0 0 800 600"' in text


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _circulant(row):
    return [np.roll(row, k) for k in range(len(row))]


def _golden_trajectories():
    eq22 = pg.JointState.from_probabilities([0.5, 0.5], [0.5, 0.5])
    game2x2 = pg.experiment_by_name("game2x2").game
    rps = pg.PeriodicGame(([[0, -1, 1], [1, 0, -1], [-1, 1, 0]],))
    uniform3 = pg.JointState.from_probabilities(np.full(3, 1 / 3), np.full(3, 1 / 3))
    game2x4 = pg.PeriodicGame(([[1.0, 0.0, -1.0, 0.5], [-0.5, 1.0, 0.0, -1.0]],
                               [[0.0, 1.0, 0.5, -1.0], [1.0, -1.0, 0.0, 0.25]]))
    boundary_init = pg.JointState.from_probabilities([0.45, 0.55], [0.45, 0.55])
    short = pg.run_trajectory(game2x2, "extra", boundary_init, 0.1, 5, reference=eq22)
    # Wider runs: a circulant matrix has the uniform equilibrium, so the KL
    # column sums over every coordinate, 8 and more included at 9x9.
    circ6 = pg.PeriodicGame(tuple(_circulant(r) for r in ([0, 1, -2, 0.5, 1, -0.5],
                                                          [0, -1, 0.25, 1, -0.5, 0.25])))
    circ9 = pg.PeriodicGame((_circulant([0, 1, -1, 0.5, -0.25, 0.75, -1, 0.3, -0.3]),))
    game5x3 = pg.PeriodicGame(([[1.0, -1.0, 0.5], [-0.5, 1.0, -1.0], [0.25, 0.0, -0.25],
                                [-1.0, 0.5, 1.0], [0.0, -0.75, 0.5]],))
    eq5x3 = pg.solve_zero_sum(game5x3.matrices[0]).joint
    return {
        "extra6x6": pg.run_trajectory(
            circ6, "extra", pg.JointState.from_probabilities(
                [0.3, 0.1, 0.2, 0.15, 0.05, 0.2], [0.05, 0.25, 0.1, 0.3, 0.2, 0.1]),
            0.1, 600, record_every=1, reference=pg.JointState.uniform(6, 6)),
        "mwu5x3": pg.run_trajectory(game5x3, "mwu", pg.JointState.uniform(5, 3), 0.2, 500,
                                    record_every=1, reference=eq5x3),
        "omwu9x9": pg.run_trajectory(
            circ9, "omwu", pg.JointState(pg.Simplex(np.linspace(-1.0, 1.0, 9)),
                                         pg.Simplex(np.cos(np.arange(9.0)))),
            0.2, 700, record_every=1, reference=pg.JointState.uniform(9, 9)),
        "extra3x3": pg.run_trajectory(
            rps, "extra", pg.JointState.from_probabilities([0.6, 0.3, 0.1], [0.2, 0.2, 0.6]),
            0.1, 400, record_every=1, reference=uniform3),
        "mwu2x4_noref": pg.run_trajectory(game2x4, "mwu", pg.JointState.uniform(2, 4),
                                          0.05, 300, record_every=1),
        # From this start OMWU reaches exact 0 components and inf KL.
        "omwu2x2_boundary": pg.run_trajectory(game2x2, "omwu", boundary_init, 0.5, 8_000,
                                              record_every=1, reference=eq22),
        "one_record": dataclasses.replace(
            short, times=short.times[-1:], log_probs1=short.log_probs1[-1:],
            log_probs2=short.log_probs2[-1:], kl_to_ref=short.kl_to_ref[-1:],
            min_component=short.min_component[-1:]),
    }


def _strategy_series(traj, as_array):
    cols = [("x1", traj.probabilities1), ("x2", traj.probabilities2)]
    return [(f"{name}_{i + 1}",
             np.column_stack([traj.times, block[:, i]]) if as_array
             else list(zip(traj.times.tolist(), block[:, i].tolist())))
            for name, block in cols for i in range(block.shape[1])]


def _log_series(traj, as_array):
    label, values = (("KL(eq, x^t)", traj.kl_to_ref) if traj.reference is not None
                     else ("min_component", traj.min_component))
    points = (np.column_stack([traj.times, values]) if as_array
              else list(zip(traj.times.tolist(), values.tolist())))
    return [(label, points)]


# sha256 of the CSV, the strategies SVG and the log-y SVG (KL, or
# min_component without a reference) each golden trajectory gives.  They
# pin the output bytes: a new digest is a change of file format.
GOLDEN = {
    "extra3x3": ("8e465bc4074e20a8dd82a249f42f4ffa741024fe5fe4f50eb7b1b3bebe54971d",
                "40388857f88c11867537da54ccefa150f8b95d078fd0dc0fac371c7c7acf980d",
                "e212d849fc22f1fd3e72264caeee5a4492f72673211561308d747b6ba01b291a"),
    "extra6x6": ("1692ba69ec553fa19506333c45bddcc0f1fd424167e41e3d97be0e68912be679",
                "553f21976d779d86d777e76a144e27984c160102c81219b7c4f2acbd173b453a",
                "bc265f111a822539480337ed6504f0a8a4275376a321e97ecd66a0baeffc03c5"),
    "mwu5x3": ("fe34d9e9c3c8d193d031ee7a3686bad3fe2185c0a42b3f4cbafe89c5bd98c570",
              "689400813297a0e949ed7c41fa1f6cd07835d5693502739293a11ec57396ed53",
              "34c1f1b56e22fb07016d13cada420f4550ebf47e6a16339b3a15fd656dabce22"),
    "omwu9x9": ("a1c288887f1af73999fcaaf0e12b70831a09bd994c1728e4402094f0dc039a7a",
               "38600176a12ceba95c4f3a16bde942d6e09b50281afa5dda19e0690b479a78fd",
               "4df16cb061409858cfebca2385e24dc5eb0c57c8273c7bc5ea3134eb6eb8d946"),
    "mwu2x4_noref": ("8cb8a426c50161bfced09706b4ac61c871b8b137433b5ecbab931e601dc60f7a",
                    "b30baf251a5c75f4133463bc71241f006d5f7df03d715eba8f8d2301b0bb33e0",
                    "a6986075ccef4449304d4887fc516009f024be5878dd8accef1806526e7640ce"),
    "omwu2x2_boundary": ("e3eb1af8f90c2aeef1ae743b4a888f03a679633c330afa5ceca4ba33165c304b",
                        "38a78b545628fb777d346c13e7c067329289b24e5e3e9be117be567d3c5b335f",
                        "0fc7fa4249b132b2eb684d04560273c69b4fe085f315ef66e4d5618f7414280f"),
    "one_record": ("f534588d4204e47bc1996ad816bc407a2c450b6558b1fdb50cbd52492268ea22",
                  "20fbe10556093b8ec4ef6ba90579f598d77085a4d1a113e33e94c3884b4f5940",
                  "759b1f051d99c9970151e8735b24abd3ec807e344311a5fc02c943ef4719a607"),
}


@pytest.fixture(scope="module")
def golden_trajs():
    return _golden_trajectories()


class TestGoldenBytes:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_csv(self, golden_trajs, name, tmp_path):
        path = tmp_path / "run.csv"
        pg.emit_csv(golden_trajs[name], str(path))
        assert _sha256(path) == GOLDEN[name][0]

    @pytest.mark.parametrize("as_array", [False, True], ids=["pairs", "array"])
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_svg(self, golden_trajs, name, as_array, tmp_path):
        traj = golden_trajs[name]
        strategies, logged = tmp_path / "x.svg", tmp_path / "kl.svg"
        pg.emit_svg_plot(_strategy_series(traj, as_array), str(strategies))
        pg.emit_svg_plot(_log_series(traj, as_array), str(logged), log_y=True)
        assert (_sha256(strategies), _sha256(logged)) == GOLDEN[name][1:]

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_experiment_series(self, golden_trajs, name, tmp_path):
        """The series `run_experiment` plots give the golden bytes too."""
        traj = golden_trajs[name]
        path = tmp_path / "x.svg"
        pg.emit_svg_plot(_svg_series(traj, log_y=False), str(path))
        assert _sha256(path) == GOLDEN[name][1]
        if traj.reference is not None:
            pg.emit_svg_plot(_svg_series(traj, log_y=True), str(path), log_y=True)
            assert _sha256(path) == GOLDEN[name][2]


def old_plot_points(xy, log_y, axes):
    """The plot pass before per-column decimation, as the oracle: the
    "x,y" pair at %.3f of every point emit_svg_plot keeps (t and v finite,
    v > 0 and log10 v under log_y), and the computed y of each."""
    keep = np.isfinite(xy[:, 0]) & np.isfinite(xy[:, 1])
    if log_y:
        keep &= xy[:, 1] > 0
    ts, vs = xy[keep, 0], xy[keep, 1]
    if log_y:
        vs = np.array([math.log10(v) for v in vs.tolist()], dtype=np.float64)
    kx, x0, xspan, xsize, xmargin, ky, y0, yspan, ysize, ymargin = axes
    xs = xmargin + (ts * kx - x0) / xspan * xsize
    ys = ymargin + (vs * ky - y0) / yspan * ysize
    return ["%.3f,%.3f" % p for p in zip(xs.tolist(), ys.tolist())], ys.tolist()


def _thousandths(pairs):
    """Written "x,y" pairs (x >= 0) as two int64 arrays of thousandths of a
    pixel."""
    text = " ".join(pairs).replace(".", "").replace(",", " ")
    return np.array(list(map(int, text.split())), dtype=np.int64).reshape(-1, 2).T


def _runs(cols):
    """Start and end of each run of equal consecutive columns."""
    starts = np.flatnonzero(np.r_[True, cols[1:] != cols[:-1]])
    return np.array([starts, np.r_[starts[1:], len(cols)]])


def _column_extents(x, y):
    """Per pixel column (x // 1000 in thousandths), the least and greatest y
    of the polyline through (x, y) with its segments clipped at the column
    edges: its points in the column, and the y where a segment crosses an
    edge, which the columns on both sides share (the double nearest its
    exact value)."""
    cols = x // 1000
    edge_cols, edge_ys = [], []
    for i in np.flatnonzero(cols[1:] != cols[:-1]).tolist():
        x0, y0, x1, y1 = int(x[i]), int(y[i]), int(x[i + 1]), int(y[i + 1])
        c0, c1 = sorted((x0 // 1000, x1 // 1000))
        for c in range(c0 + 1, c1 + 1):
            at_edge = (y0 * (x1 - x0) + (y1 - y0) * (1000 * c - x0)) / (x1 - x0)
            edge_cols += [c - 1, c]
            edge_ys += [at_edge, at_edge]
    cols = np.r_[cols, np.array(edge_cols, dtype=np.int64)]
    ys = np.r_[y.astype(np.float64), edge_ys]
    order = np.lexsort((ys, cols))
    cols, ys = cols[order], ys[order]
    starts, ends = _runs(cols)
    return cols[starts].tolist(), ys[starts].tolist(), ys[ends - 1].tolist()


def _column_rule(cols, ys):
    """Indices of the points the per-column rule keeps, by a plain scan: of
    each run of consecutive points in one column the first, the first of
    least y, the first of greatest y and the last, in order."""
    keep = []
    for start, end in zip(*_runs(cols).tolist()):
        run = ys[start:end]
        keep += sorted({start, start + run.index(min(run)), start + run.index(max(run)),
                        end - 1})
    return keep


def _check_decimation(kernels, xy, log_y, axes):
    """format_plot_points of ``kernels`` against the oracle on one series;
    returns the written pairs."""
    fh = io.BytesIO()
    kernels.format_plot_points(xy, log_y, axes, fh)
    new = fh.getvalue().decode().split()
    old, ys = old_plot_points(xy, log_y, axes)
    if not old:
        assert new == []
        return new
    old_x, old_y = _thousandths(old)
    new_x, new_y = _thousandths(new)
    assert (old_x >= 0).all()
    # The rule, on the oracle's points.
    assert new == [old[i] for i in _column_rule(old_x // 1000, ys)]
    # What the rule is for: the same first and last points, the same
    # extremes in every column, at most four points a run.
    assert (new[0], new[-1]) == (old[0], old[-1])
    assert _column_extents(new_x, new_y) == _column_extents(old_x, old_y)
    starts, ends = _runs(new_x // 1000)
    assert (ends - starts).max() <= 4
    starts, ends = _runs(old_x // 1000)
    if (ends - starts).max() <= 2:
        assert new == old
    return new


def _check_plot(kernels, series, log_y, path):
    """_check_decimation on the (xy, log_y, axes) of every polyline that
    emit_svg_plot writes for ``series`` into ``path``; returns the written
    pairs of each."""
    with mock.patch.object(_kernels, "format_plot_points",
                           wraps=_kernels.format_plot_points) as spy:
        pg.emit_svg_plot(series, str(path), log_y=log_y)
    return [_check_decimation(kernels, *call.args[:3]) for call in spy.call_args_list]


_PLOT_VALUES = st.one_of(
    st.integers(-3, 3).map(float),                    # ties in y, and nonpositive
    st.floats(-1e6, 1e6), st.floats(1e-300, 1e300),
    st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324]))


@st.composite
def _plot_points(draw):
    """Up to 60 drawn points, sorted by t or not; or up to 3,000 sorted
    points whose t and v are sampled from drawn pools, many to a column."""
    n = draw(st.one_of(st.integers(1, 3), st.integers(4, 60)))
    t = draw(hnp.arrays(np.float64, n, elements=st.one_of(
        st.integers(0, 40).map(float),              # repeated t
        st.floats(-1e3, 1e3), st.sampled_from([np.nan, np.inf]))))
    v = (np.full(n, draw(_PLOT_VALUES)) if draw(st.booleans())     # constant
         else draw(hnp.arrays(np.float64, n, elements=_PLOT_VALUES)))
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        size = draw(st.integers(61, 3000))
        t, v = np.sort(rng.choice(t, size)), rng.choice(v, size)
    elif draw(st.booleans()):
        t = np.sort(t)
    return np.column_stack([t, v])


@pytest.fixture(scope="module")
def long_exp1():
    return pg.run_experiment(pg.RunConfig(experiment="exp1", steps=100_000))[0]


class TestColumnDecimation:
    """format_plot_points writes, of each pixel column, the points that keep
    the column's extremes, and the oracle's bytes where a column holds at
    most two points."""

    @settings(max_examples=150, deadline=None)
    @given(xy=_plot_points(), log_y=st.booleans())
    def test_series(self, kernels, xy, log_y, tmp_path_factory):
        keep = np.isfinite(xy).all(axis=1) & (~log_y | (xy[:, 1] > 0))
        assume(keep.any())
        _check_plot(kernels, [("a", xy)], log_y, tmp_path_factory.mktemp("m4") / "a.svg")

    @pytest.mark.parametrize("n, seed", [(10_000, 5), (100_000, 6)])
    def test_random_walks(self, kernels, n, seed, tmp_path):
        rng = np.random.default_rng(seed)
        walk = np.cumsum(rng.standard_normal(n))
        t = np.arange(n)
        series = [("walk", np.column_stack([t, walk])),
                  ("steps", np.column_stack([t, np.round(walk / 8)]))]   # ties
        for log_y, values in ((False, series), (True, [("exp", np.column_stack(
                [t, np.exp(walk / 40)]))])):
            for pairs in _check_plot(kernels, values, log_y, tmp_path / "w.svg"):
                assert len(pairs) <= 4 * 713

    def test_golden_trajectories(self, kernels, golden_trajs, tmp_path):
        for traj in golden_trajs.values():
            _check_plot(kernels, _strategy_series(traj, True), False, tmp_path / "x.svg")
            _check_plot(kernels, _log_series(traj, True), True, tmp_path / "kl.svg")

    def test_long_exp1_run(self, kernels, long_exp1, tmp_path):
        for log_y in (False, True):
            written = _check_plot(kernels, _svg_series(long_exp1, log_y), log_y,
                                  tmp_path / "e.svg")
            assert all(len(pairs) <= 4 * 713 for pairs in written)
            assert sum(map(len, written)) < long_exp1.n_records

    def test_runs_across_blocks(self, kernels):
        # 20,000 columns of five points each write several native blocks:
        # the pass stops between runs and resumes at the next one.
        t = np.repeat(np.arange(20_000.0), 5) + np.tile([0.1, 0.3, 0.5, 0.7, 0.9], 20_000)
        v = np.random.default_rng(7).standard_normal(len(t))
        written = _check_decimation(kernels, np.column_stack([t, v]), False,
                                    (1.0, 0.0, 1.0, 1.0, 0.0) * 2)
        assert len(" ".join(written)) > 2 * _kernels._BLOCK_BYTES

    def test_point_rounded_up_to_a_column_edge(self, kernels):
        # x = t: 99.9996 is written 100.000, the first point of column 100,
        # so the point at 100.2, neither extreme nor last there, is dropped.
        t = [99.2, 99.5, 99.9996, 100.2, 100.4, 100.6, 100.8]
        v = [1.0, 2.0, 5.0, 4.0, 0.0, 9.0, 3.0]
        axes = (1.0, 0.0, 1.0, 1.0, 0.0) * 2
        written = _check_decimation(kernels, np.column_stack([t, v]), False, axes)
        assert written == ["99.200,1.000", "99.500,2.000", "100.000,5.000", "100.400,0.000",
                           "100.600,9.000", "100.800,3.000"]

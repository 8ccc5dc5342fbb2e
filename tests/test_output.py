import dataclasses
import hashlib

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import periodicgame as pg
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

    @pytest.mark.parametrize("points", [[(1, 2, 3), (4, 5)], [(1,), (2, 3)], [1.0, 2.0]],
                             ids=["long", "short", "scalars"])
    def test_malformed_points_rejected(self, points, tmp_path):
        with pytest.raises(pg.InputError, match="series 'bad'"):
            pg.emit_svg_plot([("ok", [(0, 1.0)]), ("bad", points)], str(tmp_path / "x.svg"))

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


def _golden_trajectories():
    eq22 = pg.JointState.from_probabilities([0.5, 0.5], [0.5, 0.5])
    game2x2 = pg.experiment_by_name("game2x2").game
    rps = pg.PeriodicGame(([[0, -1, 1], [1, 0, -1], [-1, 1, 0]],))
    uniform3 = pg.JointState.from_probabilities(np.full(3, 1 / 3), np.full(3, 1 / 3))
    game2x4 = pg.PeriodicGame(([[1.0, 0.0, -1.0, 0.5], [-0.5, 1.0, 0.0, -1.0]],
                               [[0.0, 1.0, 0.5, -1.0], [1.0, -1.0, 0.0, 0.25]]))
    boundary_init = pg.JointState.from_probabilities([0.45, 0.55], [0.45, 0.55])
    short = pg.run_trajectory(game2x2, "extra", boundary_init, 0.1, 5, reference=eq22)
    return {
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
    "mwu2x4_noref": ("8cb8a426c50161bfced09706b4ac61c871b8b137433b5ecbab931e601dc60f7a",
                    "b30baf251a5c75f4133463bc71241f006d5f7df03d715eba8f8d2301b0bb33e0",
                    "a6986075ccef4449304d4887fc516009f024be5878dd8accef1806526e7640ce"),
    "omwu2x2_boundary": ("e3eb1af8f90c2aeef1ae743b4a888f03a679633c330afa5ceca4ba33165c304b",
                        "e78850c42fdb4cd5c0c6eff31cc4bb4657b568f91e3f4137cb23eccb3f5174fd",
                        "b63db1674a278ef01fcfaee7500d332d9ee00b191dc1e9508617be5dfc808196"),
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

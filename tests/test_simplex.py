import copy
import dataclasses
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import periodicgame as pg
from conftest import (
    old_check_log_weights,
    old_kl_rows,
    old_kl_simplex,
    old_log_weights_from_probabilities,
)
from periodicgame._kernels_py import _player_kl_rows
from periodicgame.simplex import LOG_ZERO, fold_columns

# 0.5*ln(4/3) to 50 digits (offline extended-precision evaluation)
KL_QUARTER_THREEQ = 0.14384103622589046371960950299691371575175485544888


def joint(p1, p2):
    return pg.JointState.from_probabilities(p1, p2)


class TestSimplex:
    def test_softmax_normalization(self):
        s = pg.Simplex([0.0, 0.0])
        assert np.allclose(s.probabilities, [0.5, 0.5])
        assert abs(s.probabilities.sum() - 1.0) < 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            w = rng.uniform(-2.0, 2.0, size=4)
            c = rng.choice([-1.5, 0.25, 2.0])
            a = pg.normalize_log_weights(w)
            b = pg.normalize_log_weights(w + c)
            assert np.abs(a.log_weights - b.log_weights).max() <= 1e-15

    def test_shift_invariance_exact_probabilities(self):
        # When w + c carries no rounding at all, softmax sees the exact same
        # differences and the probabilities are bit-equal.
        rng = np.random.default_rng(10)
        for _ in range(100):
            w = rng.integers(-2000, 2000, size=3) / 1024.0
            a = pg.Simplex(w).probabilities
            b = pg.Simplex(w + 3.0).probabilities
            assert np.array_equal(a, b)

    def test_overflow_safe(self):
        s = pg.normalize_log_weights([1000.0, 1000.0 + math.log(3.0)])
        assert np.allclose(s.probabilities, [0.25, 0.75], atol=1e-15)

    def test_constant_weights_uniform(self):
        for c in (-7.0, 0.0, 123.456):
            s = pg.normalize_log_weights([c, c, c])
            assert np.allclose(s.probabilities, [1 / 3] * 3, atol=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            p = rng.dirichlet(np.ones(5))
            s = pg.Simplex.from_probabilities(p)
            back = pg.Simplex.from_probabilities(s.probabilities)
            assert np.abs(back.probabilities - p).max() <= 1e-14

    def test_boundary_weights_allowed(self):
        s = pg.Simplex([0.0, -np.inf])
        assert np.allclose(s.probabilities, [1.0, 0.0])

    def test_rejects_bad_input(self):
        with pytest.raises(pg.InputError):
            pg.Simplex([1.0])
        with pytest.raises(pg.InputError):
            pg.Simplex([-np.inf, -np.inf])
        with pytest.raises(pg.InputError):
            pg.Simplex([0.0, np.nan])
        with pytest.raises(pg.InputError):
            pg.Simplex.from_probabilities([0.6, 0.6])

    @pytest.mark.parametrize("name", ["probabilities", "log_probabilities"])
    def test_derived_arrays_cached_and_read_only(self, name):
        s = pg.Simplex([0.5, -1.0, 2.0])
        first = getattr(s, name)
        assert getattr(s, name) is first
        with pytest.raises(ValueError):
            first[0] = 0.0
        with pytest.raises(ValueError):
            first += 1.0

    @pytest.mark.parametrize("name", ["probabilities", "log_probabilities"])
    def test_new_simplex_computes_fresh_values(self, name):
        s = pg.Simplex([0.5, -1.0, 2.0])
        cached = getattr(s, name)
        moved = dataclasses.replace(s, log_weights=[2.0, -1.0, 0.5])
        assert np.array_equal(getattr(moved, name), getattr(s, name)[::-1])
        again = pg.Simplex([0.5, -1.0, 2.0])
        assert getattr(again, name) is not cached
        assert np.array_equal(getattr(again, name), cached)

    def test_sum_error_prints_a_plain_number(self):
        with pytest.raises(pg.InputError, match=r"must sum to 1, got 0\.4$"):
            pg.Simplex.from_probabilities(np.array([0.2, 0.2]))

    def test_overflowing_sum_raises_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(pg.InputError, match=r"must sum to 1, got inf$"):
                pg.Simplex.from_probabilities([1e308, 1e308])


class TestKlDivergence:
    def test_identity_is_zero(self):
        p = joint([0.5, 0.5], [0.5, 0.5])
        assert pg.kl_divergence(p, p) == 0.0

    def test_boundary_gives_inf(self):
        p = joint([0.5, 0.5], [0.5, 0.5])
        q = pg.JointState(pg.Simplex([0.0, -np.inf]), pg.Simplex([0.0, 0.0]))
        assert pg.kl_divergence(p, q) == math.inf

    def test_scalar_example(self):
        p = joint([0.5, 0.5], [0.5, 0.5])
        q = joint([0.25, 0.75], [0.5, 0.5])
        assert pg.kl_divergence(p, q) == pytest.approx(KL_QUARTER_THREEQ, abs=1e-14)

    def test_positive_off_diagonal(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            p = joint(rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(4)))
            q = joint(rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(4)))
            assert pg.kl_divergence(p, q) >= 0.0
            assert pg.kl_divergence(p, p) == 0.0
        assert pg.kl_divergence(p, q) > 0.0

    def test_zero_reference_mass_ignored(self):
        p = pg.JointState(pg.Simplex([0.0, -np.inf]), pg.Simplex([0.0, 0.0]))
        q = joint([0.5, 0.5], [0.5, 0.5])
        # 0 * ln(0/0.5) contributes nothing
        assert pg.kl_divergence(p, q) == pytest.approx(math.log(2.0), rel=1e-14)

    def test_underflow_cutoff(self):
        p = joint([0.5, 0.5], [0.5, 0.5])
        deep = pg.JointState(pg.Simplex([0.0, LOG_ZERO - 10.0]), pg.Simplex([0.0, 0.0]))
        shallow = pg.JointState(pg.Simplex([0.0, LOG_ZERO + 10.0]), pg.Simplex([0.0, 0.0]))
        assert pg.kl_divergence(p, deep) == math.inf
        assert math.isfinite(pg.kl_divergence(p, shallow))

    def test_dimension_mismatch(self):
        p, q = joint([0.5, 0.5], [0.5, 0.5]), joint([0.5, 0.5], [1 / 3] * 3)
        for call in (lambda: pg.kl_divergence(p, q), lambda: p.max_norm_distance(q),
                     lambda: q.max_norm_distance(p)):
            with pytest.raises(pg.InputError, match=r"dimension mismatch: \(2, [23]\) vs"):
                call()

    def test_kl_to_reference_needs_matching_blocks(self):
        ref = joint([0.5, 0.5], [0.5, 0.5])
        good = np.log(np.full((3, 2), 0.5))
        assert pg.simplex.kl_to_reference(ref, good, good).tolist() == [0.0] * 3
        for lp1, lp2 in ((good, good[:2]), (np.log(np.full((3, 3), 1 / 3)), good),
                         (good, good[:, :1]), (good[0], good[0]), (good, good[:, :, None])):
            with pytest.raises(pg.InputError, match=r"do not match the reference's dimensions"):
                pg.simplex.kl_to_reference(ref, lp1, lp2)


def _trajectory(times, rows=None, **over):
    rows = len(times) if rows is None else rows
    fields = dict(times=times, log_probs1=np.zeros((rows, 2)), log_probs2=np.zeros((rows, 2)),
                  kl_to_ref=np.zeros(rows), min_component=np.zeros(rows), period=1,
                  eta=0.1, algo="mwu")
    fields.update(over)
    return pg.Trajectory(**fields)


class TestTrajectoryValidation:
    def test_times_far_apart_are_increasing(self):
        traj = _trajectory([-2**63, 2**63 - 1])
        assert traj.times.tolist() == [-2**63, 2**63 - 1] and not traj.is_contiguous

    @pytest.mark.parametrize("times", [[], [0, 0], [3, 2], [2**63 - 1, -2**63], [[0, 1]]])
    def test_times_must_increase(self, times):
        with pytest.raises(pg.InputError, match="strictly increasing"):
            _trajectory(times, rows=1)

    @pytest.mark.parametrize("field, value", [
        ("log_probs1", np.zeros((3, 2))), ("log_probs2", np.zeros((6, 2))),
        ("kl_to_ref", np.zeros(4)), ("min_component", np.zeros(0)),
        ("min_component", np.float64(0.5))])
    def test_one_row_per_time(self, field, value):
        with pytest.raises(pg.InputError, match=r"one row per recorded time \(5\)"):
            _trajectory(list(range(5)), **{field: value})


# Row values for the fold parity tests: infinities, both zeros, NaN, values
# below LOG_ZERO and ordinary numbers.
_FOLD_POOL = np.array([np.inf, -np.inf, 0.0, -0.0, np.nan, LOG_ZERO - 1.0, -1e308,
                       -2.5, 1.0, 3.0, 5e-324])


def _bits(a):
    """The bit patterns of a float array, with every NaN as one pattern."""
    a = np.asarray(a, dtype=np.float64)
    return np.where(np.isnan(a), np.nan, a).view(np.uint64)


def _row_loop(ufunc, a, start=None):
    """The reference fold: one row at a time, left to right, in Python."""
    out = []
    for row in a:
        acc = row[0] if start is None else ufunc(start, row[0])
        for v in row[1:]:
            acc = ufunc(acc, v)
        out.append(acc)
    return np.array(out, dtype=a.dtype)


class TestFoldColumns:
    @pytest.mark.parametrize("width", range(1, 13))
    @pytest.mark.parametrize("ufunc", [np.minimum, np.maximum])
    def test_min_max_match_reduce(self, ufunc, width):
        rng = np.random.default_rng(width)
        a = rng.choice(_FOLD_POOL, size=(4000, width))
        folded, reduced = fold_columns(ufunc, a), ufunc.reduce(a, axis=1)
        # numpy's vectorised reductions pick either zero of a +0/-0 tie by
        # their lane order (from width 9 up with numpy 2.4), so a zero result
        # is compared by value; its sign is the left-to-right one below.
        zero = (folded == 0.0) & (reduced == 0.0)
        assert np.array_equal(_bits(folded)[~zero], _bits(reduced)[~zero])
        assert np.array_equal(_bits(folded), _bits(_row_loop(ufunc, a)))

    @pytest.mark.parametrize("width", range(1, 13))
    @pytest.mark.parametrize("ufunc", [np.logical_or, np.logical_and])
    def test_logical_match_reduce(self, ufunc, width):
        rng = np.random.default_rng(100 + width)
        a = rng.choice(_FOLD_POOL, size=(4000, width))
        for mask in (a < LOG_ZERO, np.isfinite(a)):
            assert np.array_equal(fold_columns(ufunc, mask), ufunc.reduce(mask, axis=1))

    @pytest.mark.parametrize("width", range(1, 13))
    def test_sum_is_left_to_right_from_positive_zero(self, width):
        rng = np.random.default_rng(200 + width)
        a = rng.standard_normal((500, width)) * 10.0 ** rng.integers(-12, 12, (500, width))
        a[:50] = rng.choice(_FOLD_POOL, size=(50, width))
        a[50:60] = -0.0
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf and 1e308 sums
            folded = fold_columns(np.add, a)
            looped = _row_loop(np.add, a, start=0.0)
        assert np.array_equal(_bits(folded), _bits(looped))
        assert _bits(folded[50:60]).tolist() == [0] * 10  # +0.0, not -0.0

    @pytest.mark.parametrize("ufunc", [np.add, np.minimum, np.logical_or])
    def test_result_is_a_new_array(self, ufunc):
        a = np.zeros((5, 1), dtype=bool if ufunc is np.logical_or else np.float64)
        assert not np.shares_memory(fold_columns(ufunc, a), a)


class TestGameTypes:
    def test_matrix_validation(self):
        with pytest.raises(pg.InputError):
            pg.PayoffMatrix([[1.0, np.inf], [0.0, 0.0]])
        with pytest.raises(pg.InputError):
            pg.PayoffMatrix([[1.0, 2.0]])

    def test_schedule_wraps(self, game2x2):
        assert game2x2.period == 2
        assert np.array_equal(game2x2.matrix_at(0).entries, game2x2.matrix_at(4).entries)
        assert np.array_equal(game2x2.matrix_at(-1).entries, game2x2.matrix_at(1).entries)

    def test_mixed_shapes_rejected(self):
        with pytest.raises(pg.InputError):
            pg.PeriodicGame((np.zeros((2, 2)), np.zeros((3, 3))))


# Log-weight and log-probability entries for the oracle tests: zero-mass
# and vanished coordinates (-inf, at and just below LOG_ZERO, mass that
# underflows against a 0.0 entry), both zeros, NaN, and ordinary values.
_BELOW = float(np.nextafter(LOG_ZERO, -np.inf))
_KL_POOL = [-np.inf, LOG_ZERO, _BELOW, LOG_ZERO + 1e-9, -744.5, -800.0, 0.0, -0.0,
            np.nan, -1e308, 1e308, -2.5, -1e-300]


def _entries(allow_nan):
    pool = [v for v in _KL_POOL if allow_nan or not math.isnan(v)]
    return st.one_of(st.sampled_from(pool),
                     st.floats(-60.0, 5.0, allow_nan=False, allow_infinity=False))


@st.composite
def _reference_and_rows(draw):
    k = draw(st.integers(2, 8))
    ref_lw = draw(st.lists(_entries(False), min_size=k, max_size=k).filter(
        lambda lw: np.isfinite(lw).any()))
    rows = draw(st.integers(1, 6))
    lp = draw(st.lists(_entries(True), min_size=k * rows, max_size=k * rows))
    return pg.Simplex(ref_lw), np.array(lp).reshape(rows, k)


def _kl_rows(ref, log_probs):
    """One player's KL rows as the Python backend adds them up."""
    return _player_kl_rows(ref.probabilities, ref.log_probabilities, log_probs, LOG_ZERO)


class TestKlOracle:
    """The column-by-column KL rows and the scalar KL give the bits of the
    broadcast block they replace (NaN compared as one pattern)."""

    @settings(max_examples=200, deadline=None)
    @given(_reference_and_rows())
    def test_kl_rows_match_the_broadcast_block(self, case):
        ref, lp = case
        with np.errstate(all="ignore"):
            old = _bits(old_kl_rows(ref, lp))
            assert np.array_equal(_bits(_kl_rows(ref, lp)), old)
            assert np.array_equal(_bits(_kl_rows(ref, np.asfortranarray(lp))), old)

    @settings(max_examples=200, deadline=None)
    @given(_reference_and_rows())
    def test_kl_simplex_matches_the_block(self, case):
        ref, lp = case
        rows = [r for r in lp if np.isfinite(r).any() and not np.isnan(r).any()
                and not np.isposinf(r).any()]
        for r in rows:
            q = pg.Simplex(r)
            with np.errstate(all="ignore"):
                got, want = pg.kl_simplex(ref, q), old_kl_simplex(ref, q)
            assert _bits([got]).tolist() == _bits([want]).tolist()

    def test_zero_mass_vanished_and_signed_zero_rows(self):
        ref = pg.Simplex([0.0, -np.inf, 0.0])
        lp = np.array([[-np.inf, 0.0, -0.0], [0.0, -np.inf, _BELOW], [-0.0, 5.0, LOG_ZERO],
                       [-0.693, np.nan, -0.693]])
        got = _kl_rows(ref, lp)
        assert np.array_equal(_bits(got), _bits(old_kl_rows(ref, lp)))
        assert got[:2].tolist() == [math.inf, math.inf] and math.isfinite(got[2])
        # A -0.0 log-weight stays -0.0 once normalized, so a term can be
        # -0.0; the sum from +0.0 makes it +0.0.
        ref = pg.Simplex([-0.0, -np.inf])
        lp = np.array([[0.0, 0.0], [0.0, -np.inf]])
        got = _kl_rows(ref, lp)
        assert _bits(got).tolist() == _bits(old_kl_rows(ref, lp)).tolist() == [0, 0]
        q = pg.Simplex([0.0, -np.inf])
        got = pg.kl_simplex(ref, q)
        assert _bits([got]).tolist() == _bits([old_kl_simplex(ref, q)]).tolist() == [0]


def _fresh_simplex_values(s):
    again = pg.Simplex(np.array(s.log_weights))
    return again.probabilities, again.log_probabilities


@pytest.mark.parametrize("clone", [copy.deepcopy, copy.copy,
                                   lambda v: pickle.loads(pickle.dumps(v))],
                         ids=["deepcopy", "copy", "pickle"])
class TestCopiesRebuild:
    """A copy or unpickled value is rebuilt through __init__: read-only
    arrays and no cached value carried over from the original."""

    def test_simplex(self, clone):
        s = pg.Simplex([0.5, -1.0, 2.0])
        s.probabilities, s.log_probabilities  # fill the cache
        c = clone(s)
        assert not vars(c).keys() & {"probabilities", "log_probabilities"}
        assert not c.log_weights.flags.writeable
        assert not c.probabilities.flags.writeable
        for got, want in zip((c.probabilities, c.log_probabilities), _fresh_simplex_values(s)):
            assert np.array_equal(got, want)
        with pytest.raises(ValueError):
            c.log_weights[0] = 9.0

    def test_payoff_matrix(self, clone):
        a = pg.PayoffMatrix([[1.0, -2.0], [0.5, 3.0]])
        norm = a.spectral_norm
        c = clone(a)
        assert "spectral_norm" not in vars(c)
        assert not c.entries.flags.writeable
        assert c.spectral_norm == norm == float(np.linalg.norm(np.array(a.entries), 2))

    def test_periodic_game(self, clone, game2x2):
        game2x2.stacked()
        c = clone(game2x2)
        assert "_stacked" not in vars(c)
        assert not c.stacked().flags.writeable
        assert np.array_equal(c.stacked(), np.stack([a.entries for a in game2x2.matrices]))
        assert all(not a.entries.flags.writeable for a in c.matrices)


class TestPerGameConstants:
    def test_stacked_is_one_read_only_array(self, game2x2):
        game = pg.PeriodicGame(game2x2.matrices)
        first = game.stacked()
        assert game.stacked() is first
        assert not first.flags.writeable
        assert np.array_equal(first, np.stack([a.entries for a in game.matrices]))

    def test_spectral_norm_is_computed_once(self, rps):
        a = pg.PayoffMatrix(rps.entries)
        assert a.spectral_norm == float(np.linalg.norm(rps.entries, 2))
        assert "spectral_norm" in vars(a)
        assert pg.max_step_size(pg.PeriodicGame((a,))) == 1.0 / a.spectral_norm


# Entries for the validator parity tests: NaN, both infinities, both zeros,
# subnormals of either sign, the smallest normal, the extremes and ordinary
# values.
_SUB = 5e-324
_TINY = 2.2250738585072014e-308
_NON_FINITE = [np.nan, np.inf, -np.inf]
_VALIDATOR_POOL = _NON_FINITE + [0.0, -0.0, _SUB, -_SUB, 1e-310, _TINY, 1e308, -1e308,
                                 LOG_ZERO, 1.0, -1.0]


def _log_weight_lists(k):
    """k entries from the pool, or from NaN and the infinities alone with
    -inf weighted up: NaN among infinities, and all -inf."""
    entry = st.one_of(st.sampled_from(_VALIDATOR_POOL), st.floats(-50.0, 50.0))
    return st.one_of(st.lists(entry, min_size=k, max_size=k),
                     st.lists(st.sampled_from(_NON_FINITE + [-np.inf] * 2),
                              min_size=k, max_size=k))


_log_weight_vectors = st.integers(2, 8).flatmap(_log_weight_lists).map(np.array)


@st.composite
def _probability_vectors(draw):
    """Normalized weights with zeros and subnormals among them, sometimes
    scaled off the unit sum, with up to three entries then overwritten
    from the pool."""
    k = draw(st.integers(2, 8))
    w = np.array(draw(st.lists(st.one_of(st.floats(0.01, 1.0),
                                         st.sampled_from([0.0, -0.0, _SUB, 1e-310, _TINY])),
                               min_size=k, max_size=k)))
    if not w.sum() > 0.0:
        w[0] = 1.0
    p = w / w.sum() * draw(st.sampled_from([1.0, 1.0, 1.0, 0.5, 1.0 + 5e-10, 1.0 + 2e-9]))
    for i in draw(st.lists(st.integers(0, k - 1), max_size=3)):
        p[i] = draw(st.sampled_from(_VALIDATOR_POOL))
    return p


def _outcome(build, arr):
    """What a validator did with ``arr``: the type and message of the error it
    raised (a RuntimeWarning included), or the bits of the array it kept."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            kept = build(arr)
    except Exception as e:
        return type(e), str(e)
    return _bits(kept).tolist()


class TestValidatorOracle:
    """The one- and two-reduction validators raise what the multi-pass
    checks they replaced raised, with the same type, message and precedence,
    RuntimeWarnings included, and keep the same bits when they accept."""

    @settings(max_examples=300, deadline=None)
    @given(_log_weight_vectors)
    @example(np.array([np.nan, np.inf]))
    @example(np.array([-np.inf, np.nan, -np.inf]))
    @example(np.array([-np.inf, -np.inf]))
    @example(np.array([-np.inf, np.inf]))
    def test_log_weights(self, lw):
        assert (_outcome(lambda a: pg.Simplex(a).log_weights, lw)
                == _outcome(old_check_log_weights, lw))

    @settings(max_examples=300, deadline=None)
    @given(_probability_vectors())
    @example(np.array([np.nan, 2.0]))
    @example(np.array([-0.0, -1.0, np.inf]))
    @example(np.array([0.0, -0.0, 1.0]))
    @example(np.array([_SUB, 1.0]))
    @example(np.array([1e308, 1e308]))
    def test_from_probabilities(self, p):
        assert (_outcome(lambda a: pg.Simplex.from_probabilities(a).log_weights, p)
                == _outcome(old_log_weights_from_probabilities, p))

    @pytest.mark.parametrize("p", [[0.0, 1.0], [-0.0, 1.0], [_SUB, 1.0], [1e-310, 0.5, 0.5],
                                   [0.0, -0.0, _SUB, 1.0]])
    def test_no_runtime_warning_at_the_boundary(self, p):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = pg.Simplex.from_probabilities(p)
            joint_state = pg.JointState.from_probabilities(p, p[::-1])
        want = _bits(old_log_weights_from_probabilities(np.array(p))).tolist()
        assert _bits(s.log_weights).tolist() == want
        assert _bits(joint_state.x1.log_weights).tolist() == want

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fuzzyarith import (
    AlphaGrid,
    FuzzyNumber,
    Interval,
    crisp,
    from_levels,
    fuzzy_from_json,
    trapezoidal,
    triangular,
)

from helpers import random_shape, reference_alpha_cut


def test_alpha_grid_levels():
    g = AlphaGrid(4)
    assert np.allclose(g.alphas(), [0.0, 0.25, 0.5, 0.75, 1.0])
    assert AlphaGrid.coerce(10) == AlphaGrid(10)
    assert AlphaGrid.coerce(g) is g
    with pytest.raises(ValueError):
        AlphaGrid(0)


def test_triangular_levels_follow_side_lines():
    a = triangular(-2.0, 0.0, 1.0)
    alphas = a.grid.alphas()
    assert np.allclose(a.los, -2.0 + 2.0 * alphas)
    assert np.allclose(a.his, 1.0 - 1.0 * alphas)
    assert a.support == Interval(-2.0, 1.0)
    assert a.core == Interval(0.0, 0.0)


def test_trapezoidal_levels():
    a = trapezoidal(0.0, 1.0, 2.0, 4.0, grid=10)
    assert a.level(0) == Interval(0.0, 4.0)
    assert a.level(10) == Interval(1.0, 2.0)
    assert a.level(5) == Interval(0.5, 3.0)


def test_crisp_is_constant():
    a = crisp(2.5, grid=5)
    assert np.all(a.los == 2.5)
    assert np.all(a.his == 2.5)


def test_shape_validation():
    with pytest.raises(ValueError):
        triangular(3.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        trapezoidal(0.0, 2.0, 1.0, 4.0)
    with pytest.raises(ValueError):
        triangular(0.0, 1.0, 2.0, grid=0)


def test_alpha_cut_interpolates_between_grid_levels():
    a = triangular(1.0, 2.0, 3.0, grid=2)
    # grid alphas are 0, 0.5, 1; alpha 0.25 sits halfway up the first band
    assert a.alpha_cut(0.25).approx_equal(Interval(1.25, 2.75), tol=1e-12)
    assert a.alpha_cut(0.0) == a.level(0)
    assert a.alpha_cut(1.0) == a.level(2)
    with pytest.raises(ValueError):
        a.alpha_cut(1.5)
    with pytest.raises(ValueError):
        a.alpha_cut(-0.1)


def test_membership_triangular_values():
    a = triangular(1.0, 2.0, 3.0)
    assert a.membership(2.0) == 1.0
    assert a.membership(1.5) == pytest.approx(0.5, abs=1e-12)
    assert a.membership(2.5) == pytest.approx(0.5, abs=1e-12)
    assert a.membership(0.0) == 0.0
    assert a.membership(1.0) == 0.0
    assert a.membership(3.0) == 0.0


def test_membership_trapezoid_plateau():
    a = trapezoidal(0.0, 1.0, 2.0, 4.0)
    assert a.membership(1.5) == 1.0
    assert a.membership(3.0) == pytest.approx(0.5, abs=1e-12)


def test_membership_vectorized_matches_scalar():
    a = trapezoidal(-1.0, 0.5, 1.0, 2.0)
    xs = np.linspace(-2.0, 3.0, 101)
    vec = a.membership(xs)
    assert vec.shape == xs.shape
    for x, m in zip(xs, vec):
        assert m == pytest.approx(a.membership(float(x)), abs=1e-12)


def test_membership_crisp_point():
    a = crisp(2.0)
    assert a.membership(2.0) == 1.0
    assert a.membership(2.0 + 1e-9) == 0.0


def test_levels_are_nested_and_antitone():
    a = random_shape(np.random.default_rng(7))
    assert a.is_nested
    for i in range(1, a.k + 1):
        assert a.level(i - 1).contains(a.level(i))


def test_constructor_rejects_non_nested():
    los = np.array([0.0, 0.5, 0.4])
    his = np.array([3.0, 2.0, 1.0])
    with pytest.raises(ValueError, match="nested"):
        FuzzyNumber(los, his)


def test_constructor_repairs_tiny_violations():
    los = np.array([0.0, 0.5, 0.5 - 1e-13])
    his = np.array([3.0, 2.0, 1.0])
    a = FuzzyNumber(los, his)
    assert a.is_nested
    assert a.los[2] >= a.los[1]


def test_constructor_repairs_crossing_below_an_earlier_lower_end():
    # the crossed core's midpoint 5e-14 lies below the level before it
    a = from_levels([[0.0, 1.0], [1e-13, 0.5], [1e-13, 0.0]])
    assert a.is_nested
    assert a.los[1] == a.los[2] == a.his[2] == 5e-14


def test_constructor_rejects_crossed_endpoints():
    with pytest.raises(ValueError):
        FuzzyNumber(np.array([0.0, 2.0]), np.array([3.0, 1.0]))


def test_from_levels_round_trip():
    a = triangular(1.0, 2.0, 3.0, grid=4)
    stacked = np.column_stack([a.los, a.his])
    b = from_levels(stacked)
    assert a == b
    with pytest.raises(ValueError):
        from_levels(np.zeros((1, 2)))
    with pytest.raises(ValueError):
        from_levels(np.zeros((3, 3)))


def test_resample_preserves_piecewise_linear_shapes():
    a = triangular(1.0, 2.0, 3.0, grid=10)
    b = a.resample(AlphaGrid(100))
    c = triangular(1.0, 2.0, 3.0, grid=100)
    assert b.approx_equal(c, tol=1e-12)
    assert a.resample(10) is a
    # downsampling a piecewise-linear shape is exact too
    assert c.resample(AlphaGrid(10)).approx_equal(a, tol=1e-12)


def test_json_round_trip():
    a = trapezoidal(0.0, 1.0, 2.0, 4.0, grid=7)
    assert fuzzy_from_json(a.to_json()) == a


def test_json_shorthands():
    assert fuzzy_from_json({"tri": [1, 2, 3]}) == triangular(1.0, 2.0, 3.0)
    assert fuzzy_from_json({"trap": [0, 1, 2, 4], "K": 10}) == trapezoidal(0.0, 1.0, 2.0, 4.0, grid=10)
    assert fuzzy_from_json({"crisp": [2]}) == crisp(2.0)
    with pytest.raises(ValueError):
        fuzzy_from_json({"nope": [1]})


def test_equality_and_approx_equal():
    a = triangular(1.0, 2.0, 3.0)
    b = triangular(1.0, 2.0, 3.0)
    assert a == b
    assert a != triangular(1.0, 2.0, 3.0, grid=50)
    shifted = FuzzyNumber(b.los + 1e-12, b.his)
    assert a.approx_equal(shifted, tol=1e-9)
    assert not a.approx_equal(shifted, tol=1e-14)


strict_params = st.tuples(
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
    st.floats(min_value=0.01, max_value=20.0),
    st.floats(min_value=0.01, max_value=20.0),
)


@given(strict_params)
def test_membership_inverts_cut_endpoints_on_strict_shapes(params):
    # Only valid when both sides have nonzero slope; flat sides map a whole
    # segment to one membership value and the inverse is not unique.
    a0, g1, g2 = params
    a = triangular(a0, a0 + g1, a0 + g1 + g2)
    for i in (10, 37, 50, 88, 100):
        lo, hi = a.los[i], a.his[i]
        alpha = i / a.k
        scale = max(1.0, abs(lo), abs(hi))
        assert a.membership(float(lo)) == pytest.approx(alpha, abs=1e-9 * scale)
        assert a.membership(float(hi)) == pytest.approx(alpha, abs=1e-9 * scale)


@given(strict_params, st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
def test_alpha_cuts_are_antitone(params, a1, a2):
    a0, g1, g2 = params
    a = triangular(a0, a0 + g1, a0 + g1 + g2)
    small, large = min(a1, a2), max(a1, a2)
    assert a.alpha_cut(small).contains(a.alpha_cut(large), tol=1e-12)


def test_arrays_are_read_only():
    a = triangular(1.0, 2.0, 3.0)
    with pytest.raises(ValueError):
        a.los[0] = -10.0


def _bits(*ends):
    return np.array(ends, dtype=float).tobytes()


def test_alpha_cuts_match_alpha_cut_bit_for_bit(rng):
    shapes = [random_shape(rng, grid=k) for k in (1, 7, 100, 1000)]
    shapes += [crisp(-0.0, grid=3), triangular(-1.0, 0.0, 1.0, grid=10)]
    for a in shapes:
        alphas = np.concatenate([rng.random(64), [0.0, -0.0, 1.0, np.nextafter(1.0, 0.0)],
                                 a.grid.alphas()])
        los, his = a.alpha_cuts(alphas)
        assert los.shape == his.shape == alphas.shape
        for alpha, lo, hi in zip(alphas.tolist(), los.tolist(), his.tolist()):
            iv = a.alpha_cut(alpha)
            assert _bits(lo, hi) == _bits(iv.lo, iv.hi) == _bits(*reference_alpha_cut(a, alpha))


def test_alpha_cuts_reject_what_alpha_cut_rejects():
    a = triangular(1.0, 2.0, 3.0, grid=4)
    for bad in (1.5, -0.1, float("nan"), float("inf")):
        message = f"^alpha must lie in \\[0, 1\\], got {bad!r}$"
        with pytest.raises(ValueError, match=message):
            a.alpha_cut(bad)
        with pytest.raises(ValueError, match=message):
            a.alpha_cuts([0.5, bad, 2.0])
    # a step wider than the largest float interpolates to a non-finite end
    with np.errstate(over="ignore"):
        wide = FuzzyNumber([-1.5e308, 1.5e308], [1.6e308, 1.6e308])
    with pytest.raises(ValueError, match=r"^interval endpoints must be finite, got \[inf, 1\.6e\+308\]$"):
        wide.alpha_cuts([0.5, 1.0])
    with pytest.raises(ValueError, match="^interval endpoints must be finite"):
        wide.alpha_cut(0.5)


def test_levels_more_than_the_float_range_apart_build_without_warnings():
    # no errstate here: the suite turns a RuntimeWarning into an error
    wide = FuzzyNumber([-1.5e308, 1.5e308], [1.6e308, 1.6e308])
    assert wide.level(0) == Interval(-1.5e308, 1.6e308)
    with pytest.raises(ValueError, match="^levels are not nested$"):
        FuzzyNumber([1.5e308, -1.5e308], [1.6e308, 1.6e308])


def test_grid_nodes_keep_their_stored_level_across_a_step_wider_than_floats():
    with np.errstate(over="ignore"):  # the constructor is the test above's
        wide = FuzzyNumber([-1.5e308, 1.5e308], [1.6e308, 1.6e308])
    assert wide.alpha_cut(0.0) == wide.level(0)
    los, his = wide.alpha_cuts([0.0, 1.0])
    assert los.tolist() == [-1.5e308, 1.5e308] and his.tolist() == [1.6e308, 1.6e308]

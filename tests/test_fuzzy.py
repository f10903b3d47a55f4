import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fuzzyarith import (
    FuzzyNumber,
    Interval,
    compare_levels,
    crisp,
    from_levels,
    fuzzy_from_json,
    trapezoidal,
    triangular,
)

from fuzzyarith import fuzzy
from fuzzyarith.fuzzy import GRID_CACHE_SIZE, MERGE_MIN_RATIO, NEST_TOL, NEST_ULPS

from helpers import (grid_builds, random_shape, reference_alpha_cut, reference_fuzzy_ends,
                     reference_membership, wider_than_floats)

_MAX = float(np.finfo(float).max)
_HALF = _MAX / 2

# A support and a lower step exactly as wide as the float range, and the
# same step on the upper curve.
_WIDEST = FuzzyNumber([-_HALF, _HALF], [_HALF, _HALF])
_WIDEST_UPPER = FuzzyNumber([-_HALF, -_HALF], [_HALF, -_HALF])


def test_alpha_grid_levels():
    assert triangular(1.0, 2.0, 3.0, grid=4).alphas.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    # a grid is its K, an int of at least 1, wherever it enters
    enter = (lambda k: triangular(1.0, 2.0, 3.0, grid=k),
             lambda k: trapezoidal(1.0, 2.0, 3.0, 4.0, grid=k),
             lambda k: crisp(1.0, grid=k),
             lambda k: crisp(1.0).resample(k))
    for k, message in ((0, "grid size must be at least 1, got 0"),
                       (2.0, "grid size must be an integer, got 2.0"),
                       (True, "grid size must be an integer, got True"),
                       ("3", "grid size must be an integer, got '3'")):
        for make in enter:
            with pytest.raises(ValueError) as info:
                make(k)
            assert str(info.value) == message


def test_triangular_levels_follow_side_lines():
    a = triangular(-2.0, 0.0, 1.0)
    alphas = a.alphas
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


def test_a_float32_parameter_builds_what_its_float_builds():
    # no errstate: the suite turns a RuntimeWarning into an error
    p = np.float32(0.1)
    assert triangular(p, 2, 3) == triangular(float(p), 2.0, 3.0)
    assert trapezoidal(1, 2, 3, np.float32(4)) == trapezoidal(1.0, 2.0, 3.0, 4.0)
    assert fuzzy_from_json({"tri": [np.float32(1), 2, 3]}) == triangular(1.0, 2.0, 3.0)


def test_shape_validation():
    with pytest.raises(ValueError):
        triangular(3.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        trapezoidal(0.0, 2.0, 1.0, 4.0)
    with pytest.raises(ValueError):
        triangular(0.0, 1.0, 2.0, grid=0)


@pytest.mark.parametrize("make, message", [
    (lambda: triangular(3, 2, 1), "triangular parameters must satisfy a <= b <= c, got (3, 2, 1)"),
    (lambda: triangular(0.0, -0.5, 2.0, grid=0),
     "triangular parameters must satisfy a <= b <= c, got (0.0, -0.5, 2.0)"),
    (lambda: trapezoidal(0.0, 2.0, 1.0, 4.0),
     "trapezoidal parameters must satisfy a <= b <= c <= d, got (0.0, 2.0, 1.0, 4.0)"),
    (lambda: trapezoidal(1, 2, 3, 2.5),
     "trapezoidal parameters must satisfy a <= b <= c <= d, got (1, 2, 3, 2.5)"),
])
def test_shapes_reject_parameters_out_of_order_naming_them(make, message):
    # before the grid size is checked, with the parameters as given
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


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
    assert a.los[2] >= a.los[1]


def test_constructor_repairs_crossing_below_an_earlier_lower_end():
    # the crossed core's midpoint 5e-14 lies below the level before it
    a = from_levels([[0.0, 1.0], [1e-13, 0.5], [1e-13, 0.0]])
    assert a.los[1] == a.los[2] == a.his[2] == 5e-14


@pytest.mark.parametrize("make, message", [
    (lambda: FuzzyNumber([0.0, 1.0], [1.0, 2.0, 3.0]),
     "endpoint arrays must be 1-d and of equal length"),
    (lambda: fuzzy_from_json([1, 2]), "expected an object describing a fuzzy number, got [1, 2]"),
    (lambda: fuzzy_from_json({"K": 2, "levels": [[0, 1], [0, 1]]}),
     "levels length 2 does not match K=2"),
], ids=["ragged-ends", "json-list", "json-levels-vs-K"])
def test_malformed_input_names_the_cause(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


def test_numbers_on_other_grids_or_of_other_types_are_not_equal():
    a = triangular(1.0, 2.0, 3.0, grid=4)
    with pytest.raises(ValueError, match="grid mismatch"):
        compare_levels(a, a.resample(8))
    assert a.__eq__(1) is NotImplemented
    assert (a == 1) is False


def test_attributes_cannot_be_set():
    a = triangular(1.0, 2.0, 3.0, grid=4)
    for name, value in (("_los", a.his), ("extra", 1)):
        with pytest.raises(AttributeError, match="^FuzzyNumber instances are immutable$"):
            setattr(a, name, value)
    assert a == triangular(1.0, 2.0, 3.0, grid=4)


def test_constructor_rejects_crossed_endpoints():
    with pytest.raises(ValueError):
        FuzzyNumber(np.array([0.0, 2.0]), np.array([3.0, 1.0]))


_ENDS = (st.sampled_from([-0.0, 0.0, 1.0, -1.0, 0.5, -1.7e308, 1.7e308, -_MAX, _MAX])
         | st.floats(-4.0, 4.0) | st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _endpoint_arrays(draw):
    """Ends that are exactly nested, with tied ends and -0.0 next to 0.0;
    nested up to NEST_TOL or NEST_ULPS ulps; crossed or unnested beyond
    that; or holding NaN or +-inf at any index."""
    k = draw(st.sampled_from([1, 2, 5, 30]))
    pts = sorted(draw(st.lists(_ENDS, min_size=2 * (k + 1), max_size=2 * (k + 1))))
    los, his = np.array(pts[:k + 1]), np.array(pts[k + 1:][::-1])
    kind = draw(st.sampled_from(["nested", "slack", "beyond", "nonfinite"]))
    if kind != "nested":
        ends = los if draw(st.booleans()) else his
        i = draw(st.integers(0, k))
        if kind == "nonfinite":
            ends[i] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        else:
            big = float(np.abs(np.concatenate((los, his))).max())
            size = draw(st.sampled_from([NEST_TOL, NEST_ULPS * math.ulp(big)]))
            size *= draw(st.sampled_from([0.5, 1.0]) if kind == "slack"
                         else st.sampled_from([2.0, 1e6]))
            with np.errstate(over="ignore"):
                ends[i] += draw(st.sampled_from([-size, size]))
    return los, his


def _stored(los, his):
    try:
        a = FuzzyNumber(los, his)
    except ValueError as e:
        return str(e)
    return a.los, a.his


@settings(max_examples=300)
@given(_endpoint_arrays())
@example((np.array([-0.0, 0.0, -0.0]), np.array([0.0, -0.0, -0.0])))
@example((np.array([0.0, 1.0]), np.array([1.0, 1.0 - 1e-13])))    # crossed within the slack
@example((np.array([0.5, 0.5 - 4e-13]), np.array([2.0, 1.0])))    # unnested within it
@example((np.array([-math.inf, 0.0]), np.array([1.0, 0.5])))
@example((np.array([0.0, 0.5]), np.array([1.0, math.nan])))
@example((np.array([1e308, 1.7e308]), np.array([1.75e308, np.nextafter(1.7e308, 0.0)])))
def test_constructor_matches_the_check_and_repair_reference(ends):
    """The exact-nesting check stores what checking and repairing every
    input gives, bit for bit, and raises the same messages."""
    los, his = ends
    before = los.copy(), his.copy()
    got, want = _stored(los, his), _outcome(lambda: reference_fuzzy_ends(los, his))
    if isinstance(want, str):
        assert got == want
    else:
        for g, w in zip(got, want):
            assert np.array_equal(g, w) and np.array_equal(np.signbit(g), np.signbit(w))
    # the caller's arrays are neither changed nor frozen
    for arr, saved in zip(ends, before):
        assert arr.flags.writeable and arr.tobytes() == saved.tobytes()


@st.composite
def _nested_arrays(draw):
    """Exactly nested ends with plateaus, equal neighbours and both signed
    zeros: a sort keeps -0.0 and 0.0 in the order drawn."""
    k = draw(st.sampled_from([1, 2, 5, 30]))
    ends = st.sampled_from([-1.0, -0.0, 0.0, 2.0]) | st.floats(-4.0, 4.0)
    pts = sorted(draw(st.lists(ends, min_size=2 * (k + 1), max_size=2 * (k + 1))))
    return np.array(pts[:k + 1]), np.array(pts[k + 1:][::-1])


SIGNED_ZERO_ENDS = ([0.0, -0.0, -0.0, 0.0, -0.0], [0.0, 0.0, -0.0, -0.0, -0.0])


@settings(max_examples=150)
@given(_nested_arrays())
@example(SIGNED_ZERO_ENDS)
def test_exactly_nested_ends_are_stored_as_copies(ends):
    # FuzzyNumber(los, his) stores the running extremes of exactly nested
    # ends, sign bits included, and keeps them when the caller's arrays change
    # afterwards; those stay the caller's, writeable.  The arrays are fresh on
    # every run, as the test writes into them
    los, his = (np.array(e) for e in ends)
    a = FuzzyNumber(los, his)
    want = np.maximum.accumulate(los).tobytes(), np.minimum.accumulate(his).tobytes()
    assert (a.los.tobytes(), a.his.tobytes()) == want
    assert los.flags.writeable and his.flags.writeable
    los[:] = -7.0
    his[:] = 7.0
    assert (a.los.tobytes(), a.his.tobytes()) == want


def _outcome(fn):
    try:
        return fn()
    except ValueError as e:
        return str(e)


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
    b = a.resample(100)
    c = triangular(1.0, 2.0, 3.0, grid=100)
    assert all(r.equal for r in compare_levels(b, c, 1e-12))
    assert a.resample(10) is a
    # downsampling a piecewise-linear shape is exact too
    assert all(r.equal for r in compare_levels(c.resample(10), a, 1e-12))


def test_json_round_trip():
    a = trapezoidal(0.0, 1.0, 2.0, 4.0, grid=7)
    assert fuzzy_from_json(a.to_json()) == a


def test_json_shorthands():
    assert fuzzy_from_json({"tri": [1, 2, 3]}) == triangular(1.0, 2.0, 3.0)
    assert fuzzy_from_json({"trap": [0, 1, 2, 4], "K": 10}) == trapezoidal(0.0, 1.0, 2.0, 4.0, grid=10)
    assert fuzzy_from_json({"crisp": [2]}) == fuzzy_from_json({"crisp": 2}) == crisp(2.0)
    with pytest.raises(ValueError):
        fuzzy_from_json({"nope": [1]})


@pytest.mark.parametrize("obj", [
    {"tri": [1, 2, 3], "trap": [0, 1, 2, 3]}, {"tri": [1, 2, 3], "foo": 1},
    {"crisp": 1, "K": 3, "levels": [[0, 0], [0, 0]]}, {"levels": [[0, 1], [0, 1]], "K": 1, "k": 1},
    {"K": 3}, {}])
def test_json_takes_exactly_one_form_and_an_optional_k(obj):
    with pytest.raises(ValueError, match=f"^unrecognized fuzzy number object: "
                                         f"{re.escape(repr(obj))}$"):
        fuzzy_from_json(obj)


@pytest.mark.parametrize("obj, count", [({"tri": [1, 2]}, 3), ({"tri": 1}, 3),
                                        ({"trap": [1, 2, 3, 4, 5]}, 4), ({"crisp": [1, 2]}, 1),
                                        ({"crisp": []}, 1)])
def test_json_shorthands_reject_a_wrong_parameter_count(obj, count):
    ((name, _),) = obj.items()
    with pytest.raises(ValueError, match=f"^'{name}' takes a list of {count} parameters"):
        fuzzy_from_json(obj)


@pytest.mark.parametrize("obj, arg", [({"tri": ["a", 2, 3]}, "'a'"), ({"crisp": None}, "None"),
                                      ({"tri": [1, True, 3]}, "True"),
                                      ({"trap": [0, 1, [2], 3]}, "[2]")])
def test_json_shorthands_reject_a_parameter_that_is_not_a_number(obj, arg):
    ((name, args),) = obj.items()
    args = args if isinstance(args, list) else [args]
    with pytest.raises(ValueError, match=re.escape(f"'{name}' takes numeric parameters, "
                                                   f"got {arg} in {args!r}")):
        fuzzy_from_json(obj)
    assert fuzzy_from_json({"tri": [np.int64(1), 2, np.float64(3)]}) == triangular(1.0, 2.0, 3.0)


@pytest.mark.parametrize("make, message", [
    (lambda: triangular(-1e400, 2.0, 3.0), "triangular parameter a must be finite, got -inf"),
    (lambda: triangular(1e400, 2.0, 3.0), "triangular parameter a must be finite, got inf"),
    (lambda: triangular(1.0, math.nan, 3.0, grid=0), "triangular parameter b must be finite, "
                                                     "got nan"),
    (lambda: trapezoidal(0.0, 1.0, 2.0, np.float64(math.inf)),
     "trapezoidal parameter d must be finite, got inf"),
    (lambda: crisp(1e400), "crisp parameter a must be finite, got inf"),
])
def test_shapes_reject_a_non_finite_parameter_by_name(make, message):
    # before anything else: the order of the parameters and the grid size
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


@pytest.mark.parametrize("k", [True, 1.0, "1"])
def test_json_levels_form_reads_k_as_a_grid_size(k):
    with pytest.raises(ValueError, match=f"^grid size must be an integer, got {re.escape(repr(k))}$"):
        fuzzy_from_json({"levels": [[1, 3], [2, 2]], "K": k})
    assert fuzzy_from_json({"levels": [[1, 3], [2, 2]], "K": 1}) == from_levels([[1, 3], [2, 2]])


def test_equality_and_approx_equal():
    a = triangular(1.0, 2.0, 3.0)
    b = triangular(1.0, 2.0, 3.0)
    assert a == b
    assert a != triangular(1.0, 2.0, 3.0, grid=50)
    shifted = FuzzyNumber(b.los + 1e-12, b.his)
    assert all(r.equal for r in compare_levels(a, shifted, 1e-9))
    assert not all(r.equal for r in compare_levels(a, shifted, 1e-14))


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


_STORED_ENDS = (st.sampled_from([-0.0, 0.0, 1.0, -1.7e308, 1.7e308, -1.7976931348623157e308,
                                 1.7976931348623157e308])
                | st.floats(-1.0, 1.0) | st.floats(-1.7976931348623157e308, 1.7976931348623157e308))


@st.composite
def _level_arrays(draw):
    """Ends a FuzzyNumber accepts: sorted values, every lower end nudged up
    and every upper end down by less than NEST_TOL / 2, so equal ends cross
    and neighbours unnest within NEST_TOL, which the constructor repairs."""
    k = draw(st.sampled_from([1, 2, 7, 30]))
    pts = sorted(draw(st.lists(_STORED_ENDS, min_size=2 * (k + 1), max_size=2 * (k + 1))))
    nudges = st.lists(st.floats(0.0, 0.45 * NEST_TOL), min_size=k + 1, max_size=k + 1)
    # a zero nudge leaves the end as drawn: -0.0 + 0.0 would be 0.0
    return (np.array([p + u if u else p for p, u in zip(pts[:k + 1], draw(nudges))]),
            np.array([p - u if u else p for p, u in zip(pts[k + 1:][::-1], draw(nudges))]))


@settings(max_examples=150)
@given(_level_arrays())
@example((np.array([-1.0, 0.5 + 4e-13]), np.array([2.0, 0.5])))  # a crossed core
@example((np.array([-0.0, -0.0]), np.array([-0.0, -0.0])))
@example((np.array([-1.7976931348623157e308, 1.7e308]),
          np.array([1.7976931348623157e308, 1.7e308])))   # refused: wider than floats
@example((np.array([-0.0, 1.7e308]), np.array([1.7976931348623157e308, 1.7e308])))
def test_every_stored_level_is_a_valid_interval_of_python_floats(ends):
    # compare_levels builds its rows from the stored levels without
    # validating them again, on the strength of this property
    a = _built(*ends)
    if not isinstance(a, FuzzyNumber):
        return
    assert not a.los.flags.writeable and not a.his.flags.writeable
    for lo, hi in zip(a.los.tolist(), a.his.tolist()):
        assert type(lo) is float and type(hi) is float
        iv = Interval(lo, hi)
        assert (iv.lo.hex(), iv.hi.hex()) == (lo.hex(), hi.hex())


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
                                 a.alphas])
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
    # a step wider than the largest float, which interpolated to a
    # non-finite end, is refused when the number is built
    with wider_than_floats("support", -1.5e308, 1.6e308):
        FuzzyNumber([-1.5e308, 1.5e308], [1.6e308, 1.6e308])


def test_a_support_wider_than_the_float_range_is_refused_without_warnings():
    # no errstate here: the suite turns a RuntimeWarning into an error.  A
    # support wider than the float range is refused, after the order and
    # nesting tests; one as wide as it builds.
    with wider_than_floats("support", -1.5e308, 1.6e308):
        FuzzyNumber([-1.5e308, 1.5e308], [1.6e308, 1.6e308])
    with pytest.raises(ValueError, match="^levels are not nested$"):
        FuzzyNumber([1.5e308, -1.5e308], [1.6e308, 1.6e308])
    assert _WIDEST.level(0) == Interval(-_HALF, _HALF)


def test_grid_nodes_keep_their_stored_level_across_a_step_as_wide_as_the_float_range():
    # the widest step a number can hold: as wide as the float range
    assert _WIDEST.alpha_cut(0.0) == _WIDEST.level(0)
    los, his = _WIDEST.alpha_cuts([0.0, 1.0])
    assert los.tolist() == [-_HALF, _HALF] and his.tolist() == [_HALF, _HALF]


def test_membership_across_a_step_as_wide_as_the_float_range():
    # no errstate: the suite turns a RuntimeWarning into an error.  The
    # widest step a number can hold is as wide as the float range.
    pts = np.array([0.0, _HALF / 2, -_HALF, _HALF])
    want = [0.5, 0.75, 0.0, 1.0]
    assert _WIDEST.membership(pts).tolist() == want
    assert _WIDEST.membership(0.0) == 0.5
    # the same step on the upper curve
    assert _WIDEST_UPPER.membership(-pts).tolist() == want


def test_membership_of_nan_raises():
    a = triangular(0.0, 1.0, 2.0)
    with pytest.raises(ValueError, match=r"^membership of nan is undefined; "
                                         r"the first NaN point is x\[0\]$"):
        a.membership([math.nan, 1.0, 5.0])
    with pytest.raises(ValueError, match=r"the first NaN point is x\[2\]$"):
        a.membership(np.array([5.0, 1.0, math.nan, math.nan]))
    with pytest.raises(ValueError, match=r"the first NaN point is x\[1, 0\]$"):
        a.membership(np.array([[0.5, 1.0], [math.nan, 1.5]]))
    with pytest.raises(ValueError, match=r"^membership of nan is undefined$"):
        a.membership(math.nan)
    assert a.membership([-math.inf, 1.0, math.inf]).tolist() == [0.0, 1.0, 0.0]


def test_membership_off_the_support_is_zero_where_its_offset_passes_the_float_range():
    # no errstate: the suite turns a RuntimeWarning into an error.  A point
    # reads 0 where it is infinite or its offset from the support passes the
    # float range, on a narrow support and on one as wide as the float
    # range; points on the core still read 1.  Long sorted points are
    # merged with the nodes, the reversed ones searched among them.
    high = triangular(1e308, 1.2e308, 1.5e308, grid=1)
    cases = ((high, [-math.inf, -_MAX, -1e308, 1.2e308, math.inf]),
             (FuzzyNumber(-high.his, -high.los), [-math.inf, -1.2e308, 1e308, _MAX, math.inf]),
             (_WIDEST, [-math.inf, -_MAX, _HALF, _MAX, math.inf]))
    for a, points in cases:
        want = [1.0 if a.core.lo <= x <= a.core.hi else 0.0 for x in points]
        assert [a.membership(x) for x in points] == want
        n = MERGE_MIN_RATIO * (2 * a.k + 2)
        pts, wants = np.repeat(points, n), np.repeat(want, n)
        assert a.membership(pts).tolist() == wants.tolist()
        assert a.membership(pts[::-1]).tolist() == wants[::-1].tolist()


_PARAMS = st.sampled_from([-0.0, 0.0, 1.0, -2.0, 3.5]) | st.floats(-10.0, 10.0)


def _built(los, his):
    """FuzzyNumber(los, his) for ends drawn by _level_arrays, or, where
    their support is wider than the float range, the ValueError naming it
    that the constructor raises."""
    lo, hi = float(los[0]), float(his[0])
    if math.isfinite(hi - lo):
        return FuzzyNumber(los, his)
    with wider_than_floats("support", lo, hi) as refused:
        FuzzyNumber(los, his)
    return refused.value


@st.composite
def _families(draw):
    """Triangular, trapezoidal and crisp numbers, with plateaus where
    parameters tie and -0.0 ends, and the stored families of
    _level_arrays, whose steps can be as wide as the float range; a draw of
    _level_arrays wider than that is the constructor's ValueError (_built),
    and the properties below stop at it."""
    kind = draw(st.sampled_from(["tri", "trap", "crisp", "levels"]))
    grid = draw(st.sampled_from([1, 2, 7, 100]))
    if kind == "levels":
        return _built(*draw(_level_arrays()))
    if kind == "crisp":
        return crisp(draw(_PARAMS), grid=grid)
    params = sorted(draw(st.lists(_PARAMS, min_size=3 + (kind == "trap"),
                                  max_size=3 + (kind == "trap"))))
    return (triangular if kind == "tri" else trapezoidal)(*params, grid=grid)


@settings(max_examples=200)
@given(_families(), st.data())
@example(crisp(-0.0, grid=3), None)
@example(_WIDEST, None)
@example(_WIDEST_UPPER, None)
def test_membership_matches_the_two_curve_reference(a, data):
    """Each point read off the one curve that decides it gives the bits of
    the minimum over both curves, at every node, at +-inf and between."""
    if not isinstance(a, FuzzyNumber):
        return
    lo, hi = float(a.los[0]), float(a.his[0])
    pts = [*a.los.tolist(), *a.his.tolist(), math.inf, -math.inf, -0.0, 0.0]
    if data is not None:
        pts += data.draw(st.lists(st.floats(lo - 1.0, hi + 1.0), max_size=30))
        pts = data.draw(st.permutations(pts))
    pts = np.array(pts)
    got, want = a.membership(pts), reference_membership(a, pts)
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    if pts.size % 2 == 0:
        assert np.array_equal(a.membership(pts.reshape(2, -1)), want.reshape(2, -1))
    for x in pts[:6].tolist():
        got, want = a.membership(x), reference_membership(a, x)
        assert type(got) is float and got.hex() == want.hex()


@settings(max_examples=200, deadline=None)
@given(_families(), st.integers(0, 2**32 - 1), st.floats(0.0, 2.0), st.data())
@example(trapezoidal(-1.0, 0.0, 0.0, 3.0, grid=2), 0, 1.0, None)
@example(crisp(-0.0, grid=1), 1, 0.0, None)
@example(_WIDEST, 2, 2.0, None)
def test_membership_of_sorted_points_matches_the_search_and_the_reference(a, seed, scale, data):
    """Sorted 1-d points, merged with the nodes once there are at least
    MERGE_MIN_RATIO times as many, read the bits the binary search and the
    two-curve reference read: every lower and upper end, its neighbouring
    floats, +-inf and +-0 are among the points, each repeated at random, and
    the count runs from below the merge threshold to twice it."""
    if not isinstance(a, FuzzyNumber):
        return
    nodes = np.concatenate((a.los, a.his))
    with np.errstate(over="ignore"):  # the neighbour of the largest float is inf
        pool = np.concatenate((nodes, np.nextafter(nodes, -math.inf),
                               np.nextafter(nodes, math.inf), [-math.inf, math.inf, -0.0, 0.0]))
    if data is not None:
        lo, hi = float(a.los[0]), float(a.his[0])
        pool = np.append(pool, data.draw(st.lists(st.floats(lo - 1.0, hi + 1.0), max_size=10)))
    threshold = MERGE_MIN_RATIO * 2 * (a.k + 1)
    extra = int(scale * threshold)
    rng = np.random.default_rng(seed)
    pts = np.sort(np.concatenate((pool, rng.choice(pool, size=extra))), kind="stable")
    got = a.membership(pts)
    with mock.patch.object(fuzzy, "MERGE_MIN_RATIO", math.inf):
        searched = a.membership(pts)
    want = reference_membership(a, pts)
    for other in (searched, want):
        assert np.array_equal(got, other) and np.array_equal(np.signbit(got), np.signbit(other))


def test_membership_merges_only_long_sorted_one_dimensional_points():
    a = triangular(0.0, 1.0, 2.0)  # K = 100: 202 nodes
    long = np.linspace(-1.0, 3.0, MERGE_MIN_RATIO * 202)
    for pts, merged in ((long, True), (long[1:], False), (long[::-1], False),
                        (long.reshape(2, -1), False)):
        want = reference_membership(a, pts)
        with mock.patch.object(np, "repeat", wraps=np.repeat) as spread:
            got = a.membership(pts)
        assert spread.called == merged
        assert np.array_equal(got, want)


@settings(max_examples=200)
@given(_families(), st.sampled_from([1, 2, 7, 11, 100]))
@example(triangular(-1.3, 0.7, 2.9, grid=7), 11)  # np.interp moves 13 of 24 ends
@example(crisp(-0.0, grid=3), 7)
def test_resample_reads_the_levels_through_alpha_cuts(a, k):
    """a.resample(k) is the number whose ends alpha_cuts reads at the new
    grid's alphas, bit for bit, or the same error; on its own grid it is a."""
    if not isinstance(a, FuzzyNumber):
        return
    if k == a.k:
        assert a.resample(k) is a
        return
    got = _outcome(lambda: a.resample(k))
    want = _outcome(lambda: FuzzyNumber(*a.alpha_cuts(np.linspace(0.0, 1.0, k + 1))))
    if isinstance(want, str):
        assert got == want
    else:
        assert _bits(*got.los, *got.his) == _bits(*want.los, *want.his)


@settings(max_examples=200)
@given(_families())
@example(crisp(-0.0, grid=3))
@example(triangular(-1.0, 0.4, 4.5))  # K = 100: at 8 grid alphas alpha * K is not i
@example(_WIDEST)
def test_alpha_cuts_read_the_stored_level_where_alpha_times_k_is_an_integer(a):
    """Wherever alpha * K is an exact integer i, alpha_cuts gives the stored
    level i under ==, which counts -0.0 as 0.0.  The candidates are the grid
    alphas, as np.linspace and as i / K round them, and their neighbouring
    floats; a grid alpha whose alpha * K is not i is interpolated instead."""
    if not isinstance(a, FuzzyNumber):
        return
    k = a.k
    near = np.concatenate((a.alphas, np.arange(k + 1) / k))
    pool = np.concatenate((near, np.nextafter(near, 0.0), np.nextafter(near, 1.0)))
    pos = pool * k
    alphas = pool[pos == np.floor(pos)]
    lo, hi = a.alpha_cuts(alphas)
    i = (alphas * k).astype(int)
    assert (lo == a.los[i]).all() and (hi == a.his[i]).all()


_FAR_ENDS = (st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 3 * 2.0**970,
                              -3 * 2.0**970, _HALF, -_HALF, _MAX, -_MAX])
             | st.floats(-_MAX, _MAX) | st.floats(-1.0, 1.0))


@st.composite
def _far_families(draw):
    """Triangular and trapezoidal numbers and raw nested families whose ends
    reach the float max, are subnormal or are -0.0; every end of one draw
    may be made to take one sign, so that many draws are narrower than the
    float range.  A draw wider than that is the constructor's error
    message, and the property below stops at it."""
    kind = draw(st.sampled_from(["tri", "trap", "levels"]))
    grid = draw(st.sampled_from([1, 2, 3, 7, 100]))
    count = {"tri": 3, "trap": 4, "levels": 2 * grid + 2}[kind]
    ends = draw(st.lists(_FAR_ENDS, min_size=count, max_size=count))
    sign = draw(st.sampled_from([None, 1.0, -1.0]))
    ends = sorted(ends if sign is None else [sign * abs(end) for end in ends])
    if kind == "levels":
        return _outcome(lambda: FuzzyNumber(ends[:grid + 1], ends[grid + 1:][::-1]))
    return _outcome(lambda: (triangular if kind == "tri" else trapezoidal)(*ends, grid=grid))


_CUT_ALPHAS = st.lists(st.sampled_from([0.0, 1.0, 1.0 - 2.0**-53, 2.0**-53, 5e-324, 0.5])
                       | st.floats(0.0, 1.0), min_size=1, max_size=20)


@settings(max_examples=300)
@given(_far_families(), _CUT_ALPHAS)
@example(triangular(3 * 2.0**970, _MAX, _MAX, grid=1), [1.0 - 2.0**-53, 1.0])
@example(triangular(-_MAX, -_MAX, -3 * 2.0**970, grid=3), [1.0 - 2.0**-53, 0.5, 1.0])
@example(_WIDEST, [1.0 - 2.0**-53, 2.0**-53, 0.5])
@example(_WIDEST_UPPER, [1.0 - 2.0**-53, 2.0**-53, 0.5])
@example(crisp(-0.0, grid=3), [0.0, 1.0 / 3.0, 1.0])
def test_alpha_cuts_lie_between_the_neighbouring_stored_ends(a, alphas):
    """Every cut of a number at an alpha in [0, 1] is finite and ordered,
    with no warning (the suite turns a RuntimeWarning into an error).
    Where alpha * K >= K it is the stored alpha = 1 level; elsewhere, with
    i = int(alpha * K) as alpha_cuts takes it, each end lies between the
    stored ends of nodes i and i + 1."""
    if not isinstance(a, FuzzyNumber):
        return
    alphas = np.array(alphas)
    lo, hi = a.alpha_cuts(alphas)
    assert np.isfinite(lo).all() and np.isfinite(hi).all() and (lo <= hi).all()
    k = a.k
    pos = alphas * k
    top = pos >= k
    assert (lo[top] == a.los[k]).all() and (hi[top] == a.his[k]).all()
    i = pos[~top].astype(np.intp)
    lo, hi = lo[~top], hi[~top]
    assert (a.los[i] <= lo).all() and (lo <= a.los[i + 1]).all()
    assert (a.his[i + 1] <= hi).all() and (hi <= a.his[i]).all()


def test_alpha_cuts_take_alphas_of_any_shape():
    a = triangular(-1.3, 0.7, 2.9, grid=7)
    alphas = np.array([[0.0, 0.3], [0.55, 1.0]])
    lo, hi = a.alpha_cuts(alphas)
    flat = a.alpha_cuts(alphas.ravel())
    assert lo.shape == hi.shape == alphas.shape
    assert _bits(*lo.ravel(), *hi.ravel()) == _bits(*flat[0], *flat[1])
    assert _bits(*a.alpha_cuts(0.3)) == _bits(flat[0][1], flat[1][1])
    # an alpha outside [0, 1] raises at any shape
    for bad in (np.array(1.5), np.array([[1.0, 1.5]])):
        with pytest.raises(ValueError, match=r"^alpha must lie in \[0, 1\], got 1\.5$"):
            a.alpha_cuts(bad)


def test_a_number_is_its_two_read_only_arrays():
    a = triangular(1.0, 2.0, 3.0, grid=4)
    assert a.los is a.los and a.his is a.his
    assert not a.los.flags.writeable and not a.his.flags.writeable
    immutable = "^FuzzyNumber instances are immutable$"
    with pytest.raises(AttributeError, match=immutable):
        a.los = a.his
    with pytest.raises(AttributeError, match=immutable):
        del a.his
    with pytest.raises(TypeError):
        hash(a)
    finer = triangular(1.0, 2.0, 3.0, grid=8)
    assert (a == finer) is False and (a != finer) is True
    assert a == triangular(1.0, 2.0, 3.0, grid=4)


@pytest.mark.parametrize("grid", [1, 2, 7, 100, 1000])
def test_shapes_accept_their_own_rounding_at_large_magnitude(grid):
    # a + 1*(b - a) and c - 1*(c - b) round about 7e-12 apart, one ulp at 1e5
    for a in (triangular(-100000, 50000.7, 100000, grid=grid),
              trapezoidal(-100000, 50000.7, 50000.7, 100000, grid=grid)):
        assert a.core.width == 0.0 and abs(a.core.lo - 50000.7) < 8 * np.spacing(1e5)


def test_crossed_ends_near_the_float_max_repair_to_a_finite_midpoint():
    # no errstate: the suite turns a RuntimeWarning into an error
    below = np.nextafter(1.7e308, 0.0)
    a = from_levels([[1e308, 1.75e308], [1.7e308, below]])
    assert np.isfinite(a.los).all() and np.isfinite(a.his).all()
    assert a.level(1) == Interval(1.7e308, 1.7e308)
    # a + 1*(b - a) rounds one ulp above this triangle's peak, which would
    # cross c and sum past the float range; the core is set to the peak
    b = triangular(5.177839041280705e307, 1.5201935638894034e308, 1.5798096581039267e308)
    assert b.core == Interval(1.5201935638894034e308, 1.5201935638894034e308)


def test_a_side_as_wide_as_the_float_range_ends_at_its_parameter():
    # the upper side is as wide as the float range, and its alpha = 1 end
    # is the peak, not d - 1*(d - c), which rounds to 0.0, 3.4e16 past it
    with mock.patch.object(fuzzy, "_checked_and_repaired",
                           wraps=fuzzy._checked_and_repaired) as repair:
        a = triangular(-6.288267534171607e16, -3.4014101754884144e16, _MAX, grid=2)
    assert not repair.called  # exactly nested as built
    assert a.core == Interval(-3.4014101754884144e16, -3.4014101754884144e16)
    assert a.support == Interval(-6.288267534171607e16, _MAX)


@pytest.mark.parametrize("grid", [1, 2, 7])
def test_a_side_within_the_float_range_ends_at_the_float_max_without_a_warning(grid):
    # no errstate: the suite turns a RuntimeWarning into an error.  b - a is
    # finite, but a + 1*(b - a) rounds past the float max; that node is b
    a = 3 * 2.0**970
    x = triangular(a, _MAX, _MAX, grid=grid)
    inner = x.alphas[:-1]
    assert x.los.tobytes() == np.append(a + inner * (_MAX - a), _MAX).tobytes()
    assert (x.his == _MAX).all()
    mirrored = triangular(-_MAX, -_MAX, -a, grid=grid)
    assert mirrored.his.tobytes() == np.append(-a - inner * (-a + _MAX), -_MAX).tobytes()
    assert (mirrored.los == -_MAX).all()
    # alpha_cuts reads the alpha = 1 end from the stored level, also there
    assert x.alpha_cut(1.0) == x.core and mirrored.alpha_cut(1.0) == mirrored.core


def test_slack_at_the_largest_float_stays_finite():
    # 8 ulps of the largest float are about 1.6e293; the crossings below are
    # far more, and an infinite slack let them through
    big = float(np.finfo(float).max)
    for levels in ([[-big, big], [big, -big]], [[-big, big], [1e300, -1e300]]):
        with pytest.raises(ValueError, match="^level lower endpoint exceeds upper endpoint$"):
            from_levels(levels)
    with pytest.raises(ValueError, match="^levels are not nested$"):
        from_levels([[0.0, big], [-big, big]])


def _shapes_refused_as_too_wide(a, b, c, d, grid) -> bool:
    """Whether the support [a, d] is wider than the float range, in which
    case triangular(a, b, d) and trapezoidal(a, b, c, d) are checked to
    raise the error that names it."""
    if math.isfinite(d - a):
        return False
    with wider_than_floats("triangular support", a, d):
        triangular(a, b, d, grid=grid)
    with wider_than_floats("trapezoidal support", a, d):
        trapezoidal(a, b, c, d, grid=grid)
    return True


@settings(max_examples=300)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False)
                | st.sampled_from([-_MAX, -1e300, -0.0, 0.0, 1e300, _MAX]),
                min_size=4, max_size=4),
       st.sampled_from([1, 2, 3, 7, 100]))
@example([-100000.0, 50000.7, 50000.7, 100000.0], 100)
@example([5.177839041280705e307, 1.5201935638894034e308, 1.5201935638894034e308,
          1.5798096581039267e308], 100)
@example([-_MAX, 1e300, 1e300, _MAX], 7)
@example([1.0, 1.0, 1.0, 2.0**53 + 4], 1)
@example([0.0, 2.275257952869581e+294, -_MAX, -_MAX], 1)
@example([-_HALF, 1e300, 1e300, _HALF], 7)
def test_shapes_accept_any_sorted_finite_parameters(params, grid):
    # no errstate: the suite turns a RuntimeWarning into an error
    a, b, c, d = sorted(params)
    if _shapes_refused_as_too_wide(a, b, c, d, grid):
        return
    # a crossed level is repaired to its midpoint, which can widen the
    # support by as much as the slack
    slack = NEST_ULPS * math.ulp(max(-a, d))
    for x in (triangular(a, b, d, grid=grid), trapezoidal(a, b, c, d, grid=grid)):
        assert np.isfinite(x.los).all() and np.isfinite(x.his).all()
        assert a - slack <= x.los[0] <= a and d <= x.his[0] <= d + slack


def test_triangular_core_is_its_peak():
    # a + 1*(b - a) and c - 1*(c - b) round away from b
    assert triangular(-3.0, 0.1, 0.2, grid=4).core == Interval(0.1, 0.1)
    assert triangular(0.0, 0.1, 3.0, grid=4).core == Interval(0.1, 0.1)


@settings(max_examples=300)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False)
                | st.sampled_from([-_MAX, -1e300, -0.0, 0.0, 1e300, _MAX]),
                min_size=4, max_size=4),
       st.sampled_from([1, 2, 3, 7, 100]))
@example([-3.0, 0.1, 0.1, 0.2], 4)
@example([-100000.0, 50000.7, 50000.7, 100000.0], 100)
@example([-6.288267534171607e16, -3.4014101754884144e16, -3.4014101754884144e16, _MAX], 2)
@example([-_MAX, -1e300, 1e300, _MAX], 7)
def test_shape_cores_are_their_parameters_unless_repaired(params, grid):
    # no errstate: the suite turns a RuntimeWarning into an error
    a, b, c, d = sorted(params)
    if _shapes_refused_as_too_wide(a, b, c, d, grid):
        return
    slack = max(NEST_TOL, NEST_ULPS * math.ulp(max(-a, d)))
    for make, core in ((lambda: triangular(a, b, d, grid=grid), (b, b)),
                       (lambda: trapezoidal(a, b, c, d, grid=grid), (b, c))):
        with mock.patch.object(fuzzy, "_checked_and_repaired",
                               wraps=fuzzy._checked_and_repaired) as repair:
            x = make()
        if repair.called:
            assert abs(x.core.lo - core[0]) <= slack and abs(x.core.hi - core[1]) <= slack
        else:
            assert x.core == Interval(*core)


@pytest.mark.parametrize("k", [3, 100])
def test_each_grid_is_built_once_per_k(k):
    a = triangular(-1.0, 0.5, 2.0, grid=k)
    long = np.linspace(-2.0, 3.0, MERGE_MIN_RATIO * (2 * k + 2))  # merged
    calls = {
        "triangular": lambda: triangular(-1.0, 0.5, 2.0, grid=k),
        "trapezoidal": lambda: trapezoidal(-1.0, 0.0, 0.5, 2.0, grid=k),
        "resample": lambda: crisp(1.0, grid=2 * k).resample(k),
        "membership": lambda: (a.membership(long), a.membership(long[::-1])),
    }
    for name, call in calls.items():
        call()
        assert grid_builds(k, call) == 0, name
    # membership reads one slot-number table per K, whatever the ends
    b = trapezoidal(5.0, 6.0, 7.0, 9.0, grid=k)
    assert fuzzy._curve_slots(a.los, a.his)[3] is fuzzy._curve_slots(b.los, b.his)[3]


def test_the_shared_grid_constants_are_read_only():
    for table in (fuzzy._grid(7), fuzzy._slot_steps(7)):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0.5
    assert isinstance(fuzzy._grid_floats(7), tuple)


@pytest.mark.parametrize("k", [1, 7, 100, 1000])
def test_alphas_is_a_fresh_writable_copy_of_the_grid(k):
    a = triangular(1.0, 2.0, 3.0, grid=k)
    al = a.alphas
    assert al.flags.writeable and al is not a.alphas
    assert al.tobytes() == np.linspace(0.0, 1.0, k + 1).tobytes()
    al[:] = 0.25
    assert a.alphas.tobytes() == np.linspace(0.0, 1.0, k + 1).tobytes()
    assert triangular(1.0, 2.0, 3.0, grid=k) == a


def test_grids_evicted_from_the_cache_are_rebuilt_with_the_same_bytes():
    ks = range(2, 2 * GRID_CACHE_SIZE + 5)
    pts = np.linspace(-1.5, 2.5, 41)
    # forwards, back and forwards again, so that each K is built again after
    # its eviction
    for k in [*ks, *reversed(ks), *ks]:
        al = np.linspace(0.0, 1.0, k + 1)
        lo, hi = -1.0 + al * 1.5, 2.0 - al * 1.5
        lo[-1] = hi[-1] = 0.5
        a = triangular(-1.0, 0.5, 2.0, grid=k)
        assert a.alphas.tobytes() == al.tobytes()
        assert a.los.tobytes() == lo.tobytes() and a.his.tobytes() == hi.tobytes()
        assert _bits(*(r.alpha for r in compare_levels(a, a))) == al.tobytes()
        assert np.array_equal(a.membership(pts), reference_membership(a, pts))

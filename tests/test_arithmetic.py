import copy
import gc
import math
import pickle
import re
import types
import warnings
from decimal import Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fuzzyarith import (
    CLOSED_FORM_KINDS,
    DomainError,
    FuzzyNumber,
    Interval,
    LevelResult,
    MonotonicityError,
    RangeMethod,
    check_monotone,
    closed_form,
    compare_levels,
    correlated_product,
    correlated_sum,
    crisp,
    custom,
    from_levels,
    hyperbolic,
    identity,
    induced_number,
    linear,
    negation,
    oracle_check,
    range_over_interval,
    reciprocal,
    standard_product,
    standard_sum,
    trapezoidal,
    triangular,
)

from fuzzyarith import arithmetic
from fuzzyarith.correlation import MONOTONE_CHECK_SAMPLES

from helpers import (assert_levels_match_scan, collections_during, dense_range, grid_builds,
                     per_point_evaluation, random_shape, random_sign_definite,
                     reference_compare_levels)


def test_range_method_validation():
    RangeMethod()
    assert RangeMethod._fields == ("samples",)
    assert RangeMethod.mode == "numeric"
    with pytest.raises(TypeError):
        RangeMethod(mode="analytic")
    with pytest.raises(ValueError):
        RangeMethod(samples=64)
    for samples in (100.5, True, "100"):
        with pytest.raises(ValueError, match="samples must be an integer"):
            RangeMethod(samples=samples)
    method = RangeMethod(samples=np.int64(100))
    assert type(method.samples) is int and method.samples == 100
    assert repr(method) == "RangeMethod(samples=100)"


@pytest.mark.parametrize("method", [False, 0, True, "numeric", (1025,)], ids=repr)
def test_a_method_that_is_neither_none_nor_a_range_method_is_a_type_error(method):
    # refused before any call of f or g; oracle_check meets the check in its engine call
    calls = [0]

    def fn(x):
        calls[0] += 1
        return x ** 3 + x

    a = triangular(1.0, 2.0, 3.0, grid=4)
    runs = [lambda op=op, f=f: op(a, f, method)
            for op in (correlated_sum, correlated_product)
            for f in (custom(fn, "increasing"), linear(2.0, 1.0))]
    runs += [lambda op=op: oracle_check(a, custom(fn, "increasing"), op, method=method)
             for op in ("sum", "product")]
    runs.append(lambda: range_over_interval(fn, Interval(1.0, 3.0), method))
    message = f"^method must be None or a RangeMethod, got {re.escape(repr(method))}$"
    for run in runs:
        with pytest.raises(TypeError, match=message):
            run()
    assert calls[0] == 0


def _one_level(op, f, lo, hi):
    """op(A, f) for A = [lo, hi] at every alpha, as the Interval of its
    one level."""
    res = op(from_levels([[lo, hi], [lo, hi]]), f)
    assert res.level(0) == res.level(1)
    return res.level(0)


def test_affine_profile_bounds():
    # x + (q*x + r) and x * (q/x + r) are affine
    assert _one_level(correlated_sum, linear(2.0, 1.0), 2.0, 2.0) == Interval(7.0, 7.0)
    assert _one_level(correlated_sum, linear(2.0, 1.0), 1.0, 3.0) == Interval(4.0, 10.0)
    assert _one_level(correlated_sum, linear(-3.0, 0.0), 1.0, 3.0) == Interval(-6.0, -2.0)
    assert _one_level(correlated_sum, linear(-1.0, 5.0), -9.0, 9.0) == Interval(5.0, 5.0)
    assert _one_level(correlated_product, hyperbolic(1.0, 3.0), 1.0, 3.0) == Interval(4.0, 10.0)


def test_quadratic_profile_bounds_interior_vertex():
    square = linear(1.0, 0.0)  # x * x, vertex at 0
    assert _one_level(correlated_product, square, -2.0, 1.0) == Interval(0.0, 4.0)
    assert _one_level(correlated_product, square, 1.0, 3.0) == Interval(1.0, 9.0)
    down = linear(-1.0, 2.0)  # -x^2 + 2x, peak at 1
    assert _one_level(correlated_product, down, 0.0, 3.0) == Interval(-3.0, 1.0)


def test_reciprocal_sum_profile_bounds():
    f = hyperbolic(4.0, 0.0)  # x + 4/x, local min at 2
    got = _one_level(correlated_sum, f, 1.0, 3.0)
    assert got.approx_equal(Interval(4.0, 5.0), tol=1e-12)
    # negative side: local max at -2
    got = _one_level(correlated_sum, f, -3.0, -1.0)
    assert got.approx_equal(Interval(-5.0, -4.0), tol=1e-12)
    # q < 0 keeps the map monotone on each side
    got = _one_level(correlated_sum, hyperbolic(-4.0, 1.0), 1.0, 2.0)
    assert got.approx_equal(Interval(-2.0, 1.0), tol=1e-12)


def test_profiles_match_dense_scan(rng):
    for _ in range(25):
        lo, hi = np.sort(rng.uniform(0.3, 8.0, 2))
        qs = rng.uniform(-5.0, 5.0, 3)
        q0 = qs[0] if qs[0] != 0 else 1.0
        q1 = qs[1] if qs[1] != 0 else 1.0
        q2 = qs[2] if qs[2] != 0 else 1.0
        cases = [
            (correlated_product, hyperbolic(q1, q0), lambda x: q0 * x + q1),
            (correlated_product, linear(q0, qs[1]), lambda x: q0 * x * x + qs[1] * x),
            (correlated_sum, hyperbolic(q2, qs[0]), lambda x: x + q2 / x + qs[0]),
        ]
        for op, f, g in cases:
            want_lo, want_hi = dense_range(g, lo, hi, n=20001)
            got = _one_level(op, f, lo, hi)
            assert got.lo == pytest.approx(want_lo, abs=1e-6)
            assert got.hi == pytest.approx(want_hi, abs=1e-6)


def test_range_over_interval_analytic_and_numeric_agree():
    iv = Interval(1.0, 3.0)
    analytic = _one_level(correlated_sum, hyperbolic(4.0, 0.0), iv.lo, iv.hi)
    numeric = range_over_interval(lambda x: x + 4.0 / x, iv)
    assert analytic.approx_equal(Interval(4.0, 5.0), tol=1e-12)
    assert numeric.approx_equal(analytic, tol=1e-9)


def test_range_over_interval_quadratic():
    got = _one_level(correlated_product, linear(1.0, 0.0), -2.0, 1.0)
    assert got == Interval(0.0, 4.0)
    num = range_over_interval(lambda x: x * x, Interval(-2.0, 1.0))
    assert num.approx_equal(got, tol=1e-9)


def test_range_over_interval_constant_map():
    # x + (-x) collapses to a point
    got = _one_level(correlated_sum, negation(), -5.0, 7.0)
    assert got == Interval(0.0, 0.0)


def test_range_over_interval_degenerate_interval():
    got = range_over_interval(lambda x: x * x, Interval(3.0, 3.0))
    assert got == Interval(9.0, 9.0)


def test_numeric_range_is_sound(rng):
    # sampled range must sit inside the reported range, and the reported
    # range must not overshoot a dense scan by more than refinement noise
    for _ in range(10):
        lo, hi = np.sort(rng.uniform(-4.0, 4.0, 2))
        if hi - lo < 1e-3:
            continue
        g = lambda x: np.sin(3.0 * x) + 0.2 * x * x
        want_lo, want_hi = dense_range(g, lo, hi, n=50001)
        got = range_over_interval(g, Interval(lo, hi), RangeMethod(samples=257))
        assert got.lo <= want_lo + 1e-6
        assert got.hi >= want_hi - 1e-6
        assert got.lo >= want_lo - 1e-4
        assert got.hi <= want_hi + 1e-4


def test_standard_sum_levelwise():
    a = triangular(1.0, 2.0, 3.0)
    b = triangular(3.0, 5.0, 7.0)
    s = standard_sum(a, b)
    assert np.allclose(s.los, a.los + b.los, atol=0)
    assert np.allclose(s.his, a.his + b.his, atol=0)
    assert s.support == Interval(4.0, 10.0)


def test_standard_product_levelwise():
    a = triangular(-2.0, 0.0, 1.0)
    p = standard_product(a, a)
    assert p.support == Interval(-2.0, 4.0)
    assert p.core == Interval(0.0, 0.0)
    # level formula: min/max over the four endpoint products
    for i in (0, 30, 77, 100):
        lo, hi = a.los[i], a.his[i]
        corners = (lo * lo, lo * hi, hi * lo, hi * hi)
        assert p.level(i) == Interval(min(corners), max(corners))


# parameters of a triangular or trapezoidal number whose support often crosses zero
_shape_params = st.lists(st.floats(-50.0, 50.0), min_size=3, max_size=4).map(sorted)

# the same with signed zeros and subnormals, where the order of a tie shows
_signed_params = st.lists(st.sampled_from([-0.0, 0.0, 5e-324, -5e-324]) | st.floats(-50.0, 50.0),
                          min_size=3, max_size=4).map(sorted)


@given(_signed_params, _signed_params, st.sampled_from([1, 2, 7]))
@example([-1.0, -0.0, 0.0, 1.0], [-1.0, 0.0, 1.0], 2)  # core products -0.0, -0.0, 0.0, 0.0
def test_standard_product_reduces_its_four_products_in_order(pa, pb, grid):
    # bit for bit np.minimum.reduce and np.maximum.reduce of the products in
    # this order: the last of them to reach an extreme is kept, so the
    # example's core is [0.0, 0.0], where the reversed order gives -0.0
    a, b = ((triangular if len(p) == 3 else trapezoidal)(*p, grid=grid) for p in (pa, pb))
    products = (a.los * b.los, a.los * b.his, a.his * b.los, a.his * b.his)
    got = standard_product(a, b)
    assert got.los.tobytes() == np.minimum.reduce(products).tobytes()
    assert got.his.tobytes() == np.maximum.reduce(products).tobytes()


@settings(deadline=None)
@given(_shape_params, _shape_params, st.sampled_from([1, 2, 7, 50]),
       st.lists(st.floats(0.0, 1.0), max_size=4))
@example([-2.0, 0.0, 1.0], [-3.0, -1.0, 0.5, 2.0], 7, [0.25, 0.5])
def test_standard_ops_cover_every_pair_of_member_points(pa, pb, grid, fractions):
    # on every level, the sum (product) of any point of the one operand's
    # level with any point of the other's lies in the standard sum
    # (product), whose ends are corner values: exactly, since rounding is
    # monotone
    a, b = ((triangular if len(p) == 3 else trapezoidal)(*p, grid=grid) for p in (pa, pb))
    t = np.array([0.0, 1.0, *fractions])
    xs = np.clip(a.los[:, None] + t * (a.his - a.los)[:, None], a.los[:, None], a.his[:, None])
    ys = np.clip(b.los[:, None] + t * (b.his - b.los)[:, None], b.los[:, None], b.his[:, None])
    s, p = standard_sum(a, b), standard_product(a, b)
    sums = xs[:, :, None] + ys[:, None, :]
    products = xs[:, :, None] * ys[:, None, :]
    assert (s.los[:, None, None] <= sums).all() and (sums <= s.his[:, None, None]).all()
    assert (p.los[:, None, None] <= products).all() and (products <= p.his[:, None, None]).all()
    assert (s.los == a.los + b.los).all() and (s.his == a.his + b.his).all()
    corners = np.array([a.los * b.los, a.los * b.his, a.his * b.los, a.his * b.his])
    assert (p.los == corners).any(axis=0).all() and (p.his == corners).any(axis=0).all()


def test_standard_ops_reject_mismatched_grids():
    a = triangular(1.0, 2.0, 3.0, grid=50)
    b = triangular(3.0, 5.0, 7.0, grid=100)
    for op in (standard_sum, standard_product):
        with pytest.raises(ValueError, match=r"^grid mismatch: K=50 vs K=100; resample first$"):
            op(a, b)
        with pytest.raises(ValueError, match=r"^grid mismatch: K=100 vs K=50; resample first$"):
            op(b, a)
    # resampled by hand, the operands give what the finer grid gave before
    s = standard_sum(a.resample(100), b)
    assert s.k == 100
    assert np.allclose(s.los, 4.0 + 3.0 * s.alphas, rtol=0.0, atol=1e-12)
    assert np.allclose(s.his, 10.0 - 3.0 * s.alphas, rtol=0.0, atol=1e-12)
    p = standard_product(b, a.resample(100))
    assert p.k == 100
    assert np.allclose(p.los, (3.0 + 2.0 * p.alphas) * (1.0 + p.alphas), rtol=0.0, atol=1e-12)
    assert np.allclose(p.his, (7.0 - 2.0 * p.alphas) * (3.0 - p.alphas), rtol=0.0, atol=1e-12)


def test_correlated_sum_linear_formula():
    a = triangular(1.0, 2.0, 3.0)
    s = correlated_sum(a, linear(2.0, 1.0))
    alphas = a.alphas
    assert np.allclose(s.los, 4.0 + 3.0 * alphas, atol=1e-12)
    assert np.allclose(s.his, 10.0 - 3.0 * alphas, atol=1e-12)


def test_correlated_product_identity_squares_levels():
    a = triangular(1.0, 2.0, 3.0)
    p = correlated_product(a, identity())
    alphas = a.alphas
    assert np.allclose(p.los, (1.0 + alphas) ** 2, atol=1e-12)
    assert np.allclose(p.his, (3.0 - alphas) ** 2, atol=1e-12)


def test_correlated_product_identity_zero_crossing_support():
    a = triangular(-2.0, 0.0, 1.0)
    p = correlated_product(a, identity())
    alphas = a.alphas
    assert np.allclose(p.los, 0.0, atol=0)
    assert np.allclose(p.his, 4.0 * (1.0 - alphas) ** 2, atol=1e-12)


def test_correlated_sum_negation_is_crisp_zero():
    for a in (triangular(-2.0, 0.0, 1.0), trapezoidal(1.0, 2.0, 3.0, 9.0), crisp(4.2)):
        s = correlated_sum(a, negation())
        assert np.all(s.los == 0.0)
        assert np.all(s.his == 0.0)


def test_correlated_product_reciprocal_is_crisp_one():
    for a in (triangular(1.0, 2.0, 3.0), trapezoidal(-9.0, -3.0, -2.0, -1.0)):
        p = correlated_product(a, reciprocal())
        assert np.all(p.los == 1.0)
        assert np.all(p.his == 1.0)


def test_correlated_product_requires_valid_domain():
    a = triangular(-1.0, 0.0, 2.0)
    with pytest.raises(DomainError):
        correlated_product(a, reciprocal())
    with pytest.raises(DomainError):
        correlated_sum(a, hyperbolic(4.0))


def test_correlated_ops_custom_match_dense_scan(rng):
    f = custom(lambda x: x**3, "increasing")
    for _ in range(5):
        a = random_sign_definite(rng, side=1, grid=20)
        s = correlated_sum(a, f, RangeMethod(samples=513))
        p = correlated_product(a, f, RangeMethod(samples=513))
        for i in (0, 10, 20):
            lo, hi = a.los[i], a.his[i]
            want = dense_range(lambda x: x + x**3, lo, hi, n=20001)
            assert s.level(i).lo == pytest.approx(want[0], abs=1e-7)
            assert s.level(i).hi == pytest.approx(want[1], abs=1e-7)
            want = dense_range(lambda x: x * x**3, lo, hi, n=20001)
            assert p.level(i).lo == pytest.approx(want[0], abs=1e-7)
            assert p.level(i).hi == pytest.approx(want[1], abs=1e-7)


@pytest.mark.parametrize("fn, g", [
    (lambda x: x**3 + x, lambda x: x * (x**3 + x)),
    (math.atan, lambda x: x * np.arctan(x)),
], ids=["cubic", "atan"])
def test_correlated_product_minimum_at_core_is_nested(fn, g):
    # the minimum sits at the core, where a per-level search used to
    # return lower ends that wiggled past the nest repair
    a = triangular(-2.0, 0.0, 1.0)
    p = correlated_product(a, custom(fn, "increasing"))
    for i in range(a.k + 1):
        want = dense_range(g, a.los[i], a.his[i], n=20001)
        assert p.los[i] == pytest.approx(want[0], abs=1e-7)
        assert p.his[i] == pytest.approx(want[1], abs=1e-7)


def test_correlated_sum_keeps_every_extremum_of_the_support():
    # x + f(x) = 0.001 x sin(40 x) has about 127 local extrema on [0, 10];
    # the narrow levels near the core need the small ones near x = 1
    f = custom(lambda x: -x + 0.001 * x * math.sin(40.0 * x), "decreasing")
    a = triangular(0.0, 1.0, 10.0)
    s = correlated_sum(a, f)
    for i in range(a.k + 1):
        want = dense_range(lambda x: 0.001 * x * np.sin(40.0 * x), a.los[i], a.his[i], n=50001)
        assert s.los[i] == pytest.approx(want[0], abs=1e-6)
        assert s.his[i] == pytest.approx(want[1], abs=1e-6)


# Strictly monotone pieces for random compositions: name, function, and
# whether it may be applied to the current image [lo, hi].  The limits keep
# every piece strictly monotone in floating point (exp of a very negative
# image plus an offset, or atan of a huge one, would round to a constant).
_PIECES = {
    "exp": (np.exp, lambda lo, hi: -10.0 <= lo and hi <= 3.0),
    "log": (np.log, lambda lo, hi: lo > 0.05),
    "cubic": (lambda x: x**3 + x, lambda lo, hi: max(-lo, hi) <= 5.0),
    "atan": (np.arctan, lambda lo, hi: max(-lo, hi) <= 50.0),
}


@st.composite
def monotone_compositions(draw):
    """A triangular operand and a strictly monotone composition defined on
    its support, with the composition's direction."""
    left = draw(st.floats(-3.0, 3.0))
    gaps = draw(st.tuples(st.floats(0.05, 3.0), st.floats(0.05, 3.0)))
    a = triangular(left, left + gaps[0], left + gaps[0] + gaps[1], grid=20)
    fns, lo, hi, increasing = [], a.los[0], a.his[0], True
    for name in draw(st.lists(st.sampled_from(["affine", *_PIECES]), min_size=1, max_size=4)):
        if name == "affine":
            c = draw(st.floats(0.25, 4.0)) * draw(st.sampled_from([-1.0, 1.0]))
            d = draw(st.floats(-3.0, 3.0))
            fn = lambda x, c=c, d=d: c * x + d
            increasing = increasing == (c > 0)
        else:
            fn, allowed = _PIECES[name]
            if not allowed(lo, hi):
                continue
        fns.append(fn)
        lo, hi = sorted((fn(lo), fn(hi)))

    def f(x):
        for fn in fns:
            x = fn(x)
        return x

    return a, f, "increasing" if increasing else "decreasing"


# every level holds 0 and f(0) = atan(-0.5) is not 0: a product read as
# having its minimum g(0) = 0 there misses the negative g on (0, 0.5)
ZERO_CUT_CASE = (triangular(-1.0, 0.0, 2.0, grid=20), lambda x: np.arctan(x - 0.5), "increasing")


@settings(max_examples=30, deadline=None)
@given(monotone_compositions())
@example(ZERO_CUT_CASE)
def test_numeric_engine_on_random_monotone_compositions(case):
    a, fn, direction = case
    f = custom(fn, direction)
    b = induced_number(a, f)
    for op, std, g in (
        (correlated_sum, standard_sum(a, b), lambda x: x + fn(x)),
        (correlated_product, standard_product(a, b), lambda x: x * fn(x)),
    ):
        res = op(a, f)
        tol = 1e-9 * (1.0 + np.maximum(np.abs(std.los), np.abs(std.his)))
        assert np.all(res.los >= std.los - tol)
        assert np.all(res.his <= std.his + tol)
        assert_levels_match_scan(res, a, g)


@settings(max_examples=40, deadline=None)
@given(monotone_compositions())
def test_correlated_sum_with_increasing_f_is_the_standard_sum(case):
    # the paper's theorem, bit for bit: for an increasing f each level is
    # [lo + f(lo), hi + f(hi)]
    a, fn, direction = case
    f = custom(fn if direction == "increasing" else (lambda x: -fn(x)), "increasing")
    res = correlated_sum(a, f)
    std = standard_sum(a, induced_number(a, f))
    assert np.array_equal(res.los, std.los)
    assert np.array_equal(res.his, std.his)


def _counted(fn):
    """fn with a counter of its calls, for the evaluator-call budgets."""
    calls = [0]

    def counted(x):
        calls[0] += 1
        return fn(x)
    return counted, calls


def _endpoint_budget(a):
    """Evaluator calls of a correlated op ranged from its level ends: the
    257-sample direction check, 2(K+1) ends and the two support ends read
    for a product's sign."""
    return 257 + 2 * (a.k + 1) + 2


_POS, _NEG = triangular(1.0, 2.0, 3.0, grid=20), triangular(-3.0, -2.0, -1.0, grid=20)


# The sign of x, the sign of f and the direction of f: x * f(x) is
# monotone exactly when f increases if and only if x and f have the same
# sign.  Each other case of the first eight has its stationary point at the
# core, so a level ranged from its ends would miss it.
@pytest.mark.parametrize("a, c1, c0, monotone", [
    (_POS, 1.0, 0.0, True),     # x > 0, f > 0, increasing
    (_POS, -1.0, 4.0, False),   # x > 0, f > 0, decreasing
    (_POS, 1.0, -4.0, False),   # x > 0, f < 0, increasing
    (_POS, -1.0, 0.0, True),    # x > 0, f < 0, decreasing
    (_NEG, 1.0, 4.0, False),    # x < 0, f > 0, increasing
    (_NEG, -1.0, 0.0, True),    # x < 0, f > 0, decreasing
    (_NEG, 1.0, 0.0, True),     # x < 0, f < 0, increasing
    (_NEG, -1.0, -4.0, False),  # x < 0, f < 0, decreasing
    (triangular(0.0, 1.0, 2.0, grid=20), 1.0, 0.0, True),  # x zero at an end
    (_POS, 1.0, -1.0, True),    # f zero at an end
    (_POS, -1.0, 1.0, True),    # f zero at the lower end, negative above
    (_POS, 1.0, -3.0, False),   # f zero at the other end
    (_POS, 2.0, -3.0, False),   # f changes sign on the support
    (_POS, -1.0, 2.5, False),   # the same, decreasing, with a stationary point
    (triangular(-1.0, 0.0, 2.0, grid=20), 1.0, 3.0, False),  # support crosses zero
], ids=["++inc", "++dec", "+-inc", "+-dec", "-+inc", "-+dec", "--inc", "--dec",
        "x-zero-end", "f-zero-end", "f-zero-end-negative", "f-zero-other-end", "f-crosses-zero",
        "f-crosses-zero-dec", "x-crosses-zero"])
def test_correlated_product_sign_table(a, c1, c0, monotone):
    direction = "increasing" if c1 > 0 else "decreasing"
    counted, calls = _counted(lambda x: c1 * x + c0)
    res = correlated_product(a, custom(counted, direction))
    if monotone:
        assert calls[0] <= _endpoint_budget(a)
    else:
        assert calls[0] > 1025
    exact = correlated_product(a, linear(c1, c0))
    tol = 1e-9 * np.maximum(1.0, np.maximum(np.abs(exact.los), np.abs(exact.his)))
    assert np.all(np.abs(res.los - exact.los) <= tol)
    assert np.all(np.abs(res.his - exact.his) <= tol)


@st.composite
def monotone_products(draw):
    """An operand and an increasing f that keep one sign each on its
    support, f possibly zero at an end, with the sign of f chosen so that
    x * f(x) is monotone: a random composition moved to one side of zero."""
    a, fn, direction = draw(monotone_compositions())
    if direction == "decreasing":
        fn = lambda x, fn=fn: -fn(x)
    sx = draw(st.sampled_from([1.0, -1.0]))
    gap = draw(st.floats(0.0, 3.0))
    t = gap - a.los[0] if sx > 0 else -gap - a.his[0]
    moved = FuzzyNumber(a.los + t, a.his + t)
    h = lambda x: fn(x - t)
    # f has the sign of x and is zero (when extra is) at the support end
    # nearest zero; away from it |f| grows as |x| does
    base = h(moved.los[0]) if sx > 0 else h(moved.his[0])
    extra = sx * draw(st.floats(0.0, 2.0))
    return moved, lambda x: h(x) - base + extra


@settings(max_examples=40, deadline=None)
@given(monotone_products())
def test_monotone_products_are_ranged_from_their_endpoints(case):
    a, fn = case
    counted, calls = _counted(fn)
    res = correlated_product(a, custom(counted, "increasing"))
    assert calls[0] <= _endpoint_budget(a)
    assert_levels_match_scan(res, a, lambda x: x * fn(x))
    num = correlated_product(a, custom(fn, "increasing"), RangeMethod())
    tol = 1e-9 * np.maximum(1.0, np.maximum(np.abs(num.los), np.abs(num.his)))
    assert np.all(np.abs(res.los - num.los) <= tol)
    assert np.all(np.abs(res.his - num.his) <= tol)


def test_increasing_custom_sum_is_ranged_from_its_endpoints():
    a = triangular(-1.0, 0.5, 2.0, grid=100)
    counted, calls = _counted(math.exp)
    res = correlated_sum(a, custom(counted, "increasing"))
    assert calls[0] <= _endpoint_budget(a)
    calls[0] = 0
    num = correlated_sum(a, custom(counted, "increasing"), RangeMethod())
    assert calls[0] > 1025
    assert np.array_equal(res.los, num.los) and np.array_equal(res.his, num.his)


def test_a_crisp_operand_is_not_scanned():
    # g takes one value on a point support: the numeric method reads f at the
    # 2(K + 1) level ends, and the direction check on a point makes no call
    a = crisp(1.0, grid=10)
    counted, calls = _counted(math.exp)
    res = correlated_sum(a, custom(counted, "increasing"), RangeMethod())
    assert calls[0] == 2 * (a.k + 1)
    assert np.all(res.los == 1.0 + math.e) and np.all(res.his == 1.0 + math.e)


@pytest.mark.parametrize("op", [correlated_sum, correlated_product])
@pytest.mark.parametrize("fn, domain, error", [
    (lambda x: x if x <= 2.5 else math.nan, None, DomainError),
    (lambda x: 5.0 - x, None, MonotonicityError),
    (math.exp, Interval(0.0, 2.0), DomainError),
], ids=["nan", "wrong-direction", "domain"])
def test_endpoint_route_keeps_the_custom_checks(op, fn, domain, error):
    # a positive f declared increasing on a positive support: the route
    # both operations would take once the checks pass
    with pytest.raises(error):
        op(triangular(1.0, 2.0, 3.0), custom(fn, "increasing", domain))


def _around(x, h, grid=30):
    """Triangular number on [x - h, x + 2h] peaking at x + h/2: exactly the
    levels with alpha <= 2/3 hold x."""
    return triangular(x - h, x + 0.5 * h, x + 2.0 * h, grid=grid)


def test_stated_extrema_replace_the_end_on_every_level_holding_them():
    # In the families with h <= 3e-8 some endpoint values round past the
    # stated value, so folding it in with a min or max would lose it.
    for q, r, h in ((2.0, -3.0, 1.0), (5.0, 3.0, 1e-9), (-0.7, 1.3, 1.0), (-0.7, 1.3, 1e-10)):
        xv = -r / (2.0 * q)
        a = _around(xv, h)
        res = correlated_product(a, linear(q, r))
        held = (a.los <= xv) & (xv <= a.his)
        assert 0 < held.sum() < a.k + 1
        ends = res.los if q > 0 else res.his
        assert np.all(ends[held] == q * xv * xv + r * xv)
    for q, r, h in ((4.0, 0.0, 0.5), (2.0, -1.5, 0.3), (2.0, 0.0, 3e-8)):
        s = math.sqrt(q)
        for x, value in ((s, 2.0 * s + r), (-s, -2.0 * s + r)):
            a = _around(x, h)
            res = correlated_sum(a, hyperbolic(q, r))
            held = (a.los <= x) & (x <= a.his)
            assert 0 < held.sum() < a.k + 1
            ends = res.los if x > 0 else res.his
            assert np.all(ends[held] == value)


@st.composite
def hugged_stationary_points(draw):
    """A linear or hyperbolic correlation and a triangular operand whose
    support lies within 1e-12 to 1 of the stationary point of x * f(x)
    (the vertex -r/2q) or of x + f(x) (+-sqrt(q)), holding it or not."""
    grid = draw(st.sampled_from([1, 7, 100]))
    r = draw(st.floats(-10.0, 10.0))
    if draw(st.booleans()):
        q = draw(st.floats(0.1, 10.0)) * draw(st.sampled_from([-1.0, 1.0]))
        f, x0, reach = linear(q, r), -r / (2.0 * q), 1.0
    else:
        q = draw(st.floats(0.25, 100.0))
        x0 = math.sqrt(q) * draw(st.sampled_from([-1.0, 1.0]))
        f, reach = hyperbolic(q, r), 0.45 * abs(x0)  # keeps the support off zero
    d1, d2 = (min(reach, 10.0 ** draw(st.floats(-12.0, 0.0))) for _ in range(2))
    lo, hi = draw(st.sampled_from([(x0 - d1, x0 + d2),
                                   (x0 - d1 - d2, x0 - d1),
                                   (x0 + d1, x0 + d1 + d2)]))
    peak = min(max(lo + draw(st.floats(0.0, 1.0)) * (hi - lo), lo), hi)
    return triangular(lo, peak, hi, grid=grid), f


@settings(max_examples=40, deadline=None)
@given(hugged_stationary_points())
def test_stated_extrema_near_stationary_points(case):
    a, f = case
    b = induced_number(a, f)
    for op, std, g in (
        (correlated_sum, standard_sum(a, b), lambda x: x + f(x)),
        (correlated_product, standard_product(a, b), lambda x: x * f(x)),
    ):
        res = op(a, f)
        tol = 1e-9 * (1.0 + np.maximum(np.abs(std.los), np.abs(std.his)))
        assert np.all(res.los >= std.los - tol)
        assert np.all(res.his <= std.his + tol)
        assert_levels_match_scan(res, a, g)
        num = op(a, f, RangeMethod())
        assert np.all(np.abs(res.los - num.los) <= tol)
        assert np.all(np.abs(res.his - num.his) <= tol)


def test_correlated_numeric_matches_analytic(rng):
    method = RangeMethod(samples=257)
    for _ in range(10):
        a = random_sign_definite(rng, side=1)
        for f in (linear(2.0, 1.0), linear(-0.5, 3.0), hyperbolic(4.0), hyperbolic(-2.0, 1.0)):
            for op in (correlated_sum, correlated_product):
                fast = op(a, f)
                slow = op(a, f, method)
                assert all(r.equal for r in compare_levels(fast, slow, 1e-7))


def test_correlated_subset_of_standard(rng):
    for _ in range(30):
        a = random_shape(rng)
        f = linear(float(rng.uniform(0.2, 3.0)), float(rng.uniform(-2.0, 2.0)))
        b = induced_number(a, f)
        for corr, std in (
            (correlated_sum(a, f), standard_sum(a, b)),
            (correlated_product(a, f), standard_product(a, b)),
        ):
            rows = compare_levels(corr, std)
            assert all(r.subset for r in rows)


def test_closed_form_kind_list_omits_hyperbolic_correlated_sum():
    assert "corr-sum-hyperbolic" not in CLOSED_FORM_KINDS
    a = triangular(1.0, 2.0, 3.0)
    with pytest.raises(ValueError):
        closed_form("corr-sum-hyperbolic", a, 4.0, 0.0)
    with pytest.raises(ValueError):
        closed_form("std-sum-linear", a, 0.0, 1.0)


@pytest.mark.parametrize("kind, q, r, message", [
    ("std-sum-linear", 0.0, 1.0, "linear correlation needs q != 0 to stay injective"),
    ("std-sum-linear", math.inf, 0.0, "linear correlation needs a finite q, got inf"),
    ("corr-prod-linear", 1.0, math.nan, "linear correlation needs a finite r, got nan"),
    ("corr-prod-hyperbolic", -math.inf, 0.0, "hyperbolic correlation needs a finite q, got -inf"),
])
def test_closed_form_checks_its_coefficients_as_the_factories_do(kind, q, r, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        closed_form(kind, triangular(1.0, 2.0, 3.0), q, r)


def test_closed_form_std_prod_linear_endpoint_products():
    a = triangular(1.0, 2.0, 3.0)
    got = closed_form("std-prod-linear", a, 2.0, 1.0)
    # support endpoints come from the four products {3, 7, 9, 21}
    assert got.support == Interval(3.0, 21.0)
    want = standard_product(a, induced_number(a, linear(2.0, 1.0)))
    assert all(r.equal for r in compare_levels(got, want, 1e-9))


def test_closed_form_std_sum_negative_slope():
    a = triangular(1.0, 2.0, 3.0)
    got = closed_form("std-sum-linear", a, -1.0, 0.0)
    want = standard_sum(a, induced_number(a, negation()))
    assert all(r.equal for r in compare_levels(got, want, 1e-12))
    assert got.support == Interval(-2.0, 2.0)


def test_closed_form_hyperbolic_kinds_require_sign_definite_support():
    a = triangular(-1.0, 0.5, 2.0)
    for kind in ("std-sum-hyperbolic", "std-prod-hyperbolic", "corr-prod-hyperbolic"):
        with pytest.raises(DomainError):
            closed_form(kind, a, 4.0, 0.0)


def test_closed_form_matches_engine_on_reference_shapes():
    a = triangular(1.0, 2.0, 3.0)
    cases = [
        ("std-sum-linear", 2.0, 1.0, standard_sum(a, induced_number(a, linear(2.0, 1.0)))),
        ("std-sum-hyperbolic", 4.0, 0.0, standard_sum(a, induced_number(a, hyperbolic(4.0)))),
        ("std-prod-hyperbolic", 4.0, 1.0, standard_product(a, induced_number(a, hyperbolic(4.0, 1.0)))),
        ("corr-sum-linear", -2.0, 0.5, correlated_sum(a, linear(-2.0, 0.5))),
        ("corr-prod-linear", 2.0, 1.0, correlated_product(a, linear(2.0, 1.0))),
        ("corr-prod-hyperbolic", 4.0, 1.0, correlated_product(a, hyperbolic(4.0, 1.0))),
    ]
    for kind, q, r, want in cases:
        got = closed_form(kind, a, q, r)
        assert all(r.equal for r in compare_levels(got, want, 1e-9)), kind


@settings(deadline=None)
@given(_shape_params, st.sampled_from([1, 2, 7, 50]),
       st.sampled_from(["std-prod-linear", "std-prod-hyperbolic"]),
       st.sampled_from([-1.0, 1.0, 2.5]) | st.floats(-1e3, 1e3).filter(bool),
       st.sampled_from([-0.0, 0.0, 1.0]) | st.floats(-1e3, 1e3))
@example([-1.0, -0.0, 0.0, 1.0], 2, "std-prod-linear", -1.0, 0.0)  # ends -0.0 and 0.0
# a subnormal end: los * q / his passes the float range
@example([-1.0, -1.0, -2.225073858507e-311], 1, "std-prod-hyperbolic", -1.0, -0.0)
def test_closed_form_std_prod_kinds_reduce_their_four_candidates(params, grid, kind, q, r):
    # the least and greatest of the four candidates, bit for bit as
    # np.minimum.reduce and np.maximum.reduce of them in this order give
    # them: at the core of the example they are -0.0, 0.0, 0.0, 0.0
    a = (triangular if len(params) == 3 else trapezoidal)(*params, grid=grid)
    los, his = a.los, a.his
    if kind == "std-prod-hyperbolic" and los[0] <= 0.0 <= his[0]:
        return
    with np.errstate(all="ignore"):
        if kind == "std-prod-hyperbolic":
            cands = (q + r * los, his * q / los + r * his, los * q / his + r * los, q + r * his)
        else:
            cands = (q * los * los + r * los, q * his * los + r * los,
                     q * his * los + r * his, q * his * his + r * his)
        want = _outcome(lambda: FuzzyNumber(np.minimum.reduce(cands), np.maximum.reduce(cands)))
        assert _outcome(lambda: closed_form(kind, a, q, r)) == want


@pytest.mark.parametrize("kind, a, q, r, level", [
    # a subnormal upper end: los * q / his passes the float range in the divide
    ("std-prod-hyperbolic", triangular(-1.0, -1.0, -2.225073858507e-311, grid=1), -1.0, -0.0,
     "[-inf, -2.22507e-311]"),
    ("std-sum-linear", crisp(1e308, grid=1), 2.0, 0.0, "[inf, inf]"),
    ("corr-prod-linear", crisp(1e200, grid=1), 2.0, 0.0, "[inf, inf]"),
])
def test_closed_form_past_the_float_range_raises_its_error_without_a_warning(kind, a, q, r,
                                                                              level):
    message = f"level endpoints must be finite; the level at alpha 0 is {level}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            closed_form(kind, a, q, r)


_MAX = float(np.finfo(float).max)
# ends and coefficients from subnormal to the float max
_MAGNITUDES = (st.sampled_from([-0.0, 0.0, 5e-324, -2.225073858507e-311, 1.0, -2.0, 1e154,
                                -1e200, 1e300, 1e308, _MAX, -_MAX])
               | st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=300, deadline=None)
@given(st.lists(_MAGNITUDES, min_size=3, max_size=3), st.sampled_from([1, 2, 7]),
       st.sampled_from(CLOSED_FORM_KINDS), _MAGNITUDES, _MAGNITUDES)
@example([-1.0, -1.0, -2.225073858507e-311], 1, "std-prod-hyperbolic", -1.0, -0.0)
@example([1e308, 1e308, 1e308], 1, "std-sum-linear", 2.0, 0.0)
@example([1e200, 1e200, 1e200], 1, "corr-prod-linear", 2.0, 0.0)
def test_closed_form_gives_a_number_or_an_error_at_any_magnitude(params, grid, kind, q, r):
    # no errstate: the suite turns a RuntimeWarning into an error
    lo, mid, hi = sorted(params)
    if not math.isfinite(hi - lo):  # halving keeps the order and brings the width in range
        lo, mid, hi = lo / 2, mid / 2, hi / 2
    a = triangular(lo, mid, hi, grid=grid)
    try:
        got = closed_form(kind, a, q, r)
    except ValueError:  # DomainError included
        return
    assert isinstance(got, FuzzyNumber)


def test_corr_prod_linear_closed_form_needs_co_monotone_terms():
    # with q, r pulling in opposite directions the shortcut genuinely
    # overshoots the true range, so the engine must stay authoritative
    a = triangular(1.0, 2.0, 3.0)
    shortcut = closed_form("corr-prod-linear", a, 1.0, -1.0)
    exact = correlated_product(a, linear(1.0, -1.0))
    assert shortcut.support == Interval(-2.0, 8.0)
    assert exact.support.approx_equal(Interval(0.0, 6.0), tol=1e-12)
    rows = compare_levels(exact, shortcut)
    assert all(r.subset for r in rows)
    assert not all(r.equal for r in rows)


def test_compare_levels_reports_distance_and_flags():
    a = triangular(1.0, 2.0, 3.0)
    b = triangular(1.0, 2.0, 4.0)
    rows = compare_levels(a, b)
    assert len(rows) == a.k + 1
    assert rows[0].hausdorff == 1.0
    assert rows[0].subset  # [1,3] inside [1,4]
    assert not rows[0].equal
    assert rows[-1].hausdorff == 0.0
    assert rows[-1].equal


def test_compare_levels_requires_matching_grids():
    a = triangular(1.0, 2.0, 3.0, grid=50)
    b = triangular(1.0, 2.0, 3.0, grid=100)
    with pytest.raises(ValueError, match="resample"):
        compare_levels(a, b)


def test_self_comparison_distance_zero():
    a = triangular(-2.0, 0.0, 1.0)
    p = correlated_product(a, identity())
    rows = compare_levels(p, p)
    assert max(r.hausdorff for r in rows) == 0.0
    assert all(r.equal and r.subset for r in rows)


def _row_key(r):
    """Every field of a LevelResult with its Python type, floats by their
    bits (so -0.0 and 0.0 differ)."""
    fields = (r.alpha, r.left.lo, r.left.hi, r.right.lo, r.right.hi,
              r.hausdorff, r.subset, r.equal)
    return tuple((type(v), v.hex() if type(v) is float else v) for v in fields)


_ENDS = st.sampled_from([-0.0, 0.0, -1.0, 0.5, 1.0, 2.25]) | st.floats(-1e3, 1e3)


@st.composite
def _family(draw, k):
    pts = sorted(draw(st.lists(_ENDS, min_size=2 * (k + 1), max_size=2 * (k + 1))))
    return FuzzyNumber(pts[:k + 1], pts[k + 1:][::-1])


@st.composite
def _compared_pair(draw):
    k = draw(st.sampled_from([1, 2, 100]))
    x = draw(_family(k))
    kind = draw(st.sampled_from(["other", "same", "shifted", "crisp"]))
    if kind == "other":
        y = draw(_family(k))
    elif kind == "same":
        y = x
    elif kind == "shifted":
        d = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]))
        y = FuzzyNumber(x.los - d, x.his + d)
    else:
        y = crisp(draw(_ENDS), grid=k)
    if draw(st.booleans()):
        x, y = y, x
    which = draw(st.sampled_from(["zero", "fixed", "gap"]))
    if which == "zero":
        tol = 0.0
    elif which == "fixed":
        tol = draw(st.sampled_from([1e-9, 0.25, 0.5, 1.0]))
    else:  # a tolerance some level's distance meets exactly
        i = draw(st.integers(0, k))
        tol = reference_compare_levels(x, y)[i].hausdorff
    return x, y, tol


@settings(max_examples=120, deadline=None)
@given(_compared_pair())
def test_compare_levels_matches_per_level_reference(pair):
    x, y, tol = pair
    got = compare_levels(x, y, tol)
    want = reference_compare_levels(x, y, tol)
    assert len(got) == len(want)
    for g, w in zip(got, want, strict=True):
        assert _row_key(g) == _row_key(w)


def test_compare_levels_reference_cases():
    # levels exactly tol apart, tol = 0, -0.0 ends, crisp levels, and ends
    # whose distance or tol-widened bounds overflow to inf (without a numpy
    # warning)
    x = triangular(-1.0, 0.0, 1.0, grid=2)
    y = FuzzyNumber(x.los - 0.5, x.his + 0.5)
    z = crisp(-0.0, grid=2)
    for a, b, tol in ((x, y, 0.5), (y, x, 0.5), (x, y, 0.0), (x, x, 0.0),
                      (z, crisp(0.0, grid=2), 0.0), (z, x, 0.0), (x, z, 1.0),
                      (crisp(1e308, grid=2), crisp(-1e308, grid=2), 0.0),
                      (crisp(-1e308, grid=2), crisp(1e308, grid=2), 1e308),
                      (crisp(1e308, grid=2), crisp(-1e308, grid=2), 1e308)):
        rows = compare_levels(a, b, tol)
        assert [_row_key(r) for r in rows] == [
            _row_key(r) for r in reference_compare_levels(a, b, tol)]
    assert [r.equal for r in compare_levels(x, y, 0.5)] == [True] * 3
    assert not any(r.equal for r in compare_levels(x, y, 0.0))


def test_compare_levels_at_the_float_max_gives_no_numpy_warning():
    # distances and tol-widened bounds past the float range read inf
    x = triangular(-1.7e308, -1.6e308, -1.5e308)
    y = triangular(1.5e308, 1.6e308, 1.7e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = compare_levels(x, y, 1e-9)
    assert rows[0].hausdorff == math.inf
    assert not any(r.subset or r.equal for r in rows)


def test_compare_levels_returns_a_plain_list():
    # the return type is public: callers compare results as lists
    a = triangular(1.0, 2.0, 3.0, grid=10)
    corr = correlated_sum(a, hyperbolic(4.0))
    std = standard_sum(a, induced_number(a, hyperbolic(4.0)))
    rows = compare_levels(corr, std)
    assert type(rows) is list and rows == reference_compare_levels(corr, std)
    assert all(r.subset for r in rows)


@pytest.mark.parametrize("k", [1, 7, 100, 1000, 10000])
def test_compare_levels_reads_its_alphas_from_the_grid_built_once(k):
    # the alpha column is np.linspace's, bit for bit, and after the first
    # call at a K no call builds the grid again
    x = triangular(-1.0, 0.5, 2.0, grid=k)
    y = correlated_product(x, linear(2.0, 1.0))
    rows = compare_levels(x, y)
    grid = np.linspace(0.0, 1.0, k + 1).tolist()
    assert [r.alpha.hex() for r in rows] == [v.hex() for v in grid]
    assert grid_builds(k, lambda: compare_levels(y, x)) == 0
    # a caller writing into the alphas it was given changes no later row
    alphas = x.alphas
    alphas[:] = 0.5
    assert compare_levels(x, y) == rows


@pytest.mark.parametrize("tol", [-1e-9, -math.inf, math.nan])
def test_compare_levels_rejects_bad_tol(tol):
    a = triangular(1.0, 2.0, 3.0)
    with pytest.raises(ValueError, match="tol must be non-negative"):
        compare_levels(a, a, tol)


def _rows_under_test():
    """compare_levels and OracleReport.levels rows over a spread of levels:
    -0.0 ends, crisp levels, ends near the float limits, an analytic and a
    numeric oracle report."""
    x = triangular(-1.0, 0.0, 1.0, grid=2)
    big = crisp(1.7e308, grid=2)
    report = oracle_check(triangular(1.0, 2.0, 3.0, grid=4), hyperbolic(4.0), "sum", n=201)
    scanned = oracle_check(triangular(-1.0, 0.5, 2.0, grid=4),
                           custom(lambda x: -x**3 - x, "decreasing"), "sum", n=201)
    return (compare_levels(x, crisp(-0.0, grid=2), 0.0) + compare_levels(big, x, 1e308)
            + report.levels + scanned.levels)


def _validated(r):
    """The row r built again through the public, validating constructors."""
    return LevelResult(r.alpha, Interval(r.left.lo, r.left.hi),
                       Interval(r.right.lo, r.right.hi), r.hausdorff, r.subset, r.equal)


def test_oracle_report_rows_match_a_validated_per_level_reference():
    for a, f, method in ((triangular(1.0, 2.0, 3.0, grid=20), hyperbolic(4.0), "analytic"),
                         (triangular(-1.0, 0.5, 2.0, grid=20),
                          custom(lambda x: -x**3 - x, "decreasing"), "numeric")):
        report = oracle_check(a, f, "sum", n=401)
        want = reference_compare_levels(report.engine, report.oracle, 0.0)
        assert report.method == method
        assert [_row_key(r) for r in report.levels] == [_row_key(r) for r in want]


def test_rows_behave_as_validated_construction():
    for row in _rows_under_test():
        ref = _validated(row)
        assert _row_key(row) == _row_key(ref)
        assert row._fields == ref._fields == ("alpha", "left", "right", "hausdorff", "subset",
                                              "equal")
        assert row.left._fields == ref.left._fields == ("lo", "hi")
        assert pickle.dumps(row) == pickle.dumps(ref)
        assert _row_key(pickle.loads(pickle.dumps(row))) == _row_key(ref)
        for twin in (copy.copy(row), copy.deepcopy(row)):
            assert twin == ref and _row_key(twin) == _row_key(ref)
        assert row._replace(equal=False) == ref._replace(equal=False)
        assert hash(row) == hash(ref) and hash(row.left) == hash(ref.left)
        assert repr(row) == repr(ref)
        for obj in (row, row.left, row.right):
            assert not hasattr(obj, "__dict__")
        with pytest.raises(AttributeError):
            row.hausdorff = 0.0
        with pytest.raises(AttributeError):
            row.left.lo = 0.0


def test_rows_are_built_without_running_interval_validation():
    # the rows come from levels FuzzyNumber has already validated; only the
    # public constructor runs __post_init__ (which the benchmark's trace counts)
    a = triangular(1.0, 2.0, 3.0, grid=10000)
    corr = correlated_sum(a, hyperbolic(4.0))
    std = standard_sum(a, induced_number(a, hyperbolic(4.0)))
    report = oracle_check(triangular(1.0, 2.0, 3.0, grid=20), hyperbolic(4.0), "sum", n=401)
    post_init = Interval.__post_init__
    calls = []

    def counted(self):
        calls.append(self)
        post_init(self)
    with mock.patch.object(Interval, "__post_init__", counted):
        rows = compare_levels(corr, std)
        levels = report.levels
        assert calls == []
        iv = Interval(np.float64(1), 2)
    assert len(calls) == 1
    assert type(iv.lo) is float and type(iv.hi) is float
    assert len(rows) == 10001 and len(levels) == 21
    for row in rows + levels:
        assert type(row) is LevelResult
        assert type(row.left) is type(row.right) is Interval


def test_rows_are_built_with_the_collector_paused():
    # compare_levels and OracleReport.levels at K = 5000 build 15003 tracked
    # tuples each and start no collection while they do
    a = triangular(1.0, 2.0, 3.0, grid=5000)
    corr = correlated_sum(a, hyperbolic(4.0))
    std = standard_sum(a, induced_number(a, hyperbolic(4.0)))
    report = oracle_check(a, hyperbolic(4.0), "sum")
    rows, started = collections_during(lambda: compare_levels(corr, std))
    assert len(rows) == 5001 and started == 0
    levels, started = collections_during(lambda: report.levels)
    assert len(levels) == 5001 and started == 0


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("raises", [False, True])
def test_row_building_keeps_the_collector_state(enabled, raises):
    a = triangular(1.0, 2.0, 3.0, grid=10)
    report = oracle_check(a, hyperbolic(4.0), "sum", n=201)
    if not enabled:
        gc.disable()
    try:
        for build in (lambda: compare_levels(a, a), lambda: report.levels):
            if raises:
                # tuple.__new__ rejects a type that is not a tuple
                with mock.patch.object(arithmetic, "LevelResult", object), \
                        pytest.raises(TypeError):
                    build()
            else:
                assert len(build()) == 11
            assert gc.isenabled() is enabled
    finally:
        gc.enable()


def test_compare_levels_needs_fuzzy_numbers():
    a = triangular(1.0, 2.0, 3.0, grid=2)
    # a look-alike with every attribute compare_levels reads
    fake = types.SimpleNamespace(k=a.k, alphas=a.alphas, los=np.array([3.0, 2.0, 1.0]),
                                 his=np.array([1.0, 2.0, 3.0]))
    for x, y in ((a, fake), (fake, a), (a, [[1.0, 3.0]] * 3)):
        with pytest.raises(TypeError, match="compare_levels needs two FuzzyNumbers"):
            compare_levels(x, y)


def test_nan_in_the_scan_raises_domain_error():
    # f is NaN at 3 of the 1025 scan points and at none of the 257 checked ones
    f = custom(lambda x: math.nan if 1.99 < x < 2.0 else -2.0 * x, "decreasing")
    with pytest.raises(DomainError, match=r"^g gives nan at x = 1\.9912109375, the first NaN "
                                          r"scan sample on \[-1, 2\]$"):
        correlated_sum(triangular(-1.0, 0.5, 2.0), f)


def test_nan_in_the_refinement_raises_domain_error():
    a = triangular(-1.0, 0.5, 2.0)
    # the check, the level ends and the scan's points off the check's grid
    # come first: one call per scan point and two per level
    before = RangeMethod().samples + 2 * (a.k + 1)
    calls = []

    def fn(x):
        calls.append(x)
        return math.nan if len(calls) > before else -x**3 - x
    with pytest.raises(DomainError, match=r"^g gives nan at x = \S+, the first NaN "
                                          r"refined value on \[-1, 2\]$"):
        correlated_sum(a, custom(fn, "decreasing"))
    assert len(calls) > before


def test_nan_the_refinement_meets_but_does_not_return_raises_domain_error():
    # calls 1228 on are the refinement's; the bracket would move past these
    calls = []

    def fn(x):
        calls.append(x)
        return math.nan if 1233 <= len(calls) <= 1235 else -x**3 - x
    with pytest.raises(DomainError) as info:
        correlated_sum(triangular(-1.0, 0.5, 2.0), custom(fn, "decreasing"))
    assert str(info.value) == (f"g gives nan at x = {calls[1232]:.12g}, the first NaN "
                               f"refined value on [-1, 2]")


def test_refinement_near_a_support_end_past_1e6_keeps_g_inside_the_support():
    # a bracket of 1e-10 is below the float resolution at |x| ~ 1e6: a search
    # that kept stepping towards it drifted an ulp past x = 2e6 and folded that
    # value of g, below g's minimum on the support, into the core level
    res = correlated_sum(triangular(-3e6, -1e6, 2e6, grid=10),
                         custom(lambda x: -(x / 1e6) ** 3 * 1e6 - x, "decreasing"))
    assert res.core == Interval(1e6, 1e6)
    assert res.support.lo == -8e6


# Strictly monotone shapes h(u) of u = x / scale and their direction.
_SHAPES = {
    "cubic": (lambda u: -u**3 - u, "decreasing"),
    "line": (lambda u: -2.0 * u, "decreasing"),
    "atan": (math.atan, "increasing"),
    "exp": (lambda u: math.exp(-u), "decreasing"),
}


def _scaled_custom(shape, scale, op, log):
    """The custom correlation scale * h(x / scale) for a sum, h(x / scale)
    for a product, so that g is scale times a function of u; it logs every x."""
    h, direction = _SHAPES[shape]
    c = scale if op is correlated_sum else 1.0

    def fn(x):
        log.append(x)
        return c * h(x / scale)
    return custom(fn, direction)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 300), st.floats(-3.0, 5.0), st.floats(0.01, 4.0), st.floats(0.01, 4.0),
       st.sampled_from([-8.0, 0.0, 8.0]), st.sampled_from(sorted(_SHAPES)),
       st.sampled_from([correlated_sum, correlated_product]),
       st.sampled_from([None, RangeMethod()]), st.sampled_from([1, 7]))
@example(6, -3.0, 2.0, 3.0, 0.0, "cubic", correlated_sum, None, 10)
def test_every_call_of_f_lies_on_the_support_at_any_magnitude(exponent, lo, left, right, shift,
                                                              shape, op, method, grid):
    scale = 10.0 ** exponent
    a = triangular((lo + shift) * scale, (lo + shift + left) * scale,
                   (lo + shift + left + right) * scale, grid=grid)
    log = []
    res = op(a, _scaled_custom(shape, scale, op, log), method)
    sup = a.support
    assert all(sup.lo <= x <= sup.hi for x in log)
    # the core is the peak, or the peak and its neighbouring float where
    # c - (c - b) rounds past b
    f = _scaled_custom(shape, scale, op, [])
    g = [x + float(f(x)) if op is correlated_sum else x * float(f(x)) for x in a.core]
    assert res.core == Interval(min(g), max(g))


def test_refinement_work_does_not_grow_with_the_magnitude_of_the_support():
    calls = {}
    for scale in (1.0, 1e300):
        log = calls[scale] = []
        correlated_sum(triangular(-3.0 * scale, -1.0 * scale, 2.0 * scale, grid=10),
                       _scaled_custom("cubic", scale, correlated_sum, log), RangeMethod())
    assert len(calls[1e300]) <= 1.25 * len(calls[1.0])


def _float_only(fn):
    """fn, failing any call whose argument is not one Python float."""
    def call(x):
        assert type(x) is float, type(x)
        return fn(x)
    return call


def test_custom_functions_are_only_called_on_one_python_float():
    f = custom(_float_only(math.exp), "increasing")
    scanned = custom(_float_only(lambda x: -x**3 - x), "decreasing")
    pos = triangular(1.0, 2.0, 3.0, grid=7)
    mixed = triangular(-1.0, 0.5, 2.0, grid=7)
    for op in (correlated_sum, correlated_product):
        op(pos, f)  # ranged from the level ends
        op(pos, f, RangeMethod(samples=65))  # scanned
        op(mixed, scanned)  # scanned by the default method
    induced_number(mixed, f)
    assert check_monotone(f, Interval(-1.0, 2.0)) == "increasing"
    for op in ("sum", "product"):
        oracle_check(mixed, f, op, n=101)
    square = _float_only(lambda x: x * x)
    for method in (None, RangeMethod(samples=65)):
        assert range_over_interval(square, Interval(-1.0, 2.0), method).hi == 4.0


def test_custom_results_are_taken_with_float():
    # g is x + float(fn(x)) in float64, whatever number type fn returns
    a = triangular(1.0, 2.0, 3.0, grid=2)
    f32 = lambda x: np.float32(x) * np.float32(1.1)
    res = correlated_sum(a, custom(f32, "increasing"))
    assert res.los.tolist() == [x + float(f32(x)) for x in a.los.tolist()]
    res = correlated_product(a, custom(lambda x: Decimal(x) + 1, "increasing"))
    assert res.los.tolist() == [2.0, 3.75, 6.0]

@pytest.mark.parametrize("lift", [float, Decimal, np.float32], ids=["float", "Decimal", "float32"])
@pytest.mark.parametrize("a, op, h", [
    (triangular(-1.0, 0.3, 2.0, grid=4), correlated_product, lambda t, lift: t + lift(0.5)),
    (triangular(-1.0, 0.3, 2.0, grid=4), correlated_product, lambda t, lift: t**3 + t),
    (triangular(0.5, 1.0, 2.0, grid=4), correlated_product, lambda t, lift: t + lift(0.5)),
    (triangular(-1.0, 0.3, 2.0, grid=4), correlated_sum, lambda t, lift: t + lift(0.5)),
], ids=["scanned", "zero-cut", "monotone-product", "monotone-sum"])
def test_every_read_of_a_custom_f_takes_float(lift, a, op, h):
    # fn computes in the number type lift gives; every value of it, at the
    # level ends, the scan, the refinement and the sign reads, is float(fn(x))
    fn = lambda x: h(lift(x), lift)
    got = op(a, custom(fn, "increasing"))
    want = op(a, custom(lambda x: float(fn(x)), "increasing"))
    assert got.los.tobytes() == want.los.tobytes() and got.his.tobytes() == want.his.tobytes()


def test_local_minima_match_their_definition(rng):
    # an index qualifies when no neighbour is smaller, a missing one counting
    # as +inf; of a run of qualifying indices only the first is kept
    for _ in range(2000):
        ys = rng.choice([-math.inf, -1.0, 0.0, 0.0, 1.0, 2.0, math.inf], int(rng.integers(2, 12)))
        pad = [math.inf, *ys, math.inf]
        low = [pad[i + 1] <= pad[i] and pad[i + 1] <= pad[i + 2] for i in range(ys.size)]
        want = [i for i in range(ys.size) if low[i] and not (i and low[i - 1])]
        assert arithmetic._local_min_indices(ys).tolist() == want


def test_custom_level_ends_past_the_float_range_fail_without_a_warning():
    # no errstate: the suite turns a RuntimeWarning into an error
    cases = ((correlated_sum, triangular(1e308, 1.2e308, 1.5e308), lambda x: x),
             (correlated_product, triangular(1.0, 2.0, 3.0), lambda x: 1e308 * (x / 3.0)))
    for op, a, fn in cases:
        for method in (None, RangeMethod(samples=65)):
            with pytest.raises(ValueError, match=r"^level endpoints must be finite; "
                                                 r"the level at alpha 0 is \[.*inf\]$"):
                op(a, custom(fn, "increasing"), method)


def test_hyperbolic_past_the_float_range_is_a_domain_error_where_q_over_x_is_evaluated():
    # q/x passes the float max at a subnormal x; raised before any numpy warning
    tiny = crisp(2.225073858507203e-309, grid=1)
    message = r"^hyperbolic correlation leaves the float range on \[2\.22507e-309, 2\.22507e-309\]$"
    for call in (lambda f: correlated_sum(tiny, f), lambda f: induced_number(tiny, f),
                 lambda f: oracle_check(tiny, f, "sum", n=101),
                 lambda f: oracle_check(tiny, f, "product", n=101)):
        for f in (hyperbolic(1.0), hyperbolic(-1.0, 5.0)):
            with pytest.raises(DomainError, match=message):
                call(f)
    # x * (q/x + r) is r*x + q, finite on the same support
    for f, want in ((hyperbolic(1.0), 1.0), (hyperbolic(-1.0, 5.0), -1.0)):
        for method in (None, RangeMethod(samples=65)):
            assert correlated_product(tiny, f, method) == crisp(want, grid=1)
        assert closed_form("corr-prod-hyperbolic", tiny, f.q, f.r) == crisp(want, grid=1)
    huge = crisp(1e308, grid=1)
    assert correlated_sum(huge, hyperbolic(1.0)).support == Interval(1e308, 1e308)


# Strictly monotone inner functions and their direction; np.arctan and the
# -exp(x/2) of numpy return np.float64, the others Python floats.
_INNER = {
    "exp": (math.exp, 1.0),
    "atan": (np.arctan, 1.0),
    "cubic": (lambda x: x**3 + x, 1.0),
    "nexp": (lambda x: -np.exp(x / 2), -1.0),
}


@st.composite
def custom_compositions(draw):
    """(a, make_f): an operand and a factory of the custom correlation
    c*h(s*x + t) + d with its true direction, each made afresh with its own
    call log.  The fault, when drawn, starts at a drawn call: the function
    raises, or returns nan or +-inf, from that call on."""
    h, sign = _INNER[draw(st.sampled_from(sorted(_INNER)))]
    s = draw(st.floats(0.1, 1.5)) * draw(st.sampled_from([-1.0, 1.0]))
    c = draw(st.floats(0.1, 3.0)) * draw(st.sampled_from([-1.0, 1.0]))
    t, d = draw(st.floats(-2.0, 2.0)), draw(st.floats(-5.0, 5.0))
    direction = "increasing" if sign * s * c > 0 else "decreasing"
    fault = draw(st.sampled_from([None, None, "raise", math.nan, math.inf, -math.inf]))
    start = draw(st.integers(0, 1500))
    grid = draw(st.sampled_from([1, 2, 7, 100]))
    seed = draw(st.integers(0, 2**32 - 1))
    a = random_shape(np.random.default_rng(seed), -4.0, 4.0, grid=grid)

    def make_f():
        log = []

        def fn(x):
            log.append(x)
            if fault is not None and len(log) > start:
                if fault == "raise":
                    raise ArithmeticError(f"call {len(log)} at x = {x!r}")
                return fault
            return c * h(s * x + t) + d
        return custom(fn, direction), log
    return a, make_f


def _outcome(run):
    """The result's level bytes, or the type and message of what it raised."""
    try:
        res = run()
    except Exception as e:  # the comparison is of whatever either side raises
        return type(e), str(e)
    if isinstance(res, Interval):
        return res
    return res.los.tobytes(), res.his.tobytes()


@settings(max_examples=60, deadline=None)
@given(custom_compositions(), st.sampled_from([None, RangeMethod(), RangeMethod(samples=65)]))
def test_custom_levels_match_per_point_evaluation_bit_for_bit(case, method):
    a, make_f = case
    for op in (correlated_sum, correlated_product):
        f, log = make_f()
        got = _outcome(lambda: op(a, f, method))
        ref_f, ref_log = make_f()
        with per_point_evaluation():
            want = _outcome(lambda: op(a, ref_f, method))
        assert got == want
        assert log == ref_log  # the same calls, in the same order
    f, log = make_f()
    g = lambda x: x + f.fn(x)
    got = _outcome(lambda: range_over_interval(g, a.support, RangeMethod(samples=65)))
    ref_f, ref_log = make_f()
    ref_g = lambda x: x + ref_f.fn(x)
    with per_point_evaluation():
        want = _outcome(lambda: range_over_interval(ref_g, a.support, RangeMethod(samples=65)))
    assert got == want and log == ref_log


def _logged(fn):
    """fn and the list of the x it is called at."""
    log = []

    def call(x):
        log.append(x)
        return fn(x)
    return call, log


@pytest.mark.parametrize("samples, reused", [(1025, True), (2049, True), (257, True),
                                             (129, False), (1000, False)])
def test_the_scan_takes_f_at_the_check_points_from_the_check(samples, reused):
    a = triangular(-1.0, 0.5, 2.0)
    fn = lambda x: -x**3 - x
    method = None if samples == 1025 else RangeMethod(samples=samples)
    logged, log = _logged(fn)
    res = correlated_sum(a, custom(logged, "decreasing"), method)
    # every scan point evaluated afresh, as without the check's samples
    parent, parent_log = _logged(fn)
    with mock.patch.object(arithmetic, "_scan_values", lambda values, xs, known: values(xs)):
        want = correlated_sum(a, custom(parent, "decreasing"), method)
    assert res.los.tobytes() == want.los.tobytes()
    assert res.his.tobytes() == want.his.tobytes()
    if not reused:
        assert log == parent_log
        return
    assert len(parent_log) - len(log) == MONOTONE_CHECK_SAMPLES
    start = MONOTONE_CHECK_SAMPLES + 2 * (a.k + 1)
    check, scan = log[:MONOTONE_CHECK_SAMPLES], log[start:start + samples - MONOTONE_CHECK_SAMPLES]
    # f is called at no x twice across the check and the scan, and the scan
    # calls it in order at the grid points the check did not take
    assert not set(check) & set(scan)
    assert scan == sorted(set(scan))
    assert sorted(check + scan) == parent_log[start:start + samples]


def test_a_product_across_zero_with_f_of_zero_zero_states_its_extremum():
    logged, log = _logged(lambda x: x**3 + x)
    a = triangular(-1.0, 0.3, 2.0)
    res = correlated_product(a, custom(logged, "increasing"))
    assert res.support == Interval(0.0, 20.0)
    assert len(log) == MONOTONE_CHECK_SAMPLES + 1 + 2 * (a.k + 1)
    assert log[MONOTONE_CHECK_SAMPLES] == 0.0
    # a scan misses the minimum
    scanned = correlated_product(a, custom(lambda x: x**3 + x, "increasing"), RangeMethod())
    assert scanned.support.lo == 7.285324543457025e-23


# Strictly monotone increasing h with h(0) = 0.
_THROUGH_ZERO = {"cubic": lambda u: u**3 + u, "line": lambda u: u, "atan": math.atan,
                 "sinh": math.sinh}


def _product_scan(fn):
    """x * fn(x) on an array, one float call of fn per point."""
    return lambda xs: xs * np.array([float(fn(float(x))) for x in xs])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_THROUGH_ZERO)), st.floats(0.1, 3.0), st.floats(0.1, 1.5),
       st.sampled_from([-1.0, 1.0]), st.sampled_from([-1.0, 1.0]),
       st.floats(0.05, 4.0), st.floats(0.05, 4.0), st.floats(0.0, 1.0),
       st.sampled_from([1, 7, 30]))
# at peak = 1 the sum rounds one ulp past right
@example(name="atan", c=1.0, s=1.0, c_sign=-1.0, s_sign=-1.0, left=0.9615036823964347,
         right=0.5619088663204056, peak=1.0, grid=1)
def test_products_across_zero_with_f_of_zero_zero_hold_a_dense_scan(name, c, s, c_sign, s_sign,
                                                                   left, right, peak, grid):
    h = _THROUGH_ZERO[name]
    c, s = c * c_sign, s * s_sign
    fn = lambda x: c * h(s * x)
    direction = "increasing" if c * s > 0 else "decreasing"
    logged, log = _logged(fn)
    a = triangular(-left, min(-left + peak * (left + right), right), right, grid=grid)
    res = correlated_product(a, custom(logged, direction))
    # the stated route: the check, f(0) and the level ends, with no scan
    assert len(log) == MONOTONE_CHECK_SAMPLES + 1 + 2 * (a.k + 1)
    assert_levels_match_scan(res, a, _product_scan(fn), n=401)
    # every level holding 0 has its end on g's side of 0 exactly g(0)
    at_zero = 0.0 * fn(0.0)
    ends = res.los if direction == "increasing" else res.his
    held = ends[(a.los <= 0.0) & (0.0 <= a.his)].tolist()
    assert held
    assert all(end == at_zero and math.copysign(1.0, end) == math.copysign(1.0, at_zero)
               for end in held)


def _mirror(x):
    """-x: the number whose levels are the levels of x negated."""
    return FuzzyNumber(-x.his, -x.los)


def _cubic(x):
    return x**3 + x


# Each correlation f, from q and r, with its mirror f', f'(-x) = -f(x): for a
# custom fn that is lambda y: -fn(-y), with the same direction.
_MIRRORED = {
    "linear": lambda q, r: (linear(q, r), linear(q, -r)),
    "hyperbolic": lambda q, r: (hyperbolic(q, r), hyperbolic(q, -r)),
    "identity": lambda q, r: (identity(), identity()),
    "negation": lambda q, r: (negation(), negation()),
    "reciprocal": lambda q, r: (reciprocal(), reciprocal()),
    "custom": lambda q, r: (custom(_cubic, "increasing"),
                            custom(lambda y: -_cubic(-y), "increasing")),
}

# A scan's samples and its golden section are not symmetric about 0, so a
# scanned end and its mirror may differ by this many ulps of the largest |end|.
MIRROR_SCAN_ULPS = 8


def _shape(draw, lo, grid):
    """A triangle or trapezoid whose support starts in [lo, 5]; each side
    or plateau is flat or at least 0.05 wide, so that the check of a custom
    f takes 257 distinct samples of any support that is not a point."""
    gaps = draw(st.lists(st.just(0.0) | st.floats(0.05, 3.0), min_size=2, max_size=3))
    params = np.cumsum([draw(st.floats(lo, 5.0)), *gaps]).tolist()
    return (triangular if len(params) == 3 else trapezoidal)(*params, grid=grid)


@st.composite
def mirror_cases(draw):
    """An operand, a correlation f and its mirror f'; the operand keeps to
    one sign where f is reciprocal-shaped."""
    name = draw(st.sampled_from(sorted(_MIRRORED)))
    q = draw(st.floats(0.25, 4.0)) * draw(st.sampled_from([-1.0, 1.0]))
    r = draw(st.sampled_from([0.0, -0.0]) | st.floats(-5.0, 5.0))
    f, mirrored = _MIRRORED[name](q, r)
    one_signed = name in ("hyperbolic", "reciprocal")
    a = _shape(draw, 0.25 if one_signed else -5.0, draw(st.sampled_from([1, 2, 7, 100])))
    if one_signed and draw(st.booleans()):
        a = _mirror(a)
    return a, f, mirrored


@settings(max_examples=300, deadline=None)
@given(mirror_cases(), st.sampled_from(["sum", "product"]), st.booleans())
def test_mirroring_the_operand_and_f_negates_a_correlated_sum_and_keeps_a_product(case, op, scan):
    """-x + f'(-x) = -(x + f(x)) and -x * f'(-x) = x * f(x).  Rounding to
    nearest is symmetric about 0, so every no-scan route obeys this bit for
    bit (== counts -0.0 as 0.0); a scan is held to MIRROR_SCAN_ULPS."""
    a, f, mirrored = case
    run = correlated_sum if op == "sum" else correlated_product
    method = RangeMethod() if scan else None
    got, want = run(_mirror(a), mirrored, method), run(a, f, method)
    if op == "sum":
        want = _mirror(want)
    if not scan:
        assert got == want
        return
    big = max(float(np.abs(want.los).max()), float(np.abs(want.his).max()))
    tol = MIRROR_SCAN_ULPS * math.ulp(big)
    assert np.abs(got.los - want.los).max() <= tol and np.abs(got.his - want.his).max() <= tol


@settings(max_examples=150, deadline=None)
@given(mirror_cases(), st.data())
def test_mirroring_negates_a_standard_sum_and_an_induced_number_and_keeps_a_standard_product(
        case, data):
    a, f, mirrored = case
    b = _shape(data.draw, -5.0, a.k)
    assert standard_sum(_mirror(a), _mirror(b)) == _mirror(standard_sum(a, b))
    assert standard_product(_mirror(a), _mirror(b)) == standard_product(a, b)
    assert induced_number(_mirror(a), mirrored) == _mirror(induced_number(a, f))

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyarith import (
    CLOSED_FORM_KINDS,
    Affine,
    DomainError,
    Interval,
    Quadratic,
    RangeMethod,
    ReciprocalSum,
    closed_form,
    compare_levels,
    correlated_product,
    correlated_sum,
    crisp,
    custom,
    hyperbolic,
    identity,
    induced_number,
    linear,
    negation,
    range_over_interval,
    reciprocal,
    standard_product,
    standard_sum,
    trapezoidal,
    triangular,
)

from helpers import assert_levels_match_scan, dense_range, random_shape, random_sign_definite


def test_range_method_validation():
    RangeMethod()
    RangeMethod(mode="analytic")
    with pytest.raises(ValueError):
        RangeMethod(mode="exhaustive")
    with pytest.raises(ValueError):
        RangeMethod(samples=64)
    with pytest.raises(ValueError):
        RangeMethod(refine_tol=0.0)


def test_affine_profile_bounds():
    g = Affine(3.0, 1.0)
    assert g(2.0) == 7.0
    assert range_over_interval(g, Interval(1.0, 3.0)) == Interval(4.0, 10.0)
    assert range_over_interval(Affine(-2.0, 0.0), Interval(1.0, 3.0)) == Interval(-6.0, -2.0)
    assert range_over_interval(Affine(0.0, 5.0), Interval(-9.0, 9.0)) == Interval(5.0, 5.0)


def test_quadratic_profile_bounds_interior_vertex():
    g = Quadratic(1.0, 0.0)  # x^2, vertex at 0
    assert range_over_interval(g, Interval(-2.0, 1.0)) == Interval(0.0, 4.0)
    assert range_over_interval(g, Interval(1.0, 3.0)) == Interval(1.0, 9.0)
    down = Quadratic(-1.0, 2.0)  # -x^2 + 2x, peak at 1
    assert range_over_interval(down, Interval(0.0, 3.0)) == Interval(-3.0, 1.0)


def test_reciprocal_sum_profile_bounds():
    g = ReciprocalSum(4.0, 0.0)  # x + 4/x, local min at 2
    got = range_over_interval(g, Interval(1.0, 3.0))
    assert got.approx_equal(Interval(4.0, 5.0), tol=1e-12)
    # negative side: local max at -2
    got = range_over_interval(g, Interval(-3.0, -1.0))
    assert got.approx_equal(Interval(-5.0, -4.0), tol=1e-12)
    # q < 0 keeps the map monotone on each side
    got = range_over_interval(ReciprocalSum(-4.0, 1.0), Interval(1.0, 2.0))
    assert got.approx_equal(Interval(-2.0, 1.0), tol=1e-12)


def test_profiles_match_dense_scan(rng):
    for _ in range(25):
        lo, hi = np.sort(rng.uniform(0.3, 8.0, 2))
        qs = rng.uniform(-5.0, 5.0, 3)
        profiles = [
            Affine(qs[0] if qs[0] != 0 else 1.0, qs[1]),
            Quadratic(qs[0] if qs[0] != 0 else 1.0, qs[1]),
            ReciprocalSum(qs[2] if qs[2] != 0 else 1.0, qs[0]),
        ]
        for g in profiles:
            want_lo, want_hi = dense_range(g, lo, hi, n=20001)
            got = range_over_interval(g, Interval(lo, hi))
            assert got.lo == pytest.approx(want_lo, abs=1e-6)
            assert got.hi == pytest.approx(want_hi, abs=1e-6)


def test_range_over_interval_analytic_and_numeric_agree():
    iv = Interval(1.0, 3.0)
    analytic = range_over_interval(ReciprocalSum(4.0, 0.0), iv)
    numeric = range_over_interval(lambda x: x + 4.0 / x, iv)
    assert analytic.approx_equal(Interval(4.0, 5.0), tol=1e-12)
    assert numeric.approx_equal(analytic, tol=1e-9)


def test_range_over_interval_quadratic():
    got = range_over_interval(Quadratic(1.0, 0.0), Interval(-2.0, 1.0))
    assert got == Interval(0.0, 4.0)
    num = range_over_interval(lambda x: x * x, Interval(-2.0, 1.0))
    assert num.approx_equal(got, tol=1e-9)


def test_range_over_interval_constant_map():
    # x + (-x) collapses to a point
    got = range_over_interval(Affine(0.0, 0.0), Interval(-5.0, 7.0))
    assert got == Interval(0.0, 0.0)


def test_range_over_interval_rejects_analytic_on_plain_callable():
    with pytest.raises(ValueError):
        range_over_interval(lambda x: x, Interval(0.0, 1.0), RangeMethod(mode="analytic"))


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
        x, y = a.level(i), a.level(i)
        assert p.level(i) == x * y


def test_standard_ops_resample_mismatched_grids():
    a = triangular(1.0, 2.0, 3.0, grid=50)
    b = triangular(3.0, 5.0, 7.0, grid=100)
    s = standard_sum(a, b)
    assert s.k == 100
    want = standard_sum(a.resample(100), b)
    assert s.approx_equal(want, tol=1e-12)
    p = standard_product(b, a)
    assert p.k == 100
    assert p.approx_equal(standard_product(b, a.resample(100)), tol=1e-12)


def test_correlated_sum_linear_formula():
    a = triangular(1.0, 2.0, 3.0)
    s = correlated_sum(a, linear(2.0, 1.0))
    alphas = a.grid.alphas()
    assert np.allclose(s.los, 4.0 + 3.0 * alphas, atol=1e-12)
    assert np.allclose(s.his, 10.0 - 3.0 * alphas, atol=1e-12)


def test_correlated_product_identity_squares_levels():
    a = triangular(1.0, 2.0, 3.0)
    p = correlated_product(a, identity())
    alphas = a.grid.alphas()
    assert np.allclose(p.los, (1.0 + alphas) ** 2, atol=1e-12)
    assert np.allclose(p.his, (3.0 - alphas) ** 2, atol=1e-12)


def test_correlated_product_identity_zero_crossing_support():
    a = triangular(-2.0, 0.0, 1.0)
    p = correlated_product(a, identity())
    alphas = a.grid.alphas()
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
    assert p.is_nested
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
    assert s.is_nested
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


@settings(max_examples=30, deadline=None)
@given(monotone_compositions())
def test_numeric_engine_on_random_monotone_compositions(case):
    a, fn, direction = case
    f = custom(fn, direction)
    b = induced_number(a, f)
    for op, std, g in (
        (correlated_sum, standard_sum(a, b), lambda x: x + fn(x)),
        (correlated_product, standard_product(a, b), lambda x: x * fn(x)),
    ):
        res = op(a, f)
        assert res.is_nested
        tol = 1e-9 * (1.0 + np.maximum(np.abs(std.los), np.abs(std.his)))
        assert np.all(res.los >= std.los - tol)
        assert np.all(res.his <= std.his + tol)
        assert_levels_match_scan(res, a, g)


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
        assert np.all(ends[held] == Quadratic(q, r)(xv))
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
        assert res.is_nested
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
                assert fast.approx_equal(slow, tol=1e-7)


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


def test_closed_form_std_prod_linear_endpoint_products():
    a = triangular(1.0, 2.0, 3.0)
    got = closed_form("std-prod-linear", a, 2.0, 1.0)
    # support endpoints come from the four products {3, 7, 9, 21}
    assert got.support == Interval(3.0, 21.0)
    want = standard_product(a, induced_number(a, linear(2.0, 1.0)))
    assert got.approx_equal(want, tol=1e-9)


def test_closed_form_std_sum_negative_slope():
    a = triangular(1.0, 2.0, 3.0)
    got = closed_form("std-sum-linear", a, -1.0, 0.0)
    want = standard_sum(a, induced_number(a, negation()))
    assert got.approx_equal(want, tol=1e-12)
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
        assert got.approx_equal(want, tol=1e-9), kind


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
    payload = rows[0].to_json()
    assert set(payload) >= {"alpha", "left", "right", "hausdorff", "subset", "equal"}


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

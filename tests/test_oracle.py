import math
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from fuzzyarith import (
    DomainError,
    FuzzyNumber,
    Interval,
    MonotonicityError,
    RangeMethod,
    check_monotone,
    closed_form,
    compare_levels,
    correlated_sum,
    crisp,
    custom,
    hyperbolic,
    linear,
    negation,
    oracle_check,
    reciprocal,
    identity,
    trapezoidal,
    triangular,
)

from fuzzyarith.arithmetic import _compared
from fuzzyarith.oracle import (MERGE_WINDOW, MIN_SAMPLES, JointDistribution, SampledMembership,
                               _auto_delta, build_joint, extend, levels_from_membership)

from helpers import (dense_levels_from_membership, grid_builds, random_shape, reference_extend,
                     reference_levels_from_membership, wider_than_floats)
from test_arithmetic import _MAX, monotone_compositions


def test_oracle_check_enforces_the_sample_floor_before_the_engine_runs():
    calls = [0]

    def fn(x):
        calls[0] += 1
        return x ** 3

    a = triangular(-1.0, 0.3, 2.0, grid=10)
    for n in (5, 50, 100, np.int64(100)):
        with pytest.raises(ValueError, match=f"^need at least 101 samples, got {n}$"):
            oracle_check(a, custom(fn, "increasing"), "product", n=n)
    assert calls[0] == 0
    report = oracle_check(triangular(1.0, 2.0, 3.0), identity(), "sum", n=np.int64(101))
    assert type(report.n) is int and report.n == 101


@pytest.mark.parametrize("n", [2001.0, True, "2001"])
def test_oracle_check_needs_an_integer_sample_count(n):
    with pytest.raises(ValueError, match="^sample count must be an integer"):
        oracle_check(triangular(1.0, 2.0, 3.0), identity(), "sum", n=n)


def test_build_joint_sampling_layout():
    # equispaced support samples, membership read off the shape: quarter
    # points of tri(1,2,3) carry membership 0, 1/2, 1, 1/2, 0
    a = triangular(1.0, 2.0, 3.0)
    joint = build_joint(a, identity(), n=101)
    assert joint.xs.size == 101
    assert joint.xs[0] == 1.0 and joint.xs[-1] == 3.0
    assert np.allclose(np.diff(joint.xs), 0.02)
    quarters = joint.xs[[0, 25, 50, 75, 100]]
    assert np.allclose(quarters, [1.0, 1.5, 2.0, 2.5, 3.0])
    assert np.allclose(joint.mu[[0, 25, 50, 75, 100]], [0.0, 0.5, 1.0, 0.5, 0.0], atol=1e-12)
    assert np.allclose(joint.ys, joint.xs)


def test_build_joint_applies_correlation():
    a = triangular(1.0, 2.0, 3.0)
    joint = build_joint(a, linear(2.0, 1.0), n=101)
    assert np.allclose(joint.ys, 2.0 * joint.xs + 1.0)


def test_build_joint_crisp_collapses_to_one_sample():
    joint = build_joint(crisp(2.0), linear(2.0, 1.0), MIN_SAMPLES)
    assert joint.xs.tolist() == [2.0]
    assert joint.mu.tolist() == [1.0]
    assert joint.ys.tolist() == [5.0]


def test_build_joint_names_a_support_too_narrow_for_n_distinct_samples():
    a = triangular(1.0, 1.0 + 8e-16, 1.0 + 1.6e-15, grid=10)
    message = (r"^support \[1\.0, 1\.0000000000000016\] is too narrow for "
               r"n = 2001 distinct samples$")
    with pytest.raises(ValueError, match=message):
        oracle_check(a, linear(2.0, 1.0), "sum")
    with pytest.raises(ValueError, match=message):
        build_joint(a, linear(2.0, 1.0), 2001)


def test_a_support_near_the_float_max_is_sampled_without_nan():
    # no errstate: the suite turns a RuntimeWarning into an error.  A
    # support wider than the float range is refused; one 1.65e308 wide, near
    # the float max, is sampled without NaN
    with wider_than_floats("triangular support", -1.5e308, 1.6e308):
        triangular(-1.5e308, 0.0, 1.6e308, grid=4)
    a = triangular(-8e307, 0.0, 8.5e307, grid=4)
    f = custom(lambda x: -x / 4, "decreasing")
    assert check_monotone(f, a.support) == "decreasing"
    # x - x/4 is not provably monotone from f's direction, so the engine scans
    total = correlated_sum(a, f)
    assert np.allclose(total.los, 0.75 * a.los, rtol=1e-15, atol=0.0)
    assert np.allclose(total.his, 0.75 * a.his, rtol=1e-15, atol=0.0)
    joint = build_joint(a, f, 101)
    assert joint.xs[0] == -8e307 and joint.xs[-1] == 8.5e307
    assert (joint.xs[1:] > joint.xs[:-1]).all()
    report = oracle_check(a, f, "sum")
    assert report.method == "numeric"
    assert report.max_hausdorff < 1e-3 * a.support.hi


@pytest.mark.parametrize("a, f", [
    (triangular(1e308, 1.2e308, 1.5e308, grid=2), linear(-2.0, 0.0)),
    (triangular(-1.5e308, -1.2e308, -1e308, grid=2), linear(-1.0, 1e308)),
    (crisp(1e308, grid=1), linear(-2.0, 0.0)),
])
def test_an_f_past_the_float_range_is_a_domain_error_before_any_warning(a, f):
    # the engine's g = (1 + q)x + r stays finite; f itself does not
    lo, hi = a.support
    message = (rf"^linear correlation leaves the float range on "
               rf"\[{re.escape(f'{lo:g}')}, {re.escape(f'{hi:g}')}\]$")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert np.isfinite(correlated_sum(a, f).los).all()
        for call in (lambda: build_joint(a, f, 2001), lambda: oracle_check(a, f, "sum")):
            with pytest.raises(DomainError, match=message):
                call()


def test_oracle_check_checks_domain_and_direction():
    with pytest.raises(DomainError):
        oracle_check(triangular(-1.0, 0.0, 1.0), reciprocal(), "product")
    with pytest.raises(MonotonicityError):
        oracle_check(triangular(1.0, 2.0, 3.0), custom(lambda x: -x, "increasing"), "sum")


_ORACLE_ENDS = (st.sampled_from([-0.0, 0.0, 1.0, -1e300, 1e300]) | st.floats(-10.0, 10.0)
                | st.floats(-1e300, 1e300))


@st.composite
def oracle_inputs(draw):
    """An operand, a built-in or custom f, a sample count and an op for
    oracle_check and its stages."""
    k = draw(st.sampled_from([1, 2, 7, 100]))
    if draw(st.booleans()):
        a, fn, direction = draw(monotone_compositions())
        a, f = a.resample(k), custom(fn, direction)
    else:
        make, count = draw(st.sampled_from([(crisp, 1), (triangular, 3), (trapezoidal, 4)]))
        ends = sorted(draw(st.lists(_ORACLE_ENDS, min_size=count, max_size=count)))
        a = make(*ends, grid=k)
        f = draw(st.sampled_from([linear(2.0, 1.0), linear(-0.5, 3.0), hyperbolic(4.0),
                                  hyperbolic(-1.0, 2.0), identity(), negation(), reciprocal()]))
    return a, f, draw(st.sampled_from([101, 2001])), draw(st.sampled_from(["sum", "product"]))


@settings(max_examples=100, deadline=None)
@given(oracle_inputs())
@example((triangular(1.0, 1.0, 1.0000000000000016, grid=2), linear(2.0, 1.0), 2001, "sum"))
@example((trapezoidal(-1e300, -0.0, 0.0, 1e300, grid=7), identity(), 101, "product"))
def test_the_oracle_stages_hand_on_what_the_next_stage_relies_on(case):
    # the records are plain named tuples, checked nowhere: build_joint must
    # give extend 1-d float arrays of one length, xs strictly increasing and
    # mu in [0, 1] with a positive peak, and extend must give
    # levels_from_membership z strictly increasing
    a, f, n, op = case
    # a product near 1e300 passes the float range; the records hold all the same
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            f.check_on(a.support)  # as oracle_check's engine call does
            joint = build_joint(a, f, n)
            xs = joint.xs.copy()  # extend spends xs and ys
            assert {(v.dtype, v.ndim, v.size) for v in joint} == {(np.dtype(float), 1, xs.size)}
            s = extend(joint, op)
        except ValueError:  # a support across zero, too narrow for n, a NaN z
            return
        assert (xs[1:] > xs[:-1]).all()
        assert ((0.0 <= joint.mu) & (joint.mu <= 1.0)).all() and joint.mu.max() > 0.0
        assert s.zs.dtype == s.mus.dtype == np.float64 and s.zs.shape == s.mus.shape
        assert (s.zs[1:] > s.zs[:-1]).all()
        try:
            report = oracle_check(a, f, op, n)
        except ValueError:  # a level past the float range
            return
    assert report.hausdorff.tobytes() == _compared(report.engine, report.oracle, 0.0)[0].tobytes()


def test_extend_product_identity_squares():
    a = triangular(1.0, 2.0, 3.0)
    joint = build_joint(a, identity(), n=101)
    xs = joint.xs.copy()  # extend spends xs
    s = extend(joint, "product")
    assert np.allclose(s.zs, xs**2)
    assert np.allclose(s.mus, joint.mu)


def test_oracle_check_rejects_unknown_op():
    with pytest.raises(ValueError, match=r"^op must be one of \('sum', 'product'\), "
                                         r"got 'difference'$"):
        oracle_check(triangular(1.0, 2.0, 3.0), identity(), "difference")


def test_extend_negation_sum_collapses_to_zero():
    joint = build_joint(triangular(1.0, 2.0, 3.0), negation(), n=2001)
    s = extend(joint, "sum")
    assert s.zs.size == 1
    assert s.zs[0] == 0.0
    assert s.mus[0] == 1.0


def test_extend_reciprocal_product_collapses_to_one():
    joint = build_joint(triangular(1.0, 2.0, 3.0), reciprocal(), n=2001)
    s = extend(joint, "product")
    # x * (1/x) rounds to 1 or to 1 - 2**-53, and the lower value stands for all
    assert s.zs.tolist() == [1.0 - 2.0 ** -53]
    assert s.mus.tolist() == [1.0]


def test_extend_merges_colliding_outputs_keeping_max():
    # under negation, product sends x and -x to the same z = -x^2; on an
    # asymmetric shape the two sides carry different membership
    a = triangular(-1.0, 0.0, 3.0)
    joint = build_joint(a, negation(), n=101)
    s = extend(joint, "product")
    assert s.zs.size < joint.xs.size
    assert np.all(np.diff(s.zs) > 0)
    i = int(np.argmin(np.abs(s.zs + 0.04)))  # z = -(0.2)^2
    assert s.mus[i] == pytest.approx(max(1.0 - 0.2 / 3.0, 1.0 - 0.2), abs=1e-9)


_MW = MERGE_WINDOW
_GAPS = (st.sampled_from([_MW, np.nextafter(_MW, 0.0), np.nextafter(_MW, 1.0), 0.0, 2 * _MW,
                          1e-3, 1.0])
         | st.floats(0.0, 1e-11))


def _graph(z, mu, op):
    """A joint whose z under op is the given z: x + y (subnormal x) or
    x * y (x a power of two) gives it back, but that a sum moves a zero or
    subnormal z by x."""
    z, n = np.array(z, dtype=float), len(z)
    if op == "sum":
        xs, ys = np.arange(n) * 5e-324, z
    else:
        xs = 2.0 ** np.arange(n)
        ys = z / xs
    return JointDistribution(xs=xs, mu=np.array(mu, dtype=float), ys=ys), op


def _jitter(draw, n):
    """n values a few ulps either side of one centre; around zero each may
    also be +0.0 or -0.0."""
    centre = draw(st.sampled_from([0.0, -0.0, 1.0, -3.0, 1e5, -1e5, _MW]) | st.floats(-1e6, 1e6))
    z = []
    for ulps in draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)):
        v = centre
        for _ in range(abs(ulps)):
            v = np.nextafter(v, math.copysign(math.inf, ulps))
        z.append(draw(st.sampled_from([0.0, -0.0])) if v == 0.0 else float(v))
    return z


@st.composite
def graph_samples(draw):
    """A joint and an op whose z is increasing, decreasing, unimodal,
    constant or jitter (one value plus or minus a few ulps), with
    neighbouring gaps at, just under or just over MERGE_WINDOW, and
    memberships with a positive peak, as build_joint makes them."""
    op = draw(st.sampled_from(["sum", "product"]))
    n = draw(st.integers(1, 30))
    shape = draw(st.sampled_from(["increasing", "decreasing", "unimodal", "constant",
                                  "jitter"]))
    if shape == "jitter":
        z = _jitter(draw, n)
    else:
        start = draw(st.sampled_from([0.0, -0.0, 1.0, -3.0, -_MW]) | st.floats(-1e3, 1e3))
        steps = np.array(draw(st.lists(_GAPS, min_size=n - 1, max_size=n - 1)))
        if shape == "constant":
            steps[:] = 0.0
        elif shape == "decreasing":
            steps = -steps
        elif shape == "unimodal":
            steps[draw(st.integers(0, n - 1)):] *= -1.0
        z = np.concatenate(([start], start + np.cumsum(steps)))
    mu = draw(st.lists(st.sampled_from([0.0, 0.25, 1.0]) | st.floats(0.0, 1.0),
                       min_size=n, max_size=n))
    mu[draw(st.integers(0, n - 1))] = draw(st.sampled_from([0.25, 1.0])
                                           | st.floats(5e-324, 1.0))
    return _graph(z, mu, op)


# the first of two signed zeros is the stable sort's first sample
SIGNED_ZERO_CASE = _graph([0.0, -0.0], [0.5, 1.0], "product")
# steps of exactly MERGE_WINDOW make one group
EXACT_WINDOW_CASE = _graph([0.0, _MW, 0.0], [0.25, 1.0, 0.5], "sum")
# steps within the window chain into one group wider than it
CHAIN_CASE = _graph([0.0, _MW, 2 * _MW, _MW], [0.25, 0.5, 1.0, 0.75], "sum")
# one ulp at 1e5, 1.5e-11, is more than MERGE_WINDOW: two groups
JITTER_CASE = _graph([1e5, np.nextafter(1e5, math.inf), 1e5], [1.0, 0.5, 0.25], "product")


@settings(max_examples=300, deadline=None)
@given(graph_samples())
@example(_graph([0.0, _MW, 2 * _MW], [0.5, 1.0, 0.25], "sum"))
@example(_graph([2 * _MW, _MW, 0.0], [0.5, 1.0, 0.25], "sum"))
@example(_graph([0.0, np.nextafter(_MW, 0.0), 1.0], [1.0, 0.5, 0.0], "sum"))
@example(_graph([-0.0, 0.0, -0.0], [0.0, 1.0, 0.5], "sum"))
@example(_graph([1.0, 0.0, 1.0, 2.0], [0.5, 1.0, 0.75, 0.0], "sum"))
@example(_graph([3.0], [1.0], "sum"))
@example(SIGNED_ZERO_CASE)
@example(_graph([-0.0, 0.0, -0.0], [1.0, 0.5, 1.0], "product"))
@example(EXACT_WINDOW_CASE)
@example(CHAIN_CASE)
@example(_graph([0.0, np.nextafter(_MW, 1.0), 0.0], [0.25, 1.0, 0.5], "sum"))
@example(JITTER_CASE)
@example(_graph([1.0, math.nan, 1.0], [1.0, 0.5, 1.0], "sum"))
@example(_graph([-0.0], [1.0], "product"))
def test_extend_matches_the_sort_and_merge_reference(case):
    joint, op = case
    joint = JointDistribution(*(v.copy() for v in joint))  # extend spends the copy
    z = joint.xs + joint.ys if op == "sum" else joint.xs * joint.ys
    if np.isnan(z).any():
        with pytest.raises(DomainError, match=r"^g gives nan at x = "):
            extend(joint, op)
        return
    want = reference_extend(joint, op)
    with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
        got = extend(joint, op)
    for g, w in ((got.zs, want.zs), (got.mus, want.mus)):
        assert np.array_equal(g, w) and np.array_equal(np.signbit(g), np.signbit(w))
    # a z of two or more samples that moves by at most MERGE_WINDOW at every
    # step is one group, found with no sort and held in an array of its own
    if z.size > 1 and np.abs(z[1:] - z[:-1]).max() <= _MW:
        assert not argsort.called and got.zs.base is None


def test_extend_raises_on_a_nan_z():
    # the decreasing f is NaN on a sliver no 257-sample check lands on
    f = custom(lambda x: math.nan if 1.4 < x < 1.401 else -0.5 * x, "decreasing")
    for op in ("sum", "product"):
        joint = build_joint(triangular(0.0, 1.0, 2.0, grid=10), f, 2001)
        assert np.isnan(joint.ys).sum() == 1
        with pytest.raises(DomainError, match=r"^g gives nan at x = 1\.4, the first NaN "
                                              r"oracle sample on \[0, 2\]$"):
            extend(joint, op)
    with pytest.raises(DomainError, match=r"^g gives nan at x = 1, "):
        extend(_joint([1.0], [1.0], [math.nan]), "sum")


def test_oracle_check_raises_on_a_nan_z_the_engine_never_evaluates():
    # an increasing f makes the sum monotone, so the engine reads only the
    # level ends and never meets the NaN; the oracle's samples do
    f = custom(lambda x: math.nan if 1.4 < x < 1.401 else 0.5 * x, "increasing")
    with pytest.raises(DomainError, match=r"^g gives nan at x = 1\.4, the first NaN "
                                          r"oracle sample on \[0, 2\]$"):
        oracle_check(triangular(0.0, 1.0, 2.0, grid=10), f, "sum")


def _joint(xs, mu, ys):
    """A joint of float arrays of its own, which extend may spend."""
    return JointDistribution(*(np.array(v, dtype=float) for v in (xs, mu, ys)))


@pytest.mark.parametrize("joint, op, message", [
    (([0.0, 1.0], [1.0, 0.5], [math.inf, math.inf]), "sum",
     r"^g gives inf at x = 0, the first infinite oracle sample on \[0, 1\]$"),
    (([1e200, 2e200], [1.0, 0.5], [1e200, 1e200]), "product",
     r"^g gives inf at x = 1e\+200, the first infinite oracle sample on "
     r"\[1e\+200, 2e\+200\]$"),
    (([0.0, 1.0, 2.0], [1.0, 0.5, 0.0], [1.0, -math.inf, math.nan]),
     "sum", r"^g gives nan at x = 2, the first NaN oracle sample on \[0, 2\]$"),
    (([0.0, 1.0], [1.0, 0.5], [math.inf, 1.0]), "product",
     r"^g gives nan at x = 0, the first NaN oracle sample on \[0, 1\]$"),
], ids=["inf-sum", "overflowing-product", "nan-after-inf", "zero-times-inf"])
def test_extend_refuses_a_z_that_is_not_finite_without_a_warning(joint, op, message):
    # no errstate: the suite turns a RuntimeWarning into an error.  A NaN
    # is named before an infinity
    with pytest.raises(DomainError, match=message):
        extend(_joint(*joint), op)


def test_extend_compares_steps_past_the_float_range():
    # no errstate: the suite turns a RuntimeWarning into an error.  The
    # finite z rises, then falls, by more than the float max
    for xs, ys, op in (([1.0, 2.0], [-1e308, 1.7e308], "sum"),
                       ([1.0, 2.0, 3.0], [-1e308, 1.7e308, 0.0], "sum"),
                       ([1.0, 1.5], [1.7e308, -1e308], "product")):
        joint = _joint(xs, [1.0, 0.5, 0.25][:len(xs)], ys)
        with np.errstate(over="ignore"):  # the reference takes its steps with np.diff
            want = reference_extend(joint, op)
        got = extend(joint, op)
        assert got.zs.tolist() == want.zs.tolist() and got.mus.tolist() == want.mus.tolist()


# Joints whose z rises, falls, lies within MERGE_WINDOW, and is sorted with
# merges, each made afresh, with the size of its extension
FRESH_JOINTS = [
    (lambda: build_joint(triangular(1.0, 2.0, 3.0, grid=10), linear(2.0, 1.0), 101), "sum", 101),
    (lambda: build_joint(triangular(1.0, 2.0, 3.0, grid=10), linear(-2.0, 1.0), 101), "sum",
     101),
    (lambda: build_joint(triangular(1.0, 2.0, 3.0, grid=10), negation(), 101), "sum", 1),
    (lambda: build_joint(triangular(-1.0, 0.0, 3.0, grid=10), negation(), 101), "product", 76),
]


@pytest.mark.parametrize("make, op, size", FRESH_JOINTS,
                         ids=["rising", "falling", "collapsed", "sorted-and-merged"])
def test_extend_spends_the_joint_into_the_references_result(make, op, size):
    joint = make()
    copied = JointDistribution(*(v.copy() for v in joint))
    want = reference_extend(copied, op)
    s = extend(joint, op)
    assert s.zs.size == size
    assert (s.zs.tobytes(), s.mus.tobytes()) == (want.zs.tobytes(), want.mus.tobytes())
    # mu is kept as it was, and the result holds no array of n floats but the joint's
    assert joint.mu.tobytes() == copied.mu.tobytes()
    assert all(v.size < joint.xs.size or any(np.shares_memory(v, u) for u in joint) for v in s)


@pytest.mark.parametrize("a", [
    crisp(2.0, grid=10),
    triangular(0.0, 0.0, 1.0, grid=10),
    triangular(0.0, 1.0, 1.0, grid=10),
    triangular(0.0, 1e-12, 1.0, grid=10),
    trapezoidal(-1.0, 0.0, 1e-300, 1e300, grid=10),
], ids=["crisp", "core-at-the-left-end", "core-at-the-right-end", "core-between-samples",
        "wide-trapezoid"])
def test_build_joint_gives_memberships_with_a_positive_peak(a):
    # extend's collapse takes mu.max() with no sort to order tied zeros: the
    # samples of a support of non-zero width include interior points, whose
    # membership is positive, and a crisp operand's one sample has membership 1
    joint = build_joint(a, negation(), 101)
    peak = float(joint.mu.max())
    assert 0.0 < peak <= 1.0
    s = extend(joint, "sum")
    assert s.zs.size == 1 and s.mus.tolist() == [peak]


@pytest.mark.parametrize("f", [linear(2.0, 1.0), hyperbolic(4.0), identity(), negation(),
                               reciprocal(), custom(math.exp, "increasing")],
                         ids=lambda f: repr(f))
def test_build_joint_makes_writeable_arrays_of_its_own(f):
    # extend writes xs and ys
    for a in (triangular(1.0, 2.0, 3.0, grid=10), crisp(2.0, grid=10)):
        joint = build_joint(a, f, 101)
        assert all(v.flags.writeable for v in joint)
        arrays = (*joint, a.los, a.his)
        assert not any(np.shares_memory(u, v) for i, u in enumerate(arrays)
                       for v in arrays[i + 1:])


def test_oracle_check_checks_a_custom_function_once():
    calls = [0]

    def fn(x):
        calls[0] += 1
        return x ** 3 + x

    f = custom(fn, "increasing")
    a = triangular(-1.0, 0.5, 2.0, grid=20)
    correlated_sum(a, f)
    engine, calls[0] = calls[0], 0
    oracle_check(a, f, "sum", n=501)
    assert calls[0] == engine + 501
    calls[0] = 0
    build_joint(a, f, 501)  # oracle_check's engine call checks f, build_joint does not
    assert calls[0] == 501


def test_delta_must_lie_in_the_unit_interval():
    s = SampledMembership(zs=np.array([0.0, 1.0, 2.0]), mus=np.array([0.0, 1.0, 0.5]))
    for bad in (math.nan, -0.5, -1e-300, 1.0, 2.0, math.inf):
        message = f"^delta must lie in \\[0, 1\\), got {bad!r}$"
        with pytest.raises(ValueError, match=message):
            levels_from_membership(s, 2, bad)
    assert levels_from_membership(s, 2, 0.0).level(2) == Interval(1.0, 1.0)
    wide = levels_from_membership(s, 2, np.nextafter(1.0, 0.0))
    assert wide.level(0) == Interval(0.0, 2.0) and wide.level(2) == Interval(1.0, 2.0)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 10, 100, 1000]),
       st.sampled_from([101, 102, 2001]))
def test_auto_delta_stays_in_the_unit_interval(seed, K, n):
    rng = np.random.default_rng(seed)
    # a shape, or a family whose first step spans almost all of its support
    a = random_shape(rng, grid=K) if seed % 2 else FuzzyNumber(
        np.sort(rng.uniform(-1.0, 0.0, K + 1)) * np.r_[1e6, np.ones(K)],
        np.sort(rng.uniform(0.0, 1.0, K + 1))[::-1] * np.r_[1e6, np.ones(K)])
    assert 0.0 <= _auto_delta(build_joint(a, linear(2.0, 1.0), n).mu) < 1.0


# The core 0.5 falls midway between two of an even number of samples, where
# the shortfall 1 - max(mu) and half the largest membership step agree but
# for rounding, which also leaves the two samples' memberships apart
MIDWAY_CASES = [(triangular(0.0, 0.5, 1.0, grid=50), 2000),
                (triangular(0.0, 0.5, 1.0, grid=20), 1202)]


@pytest.mark.parametrize("a, n", MIDWAY_CASES, ids=["K50-n2000", "K20-n1202"])
def test_a_core_midway_between_two_samples_keeps_both_in_the_top_level(a, n):
    # the slack's MERGE_WINDOW over the shortfall keeps A + A, like its
    # samples, symmetric about 1
    oracle = oracle_check(a, identity(), "sum", n).oracle
    assert np.allclose(oracle.los, 2.0 - oracle.his, rtol=0.0, atol=1e-12)


def test_levels_from_membership_thresholds():
    s = SampledMembership(zs=np.array([0.0, 1.0, 2.0, 3.0, 4.0]),
                          mus=np.array([0.0, 0.5, 1.0, 0.5, 0.0]))
    fn = levels_from_membership(s, grid=2, delta=0.01)
    assert fn.level(0) == Interval(0.0, 4.0)
    assert fn.level(1) == Interval(1.0, 3.0)
    assert fn.level(2) == Interval(2.0, 2.0)


def test_levels_from_membership_rejects_low_peak():
    s = SampledMembership(zs=np.array([0.0, 1.0]), mus=np.array([0.2, 0.8]))
    with pytest.raises(ValueError, match="peaks"):
        levels_from_membership(s, grid=10, delta=0.01)


@st.composite
def membership_samples(draw):
    """Strictly increasing zs with memberships that tie, sit on rounded
    plateaus or hit a level threshold exactly."""
    K = draw(st.sampled_from([1, 2, 3, 7, 10, 100]))
    delta = draw(st.sampled_from([1e-12, 1.0 / (2 * K), 0.01, 0.0, 0.3]))
    n = draw(st.integers(1, 40))
    zs = np.sort(np.array(draw(st.lists(
        st.floats(-1e6, 1e6, allow_nan=False), min_size=n, max_size=n, unique=True))))
    thresholds = np.linspace(0.0, 1.0, K + 1) - delta
    mu = st.one_of(
        st.floats(0.0, 1.0),
        st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
        st.integers(0, K).map(lambda i: i / K),
        st.integers(0, K).map(lambda i: float(thresholds[i])),
        st.just(1.0))
    mus = np.array(draw(st.lists(mu, min_size=n, max_size=n)))
    return SampledMembership(zs=zs, mus=mus), K, delta


# Memberships for both ways levels_from_membership reads a run: as its own
# running maximum when it is in order, through np.maximum.accumulate when it
# is not.  Runs with plateaus, a one-ulp dip before the peak and after it,
# and -0.0/0.0 ties.
SORTED_RUN_CASES = [
    (SampledMembership(zs=np.arange(9.0),
                       mus=np.array([0.2, 0.2, 0.5, 0.5, 1.0, 1.0, 0.6, 0.6, 0.1])), 4, 0.1),
    (SampledMembership(zs=np.arange(4.0),
                       mus=np.array([0.5, np.nextafter(0.5, 0.0), 1.0, 0.3])), 2, 0.0),
    (SampledMembership(zs=np.arange(4.0),
                       mus=np.array([0.2, 1.0, np.nextafter(0.5, 0.0), 0.5])), 2, 0.0),
    (SampledMembership(zs=np.array([-2.0, -1.0, -0.0, 1.0, 2.0, 3.0]),
                       mus=np.array([0.0, -0.0, 0.0, 1.0, -0.0, 0.0])), 2, 0.0),
]


def _sorted_run_examples(test):
    """test with an @example for each of SORTED_RUN_CASES."""
    for case in SORTED_RUN_CASES:
        test = example(case)(test)
    return test


def _outcome(fn):
    try:
        return fn()
    except ValueError as e:
        return str(e)


@settings(max_examples=150, deadline=None)
@given(membership_samples())
@example((SampledMembership(zs=np.array([2.5]), mus=np.array([1.0])), 1, 1e-12))
@example((SampledMembership(zs=np.array([0.0, 1.0, 2.0]), mus=np.array([0.5, 0.5, 0.5])),
          2, 0.5))
@example((SampledMembership(zs=np.array([0.0, 1.0]), mus=np.array([0.2, 0.8])), 10, 0.01))
# the peak first, last and tied at both ends
@example((SampledMembership(zs=np.array([0.0, 1.0, 2.0]), mus=np.array([1.0, 0.5, 0.2])),
          2, 0.1))
@example((SampledMembership(zs=np.array([0.0, 1.0, 2.0]), mus=np.array([0.2, 0.5, 1.0])),
          2, 0.1))
@example((SampledMembership(zs=np.array([0.0, 1.0, 2.0, 3.0]),
                            mus=np.array([1.0, 0.3, 0.6, 1.0])), 4, 0.1))
@_sorted_run_examples
def test_levels_from_membership_matches_dense_mask(case):
    s, K, delta = case
    got = _outcome(lambda: levels_from_membership(s, K, delta))
    want = _outcome(lambda: dense_levels_from_membership(s, K, delta))
    if isinstance(want, str):
        assert got == want
    else:
        assert np.array_equal(got.los, want[0]) and np.array_equal(got.his, want[1])


@settings(max_examples=150, deadline=None)
@given(membership_samples())
@example((SampledMembership(zs=np.array([-0.0, 1.0]), mus=np.array([1.0, 0.5])), 2, 0.25))
@example((SampledMembership(zs=np.array([-1.0, -0.0]), mus=np.array([0.5, 1.0])), 2, 0.25))
@_sorted_run_examples
def test_levels_from_membership_matches_the_argsort_rebuild(case):
    s, K, delta = case
    got = _outcome(lambda: levels_from_membership(s, K, delta))
    want = _outcome(lambda: reference_levels_from_membership(s, K, delta))
    if isinstance(want, str):
        assert got == want
    else:
        for g, w in ((got.los, want.los), (got.his, want.his)):
            assert np.array_equal(g, w) and np.array_equal(np.signbit(g), np.signbit(w))


def test_oracle_check_memory_grows_with_n_plus_k():
    # the (K+1) x n mask of a dense rebuild would need about 1.8 GB here
    a = triangular(1.0, 2.0, 3.0, grid=1000)
    n = 200_001
    tracemalloc.start()
    try:
        oracle_check(a, hyperbolic(4.0), "sum", n=n).to_json()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 8 * n < peak < 64 * 2 ** 20  # the lower bound shows numpy is traced


_LINEAR = triangular(-1.5, 0.5, 3.0, grid=1000), linear(2.0, 1.0)


@pytest.mark.parametrize("a, f, op, arrays", [
    (*_LINEAR, "sum", 3.7), (*_LINEAR, "product", 4.3),
    (triangular(1.0, 2.0, 4.0, grid=1000), reciprocal(), "product", 3.7),
    (_LINEAR[0], linear(-2.0, 1.0), "sum", 3.7),
    (triangular(-2.0, 0.0, 2.0, grid=1000), identity(), "product", 4.8),
], ids=["sum-3.7", "product-4.3", "reciprocal-product-3.7", "falling-sum-3.7",
        "merging-product-4.8"])
def test_oracle_check_peaks_at_a_few_arrays_of_n_floats(a, f, op, arrays):
    # the joint's xs, mu and ys live through extend, which forms z in ys and
    # writes its steps into xs; the membership's working arrays set the peak,
    # at 3.6, of a z that rises, falls or lies within MERGE_WINDOW (the
    # reciprocal product).  A z that is not monotone is sorted: the order
    # joins the three, 4.2, and a merge's group starts and merged samples
    # join them too, 4.7.  The joint is dropped before the levels are
    # rebuilt.  Any other array of n floats held past its last read shows
    # here; tracemalloc counts numpy's buffers
    n = 20001
    oracle_check(a, f, op, n=n)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        oracle_check(a, f, op, n=n)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= arrays * 8 * n


def test_oracle_report_rows_agree_with_arrays():
    report = oracle_check(triangular(1.0, 2.0, 3.0, grid=20), hyperbolic(4.0), "sum", n=501)
    rows = report.to_json()["levels"]
    termwise = zip(*(t.tolist() for t in report.termwise))
    for row, lr, mk in zip(rows, report.levels, termwise, strict=True):
        assert row == {"alpha": lr.alpha, "engine": [lr.left.lo, lr.left.hi],
                       "oracle": [lr.right.lo, lr.right.hi], "hausdorff": lr.hausdorff,
                       "minkowski": list(mk)}
        assert lr.hausdorff == lr.left.hausdorff(lr.right)
        assert lr.subset == lr.right.contains(lr.left)
        assert lr.equal == (lr.hausdorff == 0.0)
    assert report.max_hausdorff == max(lr.hausdorff for lr in report.levels)


def test_oracle_report_levels_are_the_rows_of_compare_levels():
    for f, op in ((hyperbolic(4.0), "sum"), (linear(-0.5, 3.0), "product")):
        report = oracle_check(triangular(1.0, 2.0, 3.0, grid=20), f, op, n=501)
        assert report.levels == compare_levels(report.engine, report.oracle, 0.0)


def test_oracle_check_linear_sum_within_tolerance():
    a = triangular(1.0, 2.0, 3.0)
    report = oracle_check(a, linear(2.0, 1.0), "sum")
    assert report.passed
    assert report.n == 2001
    assert report.tolerance == pytest.approx(5.0 * 2.0 / 2001)
    assert report.max_hausdorff <= report.tolerance
    assert len(report.levels) == a.k + 1
    assert report.levels[0].left.approx_equal(Interval(4.0, 10.0), tol=1e-9)
    assert report.method == "analytic"


def test_oracle_samples_stay_inside_engine_range():
    # every oracle z is attainable, but the delta slack admits samples whose
    # membership falls just short of alpha, so containment is exact only at
    # the bottom level and tolerance-bounded above it
    a = triangular(1.0, 2.0, 3.0)
    for f in (linear(2.0, 1.0), linear(-0.5, 3.0), hyperbolic(4.0), hyperbolic(-2.0, 1.0)):
        for op in ("sum", "product"):
            report = oracle_check(a, f, op, n=501)
            assert report.levels[0].left.contains(report.levels[0].right, tol=1e-12)
            slack = max(5.0 * report.levels[0].left.width / report.n, 1e-12)
            for row in report.levels:
                assert row.left.contains(row.right, tol=slack)


def test_oracle_check_hyperbolic_sum_reports_termwise_reading():
    a = triangular(1.0, 2.0, 3.0)
    report = oracle_check(a, hyperbolic(4.0), "sum")
    assert report.passed
    assert report.levels[0].left.approx_equal(Interval(4.0, 5.0), tol=1e-9)
    assert report.termwise is not None
    # termwise reading [A] + 4*{1/x}: wider than the true range
    reading = Interval(report.termwise[0][0], report.termwise[1][0])
    assert reading.approx_equal(Interval(1.0 + 4.0 / 3.0, 7.0), tol=1e-12)
    assert reading.contains(report.levels[0].left, tol=1e-9)
    assert reading.width > report.levels[0].left.width + 1.0


def test_oracle_check_product_has_no_termwise_reading():
    report = oracle_check(triangular(1.0, 2.0, 3.0), hyperbolic(4.0), "product", n=501)
    assert report.termwise is None
    assert "minkowski" not in report.to_json()["levels"][0]


def test_a_termwise_reading_past_the_float_range_is_not_reported():
    # 0.1 + 1e307/0.1 passes the float max; no numpy warning is raised
    report = oracle_check(triangular(0.1, 1.0, 1e308, grid=2), hyperbolic(1e307, 0.0), "sum")
    assert report.termwise is None
    assert not any("minkowski" in row for row in report.to_json()["levels"])


# one-signed magnitudes from subnormal to the float max
_POSITIVE = (st.sampled_from([5e-324, 2.2e-308, 1e-300, 0.1, 1.0, 2.0, 1e154, 1e300, 1e307,
                              1e308, _MAX])
             | st.floats(min_value=5e-324, max_value=_MAX))
_HYPERBOLIC = st.just(reciprocal()) | st.builds(
    hyperbolic, _POSITIVE | _POSITIVE.map(lambda q: -q),
    st.sampled_from([0.0, -0.0, 1.0, -1e308]) | st.floats(-_MAX, _MAX))
TERMWISE_CASE = ([1.0, 2.0, 3.0], -1.0, 7, hyperbolic(4.0, -0.0))


@settings(max_examples=200, deadline=None)
@given(st.lists(_POSITIVE, min_size=3, max_size=3), st.sampled_from([1.0, -1.0]),
       st.sampled_from([1, 2, 7]), _HYPERBOLIC)
@example([0.1, 1.0, 1e308], 1.0, 2, hyperbolic(1e307, 0.0))
@example(*TERMWISE_CASE)
@example([1e-300, 1.0, 1e300], 1.0, 2, reciprocal())
def test_the_termwise_reading_is_the_standard_sum_closed_form(magnitudes, sign, grid, f):
    # no errstate: the suite turns a RuntimeWarning into an error
    a = triangular(*sorted(sign * m for m in magnitudes), grid=grid)
    try:
        std = closed_form("std-sum-hyperbolic", a, f.q, f.r)
    except ValueError:
        std = None
    try:
        report = oracle_check(a, f, "sum", MIN_SAMPLES)
    except ValueError:  # DomainError included: the support or f is refused
        reject()
    except RuntimeWarning:
        # a report past the float range can warn before the reading is taken,
        # in the engine's x + q/x + r (ROADMAP item 14)
        reject()
    if std is None:
        assert report.termwise is None
        return
    los, his = report.termwise
    assert los.tobytes() == std.los.tobytes() and his.tobytes() == std.his.tobytes()
    assert (los <= report.engine.los).all() and (report.engine.his <= his).all()


def test_oracle_check_negation_sum_exact():
    report = oracle_check(triangular(-2.0, 0.0, 1.0), negation(), "sum", n=501)
    assert report.max_hausdorff == 0.0
    for row in report.levels:
        assert row.right == Interval(0.0, 0.0)


def test_oracle_check_reciprocal_product_exact():
    report = oracle_check(triangular(1.0, 2.0, 3.0), reciprocal(), "product", n=501)
    assert report.max_hausdorff <= 1e-12
    assert report.levels[0].right.approx_equal(Interval(1.0, 1.0), tol=1e-12)


def test_oracle_check_flags_unresolvable_shape():
    # one side of the shape is far narrower than the sample spacing, so the
    # rebuilt levels sit well off the engine result and the check must fail
    a = triangular(0.0, 0.001, 2.0)
    report = oracle_check(a, linear(2.0, 1.0), "product", n=101)
    assert not report.passed
    assert report.max_hausdorff > report.tolerance


def test_oracle_check_custom_correlation_numeric_path():
    # x * x^3 stretches the output axis ~100x relative to the input, so the
    # input-width tolerance is out of reach at any n; the oracle still has
    # to land within the same 5/n factor of the output width
    a = triangular(1.0, 2.0, 3.0, grid=20)
    f = custom(lambda x: x**3, "increasing")
    report = oracle_check(a, f, "product", n=501, method=RangeMethod())
    assert report.method == "numeric"
    assert report.levels[0].left.approx_equal(Interval(1.0, 81.0), tol=1e-6)
    assert report.max_hausdorff <= 5.0 * report.levels[0].left.width / report.n


def test_oracle_check_labels_the_route_the_engine_takes():
    # x * x^3 on a positive support with a positive increasing f is
    # monotone, so by default the engine ranges it from the level ends with
    # no scan; a decreasing f proves nothing about x + f(x), which is scanned
    a = triangular(1.0, 2.0, 3.0, grid=20)
    f = custom(lambda x: x**3, "increasing")
    report = oracle_check(a, f, "product", n=501)
    assert report.method == "analytic"
    assert report.levels[0].left.approx_equal(Interval(1.0, 81.0), tol=1e-12)
    assert report.max_hausdorff <= 5.0 * report.levels[0].left.width / report.n
    assert oracle_check(a, custom(lambda x: -x**3, "decreasing"), "sum", n=501).method == "numeric"


@pytest.mark.parametrize("f", [linear(2.0, 1.0), hyperbolic(4.0, 0.0)],
                         ids=["linear", "hyperbolic"])
@pytest.mark.parametrize("op", ["sum", "product"])
def test_oracle_check_labels_a_built_in_family_asked_to_scan_numeric(f, op):
    # a built-in family states its extrema, so only a RangeMethod scans it
    a = triangular(1.0, 2.0, 3.0, grid=20)
    assert oracle_check(a, f, op, n=501, method=RangeMethod(samples=65)).method == "numeric"
    assert oracle_check(a, f, op, n=501).method == "analytic"


def test_oracle_tolerance_stays_finite_where_five_widths_pass_the_float_range():
    # 5 * width / n passes the float max for this support, whose width does
    # not; 5 * (width / n) gives it
    f = custom(lambda x: -x / 4, "decreasing")
    lo, hi = -8e307, 8e307
    report = oracle_check(triangular(lo, 0.0, hi, grid=4), f, "sum")
    assert report.tolerance == pytest.approx(5.0 * (hi / 2001 - lo / 2001), rel=1e-15)
    assert report.max_hausdorff == 0.0 and report.passed
    # elsewhere it is 5 * width / n as it was, bit for bit
    report = oracle_check(triangular(-1e307, 0.0, 2e307, grid=4), f, "sum")
    assert report.tolerance == 5.0 * (2e307 - -1e307) / 2001


@pytest.mark.parametrize("k", [1, 7, 100])
def test_the_oracle_reads_its_alphas_from_the_grid_built_once(k):
    a = triangular(1.0, 2.0, 3.0, grid=k)
    report = oracle_check(a, hyperbolic(4.0), "sum", n=501)
    grid = np.linspace(0.0, 1.0, k + 1).tolist()
    assert [row["alpha"].hex() for row in report.to_json()["levels"]] == [v.hex() for v in grid]
    s = extend(build_joint(a, hyperbolic(4.0), 501), "sum")
    want = levels_from_membership(s, k, 0.01)
    calls = {
        "levels": lambda: oracle_check(a, hyperbolic(4.0), "sum", n=501).levels,
        "to_json": report.to_json,
        "levels_from_membership": lambda: levels_from_membership(s, k, 0.01),
    }
    for name, call in calls.items():
        assert grid_builds(k, call) == 0, name
    # a caller writing into the alphas it was given moves no threshold
    alphas = a.alphas
    alphas[:] = 0.5
    assert levels_from_membership(s, k, 0.01) == want
    assert want == reference_levels_from_membership(s, k, 0.01)


def test_oracle_report_json_schema():
    report = oracle_check(triangular(1.0, 2.0, 3.0), hyperbolic(4.0), "sum", n=501)
    payload = report.to_json()
    assert set(payload) == {"op", "n", "tolerance", "max_hausdorff", "passed", "levels"}
    row = payload["levels"][0]
    assert set(row) == {"alpha", "engine", "oracle", "hausdorff", "minkowski"}
    assert row["engine"] == [report.levels[0].left.lo, report.levels[0].left.hi]

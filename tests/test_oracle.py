import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fuzzyarith import (
    DomainError,
    FuzzyNumber,
    Interval,
    JointDistribution,
    MonotonicityError,
    RangeMethod,
    SampledMembership,
    build_joint,
    check_monotone,
    correlated_sum,
    crisp,
    custom,
    extend,
    hyperbolic,
    levels_from_membership,
    linear,
    negation,
    oracle_check,
    reciprocal,
    identity,
    triangular,
)

from fuzzyarith.correlation import MONOTONE_CHECK_SAMPLES
from fuzzyarith.oracle import MERGE_WINDOW, _auto_delta

from helpers import (dense_levels_from_membership, random_shape, reference_extend,
                     reference_levels_from_membership)


def test_build_joint_enforces_sample_floor():
    a = triangular(1.0, 2.0, 3.0)
    with pytest.raises(ValueError, match="101"):
        build_joint(a, identity(), n=5)
    with pytest.raises(ValueError):
        build_joint(a, identity(), n=100)
    assert build_joint(a, identity(), n=np.int64(101)).xs.size == 101
    assert type(oracle_check(a, identity(), "sum", n=np.int64(101)).n) is int


@pytest.mark.parametrize("n", [2001.0, True, "2001"])
def test_build_joint_and_oracle_check_need_an_integer_sample_count(n):
    a = triangular(1.0, 2.0, 3.0)
    with pytest.raises(ValueError, match="^sample count must be an integer"):
        build_joint(a, identity(), n=n)
    with pytest.raises(ValueError, match="^sample count must be an integer"):
        oracle_check(a, identity(), "sum", n=n)


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
    joint = build_joint(crisp(2.0), linear(2.0, 1.0))
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
        build_joint(a, linear(2.0, 1.0))


def test_a_support_wider_than_the_float_range_is_sampled_without_nan():
    # no errstate: the suite turns a RuntimeWarning into an error
    a = triangular(-1.5e308, 0.0, 1.6e308, grid=4)
    f = custom(lambda x: -x / 4, "decreasing")
    assert check_monotone(f, a.support) == "decreasing"
    # x - x/4 is not provably monotone from f's direction, so the engine scans
    total = correlated_sum(a, f)
    assert np.allclose(total.los, 0.75 * a.los, rtol=1e-15, atol=0.0)
    assert np.allclose(total.his, 0.75 * a.his, rtol=1e-15, atol=0.0)
    joint = build_joint(a, f, 101)
    assert joint.xs[0] == -1.5e308 and joint.xs[-1] == 1.6e308
    assert (joint.xs[1:] > joint.xs[:-1]).all()
    report = oracle_check(a, f, "sum")
    assert report.method == "numeric"
    assert report.max_hausdorff < 1e-3 * a.support.hi


def test_build_joint_checks_domain_and_direction():
    with pytest.raises(DomainError):
        build_joint(triangular(-1.0, 0.0, 1.0), reciprocal())
    with pytest.raises(MonotonicityError):
        build_joint(triangular(1.0, 2.0, 3.0), custom(lambda x: -x, "increasing"))


def test_joint_distribution_validation():
    xs = np.array([1.0, 2.0])
    with pytest.raises(ValueError):
        JointDistribution(xs=np.array([2.0, 1.0]), mu=np.zeros(2), ys=xs)
    with pytest.raises(ValueError):
        JointDistribution(xs=xs, mu=np.array([0.0, 1.5]), ys=xs)
    with pytest.raises(ValueError):
        JointDistribution(xs=xs, mu=np.zeros(3), ys=xs)


@st.composite
def joint_inputs(draw):
    """xs sorted or not, with ties, infinities or NaNs, and memberships in
    [0, 1] or just outside, or NaN."""
    x = st.one_of(st.floats(-10.0, 10.0), st.sampled_from([-math.inf, math.inf, math.nan]))
    xs = draw(st.lists(x, min_size=1, max_size=8))
    if draw(st.booleans()):
        xs = sorted(xs)
    mu = st.one_of(st.floats(0.0, 1.0), st.sampled_from([-0.0, -1e-300, np.nextafter(1.0, 2.0),
                                                         1.5, math.nan]))
    return np.array(xs), np.array(draw(st.lists(mu, min_size=len(xs), max_size=len(xs))))


@settings(max_examples=300, deadline=None)
@given(joint_inputs())
@example((np.array([0.0, 1.0, 1.0]), np.zeros(3)))
@example((np.array([0.0, math.nan, 1.0]), np.zeros(3)))
@example((np.array([-math.inf, math.inf]), np.array([0.0, math.nan])))
@example((np.array([0.0, 1.0]), np.array([0.5, -1e-300])))
def test_joint_distribution_rejects_unsorted_xs_and_memberships_off_the_unit_interval(case):
    xs, mu = case
    with np.errstate(invalid="ignore"):  # inf - inf: a NaN step, not increasing
        increasing = bool(np.all(np.diff(xs) > 0))
    got = _outcome(lambda: JointDistribution(xs=xs, mu=mu, ys=xs))
    if not increasing:
        assert got == "xs must be strictly increasing"
    elif any(m < 0.0 or m > 1.0 for m in mu):  # a NaN membership is let through
        assert got == "membership values must lie in [0, 1]"
    else:
        assert isinstance(got, JointDistribution)


def test_extend_product_identity_squares():
    a = triangular(1.0, 2.0, 3.0)
    joint = build_joint(a, identity(), n=101)
    s = extend(joint, "product")
    assert np.allclose(s.zs, joint.xs**2)
    assert np.allclose(s.mus, joint.mu)


def test_extend_rejects_unknown_op():
    joint = build_joint(triangular(1.0, 2.0, 3.0), identity(), n=101)
    with pytest.raises(ValueError):
        extend(joint, "difference")


def test_extend_negation_sum_collapses_to_zero():
    joint = build_joint(triangular(1.0, 2.0, 3.0), negation(), n=2001)
    s = extend(joint, "sum")
    assert s.zs.size == 1
    assert s.zs[0] == 0.0
    assert s.mus[0] == 1.0


def test_extend_reciprocal_product_collapses_to_one():
    joint = build_joint(triangular(1.0, 2.0, 3.0), reciprocal(), n=2001)
    s = extend(joint, "product")
    assert s.zs.size == 1
    assert abs(s.zs[0] - 1.0) < 1e-12
    assert s.mus[0] == 1.0


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


@st.composite
def graph_samples(draw):
    """A joint and an op whose z is increasing, decreasing, unimodal or
    constant, with neighbouring gaps at, just under or just over
    MERGE_WINDOW.  The x samples are chosen so that x + y (subnormal x)
    or x * y (x a power of two) gives back the drawn z."""
    op = draw(st.sampled_from(["sum", "product"]))
    n = draw(st.integers(1, 30))
    shape = draw(st.sampled_from(["increasing", "decreasing", "unimodal", "constant"]))
    start = draw(st.sampled_from([0.0, -0.0, 1.0, -3.0, -_MW]) | st.floats(-1e3, 1e3))
    steps = np.array(draw(st.lists(_GAPS, min_size=n - 1, max_size=n - 1)))
    if shape == "constant":
        steps[:] = 0.0
    elif shape == "decreasing":
        steps = -steps
    elif shape == "unimodal":
        steps[draw(st.integers(0, n - 1)):] *= -1.0
    z = np.concatenate(([start], start + np.cumsum(steps)))
    if op == "sum":
        xs = np.arange(n) * 5e-324
        ys = z
    else:
        xs = 2.0 ** np.arange(n)
        ys = z / xs
    mu = st.sampled_from([0.0, 0.25, 1.0]) | st.floats(0.0, 1.0)
    mus = np.array(draw(st.lists(mu, min_size=n, max_size=n)))
    return JointDistribution(xs=xs, mu=mus, ys=ys), op


def _joint(z, mu, op="sum"):
    z = np.array(z)
    return JointDistribution(xs=np.arange(z.size) * 5e-324, mu=np.array(mu), ys=z), op


@settings(max_examples=300, deadline=None)
@given(graph_samples())
@example(_joint([0.0, _MW, 2 * _MW], [0.5, 1.0, 0.25]))
@example(_joint([2 * _MW, _MW, 0.0], [0.5, 1.0, 0.25]))
@example(_joint([0.0, np.nextafter(_MW, 0.0), 1.0], [1.0, 0.5, 0.0]))
@example(_joint([-0.0, 0.0, -0.0], [0.0, 1.0, 0.5]))
@example(_joint([1.0, 0.0, 1.0, 2.0], [0.5, 1.0, 0.75, 0.0]))
@example(_joint([3.0], [1.0]))
def test_extend_matches_the_sort_and_merge_reference(case):
    joint, op = case
    got, want = extend(joint, op), reference_extend(joint, op)
    for g, w in ((got.zs, want.zs), (got.mus, want.mus)):
        assert np.array_equal(g, w) and np.array_equal(np.signbit(g), np.signbit(w))


def test_extend_raises_on_a_nan_z():
    # the decreasing f is NaN on a sliver no 257-sample check lands on
    f = custom(lambda x: math.nan if 1.4 < x < 1.401 else -0.5 * x, "decreasing")
    joint = build_joint(triangular(0.0, 1.0, 2.0, grid=10), f, 2001)
    assert np.isnan(joint.ys).sum() == 1
    for op in ("sum", "product"):
        with pytest.raises(DomainError, match=r"^g gives nan at x = 1\.4, the first NaN "
                                              r"oracle sample on \[0, 2\]$"):
            extend(joint, op)
    one = JointDistribution(xs=np.array([1.0]), mu=np.array([1.0]), ys=np.array([math.nan]))
    with pytest.raises(DomainError, match=r"^g gives nan at x = 1, "):
        extend(one, "sum")


def test_oracle_check_raises_on_a_nan_z_the_engine_never_evaluates():
    # an increasing f makes the sum monotone, so the engine reads only the
    # level ends and never meets the NaN; the oracle's samples do
    f = custom(lambda x: math.nan if 1.4 < x < 1.401 else 0.5 * x, "increasing")
    with pytest.raises(DomainError, match=r"^g gives nan at x = 1\.4, the first NaN "
                                          r"oracle sample on \[0, 2\]$"):
        oracle_check(triangular(0.0, 1.0, 2.0, grid=10), f, "sum")


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
    build_joint(a, f, 501)
    assert calls[0] == MONOTONE_CHECK_SAMPLES + 501


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
    assert 0.0 <= _auto_delta(build_joint(a, linear(2.0, 1.0), n)) < 1.0


def test_levels_from_membership_thresholds():
    s = SampledMembership(zs=np.array([0.0, 1.0, 2.0, 3.0, 4.0]),
                          mus=np.array([0.0, 0.5, 1.0, 0.5, 0.0]))
    fn = levels_from_membership(s, grid=2, delta=0.01)
    assert fn.level(0) == Interval(0.0, 4.0)
    assert fn.level(1) == Interval(1.0, 3.0)
    assert fn.level(2) == Interval(2.0, 2.0)


def test_levels_from_membership_default_grid_and_delta():
    s = SampledMembership(zs=np.array([0.0, 1.0, 2.0, 3.0, 4.0]),
                          mus=np.array([0.0, 0.5, 1.0, 0.5, 0.0]))
    fn = levels_from_membership(s)
    assert fn.k == 100
    assert fn.level(0) == Interval(0.0, 4.0)
    assert fn.level(50) == Interval(1.0, 3.0)
    assert fn.level(100) == Interval(2.0, 2.0)


def test_levels_from_membership_rejects_low_peak():
    s = SampledMembership(zs=np.array([0.0, 1.0]), mus=np.array([0.2, 0.8]))
    with pytest.raises(ValueError, match="peaks"):
        levels_from_membership(s, grid=10, delta=0.01)


def test_levels_from_membership_rejects_empty_input():
    s = SampledMembership(zs=np.array([]), mus=np.array([]))
    with pytest.raises(ValueError):
        levels_from_membership(s)


@st.composite
def membership_samples(draw):
    """Strictly increasing zs with memberships that tie, sit on rounded
    plateaus, hit a level threshold exactly, or (rarely) are NaN."""
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
        st.just(float("nan")) if draw(st.integers(0, 9)) == 0 else st.just(1.0))
    mus = np.array(draw(st.lists(mu, min_size=n, max_size=n)))
    return SampledMembership(zs=zs, mus=mus), K, delta


# Memberships for both ways levels_from_membership reads a run: as its own
# running maximum when it is in order, through np.maximum.accumulate when it
# is not.  Runs with plateaus, a one-ulp dip before the peak and after it, a
# NaN inside each run, and -0.0/0.0 ties.
SORTED_RUN_CASES = [
    (SampledMembership(zs=np.arange(9.0),
                       mus=np.array([0.2, 0.2, 0.5, 0.5, 1.0, 1.0, 0.6, 0.6, 0.1])), 4, 0.1),
    (SampledMembership(zs=np.arange(4.0),
                       mus=np.array([0.5, np.nextafter(0.5, 0.0), 1.0, 0.3])), 2, 0.0),
    (SampledMembership(zs=np.arange(4.0),
                       mus=np.array([0.2, 1.0, np.nextafter(0.5, 0.0), 0.5])), 2, 0.0),
    (SampledMembership(zs=np.arange(5.0),
                       mus=np.array([0.2, float("nan"), 0.6, 1.0, 0.4])), 2, 0.25),
    (SampledMembership(zs=np.arange(4.0),
                       mus=np.array([0.3, 1.0, float("nan"), 0.2])), 2, 0.25),
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
@example((SampledMembership(zs=np.array([0.0, 1.0]), mus=np.array([float("nan"), 0.5])),
          4, 0.125))
@example((SampledMembership(zs=np.array([0.0, 1.0]), mus=np.array([0.2, 0.8])), 10, 0.01))
# the peak first, last, tied at both ends, behind a NaN, and a lone NaN
@example((SampledMembership(zs=np.array([0.0, 1.0, 2.0]), mus=np.array([1.0, 0.5, 0.2])),
          2, 0.1))
@example((SampledMembership(zs=np.array([0.0, 1.0, 2.0]), mus=np.array([0.2, 0.5, 1.0])),
          2, 0.1))
@example((SampledMembership(zs=np.array([0.0, 1.0, 2.0, 3.0]),
                            mus=np.array([1.0, 0.3, 0.6, 1.0])), 4, 0.1))
@example((SampledMembership(zs=np.array([0.0, 1.0, 2.0, 3.0]),
                            mus=np.array([float("nan"), 0.4, 1.0, float("nan")])), 2, 0.25))
@example((SampledMembership(zs=np.array([0.0, 1.0]), mus=np.array([float("nan"), 0.3])),
          2, 0.25))
@example((SampledMembership(zs=np.array([-3.0]), mus=np.array([float("nan")])), 1, 0.5))
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
@example((SampledMembership(zs=np.array([0.0, 1.0, 2.0]), mus=np.array([float("nan")] * 3)),
          2, 0.25))
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


def test_levels_from_membership_needs_strictly_increasing_z():
    for zs in ([1.0, 0.0], [0.0, 0.0], [0.0, float("nan"), 1.0]):
        s = SampledMembership(zs=np.array(zs), mus=np.ones(len(zs)))
        with pytest.raises(ValueError, match="^z samples must be strictly increasing, "
                                             "as extend returns them$"):
            levels_from_membership(s, 2)


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


@pytest.mark.parametrize("op, arrays", [("sum", 5.5), ("product", 7.5)])
def test_oracle_check_peaks_at_a_few_arrays_of_n_floats(op, arrays):
    # the joint's xs, mu and ys and z live through the call, and a product
    # whose z is not monotone sorts: the order and the sorted z join them.
    # Any other array of n floats held past its last read shows here;
    # tracemalloc counts numpy's buffers
    a, f, n = triangular(-1.5, 0.5, 3.0, grid=1000), linear(2.0, 1.0), 20001
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


def test_oracle_tolerance_stays_finite_past_the_float_range():
    # 5 * width / n passes the float max for these supports, the first one's
    # width too; the halved ends give it
    f = custom(lambda x: -x / 4, "decreasing")
    for lo, hi, max_h in ((-1.5e308, 1.6e308, 3.0000000000000407e+304), (-8e307, 8e307, 0.0)):
        report = oracle_check(triangular(lo, 0.0, hi, grid=4), f, "sum")
        assert report.tolerance == pytest.approx(5.0 * (hi / 2001 - lo / 2001), rel=1e-15)
        assert report.max_hausdorff == max_h and report.passed
    # elsewhere it is 5 * width / n as it was, bit for bit
    report = oracle_check(triangular(-1e307, 0.0, 2e307, grid=4), f, "sum")
    assert report.tolerance == 5.0 * (2e307 - -1e307) / 2001


def test_oracle_report_json_schema():
    report = oracle_check(triangular(1.0, 2.0, 3.0), hyperbolic(4.0), "sum", n=501)
    payload = report.to_json()
    assert set(payload) == {"op", "n", "tolerance", "max_hausdorff", "passed", "levels"}
    row = payload["levels"][0]
    assert set(row) == {"alpha", "engine", "oracle", "hausdorff", "minkowski"}
    assert row["engine"] == [report.levels[0].left.lo, report.levels[0].left.hi]

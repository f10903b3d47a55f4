import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fuzzyarith import (
    AlphaGrid,
    DomainError,
    Interval,
    JointDistribution,
    MonotonicityError,
    RangeMethod,
    SampledMembership,
    build_joint,
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

from helpers import dense_levels_from_membership


def test_build_joint_enforces_sample_floor():
    a = triangular(1.0, 2.0, 3.0)
    with pytest.raises(ValueError, match="101"):
        build_joint(a, identity(), n=5)
    with pytest.raises(ValueError):
        build_joint(a, identity(), n=100)


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
    thresholds = AlphaGrid(K).alphas() - delta
    mu = st.one_of(
        st.floats(0.0, 1.0),
        st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
        st.integers(0, K).map(lambda i: i / K),
        st.integers(0, K).map(lambda i: float(thresholds[i])),
        st.just(float("nan")) if draw(st.integers(0, 9)) == 0 else st.just(1.0))
    mus = np.array(draw(st.lists(mu, min_size=n, max_size=n)))
    return SampledMembership(zs=zs, mus=mus), K, delta


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
def test_levels_from_membership_matches_dense_mask(case):
    s, K, delta = case
    got = _outcome(lambda: levels_from_membership(s, K, delta))
    want = _outcome(lambda: dense_levels_from_membership(s, K, delta))
    if isinstance(want, str):
        assert got == want
    else:
        assert np.array_equal(got.los, want[0]) and np.array_equal(got.his, want[1])


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
    assert report.levels[0].method == "analytic"


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


def test_oracle_check_resamples_onto_requested_grid():
    report = oracle_check(triangular(1.0, 2.0, 3.0), identity(), "sum", grid=20, n=501)
    assert len(report.levels) == 21
    assert report.levels[-1].left.approx_equal(Interval(4.0, 4.0), tol=1e-12)


def test_oracle_check_custom_correlation_numeric_path():
    # x * x^3 stretches the output axis ~100x relative to the input, so the
    # input-width tolerance is out of reach at any n; the oracle still has
    # to land within the same 5/n factor of the output width
    a = triangular(1.0, 2.0, 3.0)
    f = custom(lambda x: x**3, "increasing")
    report = oracle_check(a, f, "product", n=501, grid=20, method=RangeMethod())
    assert report.levels[0].method == "numeric"
    assert report.levels[0].left.approx_equal(Interval(1.0, 81.0), tol=1e-6)
    assert report.max_hausdorff <= 5.0 * report.levels[0].left.width / report.n


def test_oracle_check_labels_the_route_the_engine_takes():
    # x * x^3 on a positive support with a positive increasing f is
    # monotone, so by default the engine ranges it from the level ends with
    # no scan; a decreasing f proves nothing about x + f(x), which is scanned
    a = triangular(1.0, 2.0, 3.0)
    f = custom(lambda x: x**3, "increasing")
    report = oracle_check(a, f, "product", n=501, grid=20)
    assert report.method == "analytic"
    assert report.levels[0].left.approx_equal(Interval(1.0, 81.0), tol=1e-12)
    assert report.max_hausdorff <= 5.0 * report.levels[0].left.width / report.n
    assert oracle_check(a, custom(lambda x: -x**3, "decreasing"), "sum", n=501).method == "numeric"


def test_oracle_report_json_schema():
    report = oracle_check(triangular(1.0, 2.0, 3.0), hyperbolic(4.0), "sum", n=501)
    payload = report.to_json()
    assert set(payload) == {"op", "n", "tolerance", "max_hausdorff", "passed", "levels"}
    row = payload["levels"][0]
    assert set(row) == {"alpha", "engine", "oracle", "hausdorff", "minkowski"}
    assert row["engine"] == [report.levels[0].left.lo, report.levels[0].left.hi]

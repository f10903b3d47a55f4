import math
import pickle
import re

import numpy as np
import pytest

from fuzzyarith import (
    DomainError,
    Interval,
    MonotonicityError,
    RangeMethod,
    check_monotone,
    compare_levels,
    correlated_product,
    correlated_sum,
    correlation_from_json,
    crisp,
    custom,
    hyperbolic,
    identity,
    induced_number,
    linear,
    negation,
    reciprocal,
    triangular,
)

from helpers import monotone_image, random_shape, random_sign_definite, wider_than_floats


def test_linear_factory_and_evaluation():
    f = linear(2.0, 1.0)
    assert f(2.0) == 5.0
    assert f.direction == "increasing"
    assert (f.family, f.q, f.r) == ("linear", 2.0, 1.0)
    g = linear(-3.0)
    assert g.direction == "decreasing"
    assert g(1.0) == -3.0


def test_linear_rejects_zero_slope():
    with pytest.raises(ValueError, match="injective"):
        linear(0.0, 5.0)


@pytest.mark.parametrize("make", [linear, hyperbolic])
@pytest.mark.parametrize("q, r, name, value", [(math.nan, 0.0, "q", "nan"),
                                               (1e309, 0.0, "q", "inf"),
                                               (2.0, -math.inf, "r", "-inf"),
                                               (2.0, math.nan, "r", "nan")])
def test_factories_reject_a_non_finite_coefficient(make, q, r, name, value):
    family = make.__name__
    message = f"^{family} correlation needs a finite {name}, got {value}$"
    with pytest.raises(ValueError, match=message):
        make(q, r)
    with pytest.raises(ValueError, match=message):
        correlation_from_json({family: [q, r]})


def test_hyperbolic_factory_and_evaluation():
    f = hyperbolic(4.0)
    assert f(2.0) == 2.0
    assert f.direction == "decreasing"
    assert (f.family, f.q, f.r) == ("hyperbolic", 4.0, 0.0)
    g = hyperbolic(-2.0, 1.0)
    assert g.direction == "increasing"
    assert g(2.0) == 0.0
    with pytest.raises(ValueError):
        hyperbolic(0.0)


def test_named_special_cases():
    assert identity()(3.5) == 3.5
    assert (identity().family, identity().q, identity().r) == ("linear", 1.0, 0.0)
    assert negation()(3.5) == -3.5
    assert (negation().family, negation().q, negation().r) == ("linear", -1.0, 0.0)
    assert negation().direction == "decreasing"
    assert reciprocal()(4.0) == 0.25
    assert (reciprocal().family, reciprocal().q, reciprocal().r) == ("hyperbolic", 1.0, 0.0)
    assert reciprocal().direction == "decreasing"


def test_vectorized_values():
    xs = np.array([1.0, 2.0, 4.0])
    assert np.allclose(linear(2.0, 1.0).values(xs), [3.0, 5.0, 9.0])
    assert np.allclose(hyperbolic(4.0, 1.0).values(xs), [5.0, 3.0, 2.0])
    f = custom(lambda x: x**3, "increasing")
    assert np.allclose(f.values(xs), [1.0, 8.0, 64.0])


def test_require_on_hyperbolic_domain():
    hyperbolic(1.0).require_on(Interval(0.5, 2.0))
    hyperbolic(1.0).require_on(Interval(-2.0, -0.5))
    with pytest.raises(DomainError):
        hyperbolic(1.0).require_on(Interval(-1.0, 1.0))
    with pytest.raises(DomainError):
        reciprocal().require_on(Interval(0.0, 1.0))


def test_require_on_custom_domain():
    f = custom(np.sqrt, "increasing", domain=Interval(0.0, 100.0))
    f.require_on(Interval(1.0, 4.0))
    with pytest.raises(DomainError):
        f.require_on(Interval(-1.0, 4.0))


@pytest.mark.parametrize("domain", [(0, 5), [0.0, 5.0], Interval(0.0, 5.0), np.array([0.0, 5.0])])
def test_custom_takes_a_domain_as_an_interval_or_a_pair(domain):
    f = custom(math.exp, "increasing", domain=domain)
    assert type(f.domain) is Interval and f.domain == Interval(0.0, 5.0)
    a = triangular(1.0, 2.0, 3.0, grid=4)
    assert correlated_sum(a, f) == correlated_sum(a, custom(math.exp, "increasing"))
    with pytest.raises(DomainError, match="leaves the declared domain"):
        correlated_sum(triangular(-1.0, 2.0, 3.0, grid=4), f)


# finite and ordered, but wider than the float range
_WIDE_DOMAIN = (-1.5e308, 1.6e308)


@pytest.mark.parametrize("domain", [(5.0, 0.0), (math.nan, 1.0), (0.0, math.inf), [0.0, 1.0, 2.0],
                                    3.0, (0.0,), "ab", (None, 1.0), _WIDE_DOMAIN])
def test_custom_rejects_a_domain_it_cannot_use(domain):
    message = (f"custom correlation domain must be None or a finite (lo, hi) pair with "
               f"lo <= hi, got {domain!r}")
    if domain is _WIDE_DOMAIN:
        message = "custom correlation domain [-1.5e+308, 1.6e+308] is wider than the float range"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        custom(math.exp, "increasing", domain=domain)


def test_check_monotone_detects_direction():
    assert check_monotone(custom(lambda x: x**3, "increasing"), Interval(-2.0, 2.0)) == "increasing"
    assert check_monotone(linear(-1.0), Interval(0.0, 1.0)) == "decreasing"
    with pytest.raises(MonotonicityError):
        check_monotone(custom(lambda x: x**2, "increasing"), Interval(-1.0, 1.0))


def test_check_monotone_names_nan_value_and_first_sample():
    # samples on [1, 3] are 1 + i/128; the first one above 2.5 is 2.5078125
    f = custom(lambda x: float("nan") if x > 2.5 else x, "increasing")
    with pytest.raises(DomainError, match=r"nan at x = 2\.5078125\b"):
        check_monotone(f, Interval(1.0, 3.0))
    with pytest.raises(DomainError, match="non-finite"):
        correlated_sum(triangular(1.0, 2.0, 3.0), f)


def test_check_monotone_names_inf_value_and_first_sample():
    f = custom(lambda x: -math.inf if x < -1.0 else -x, "decreasing")
    with pytest.raises(DomainError, match=r"-inf at x = -2\b"):
        check_monotone(f, Interval(-2.0, 2.0))


def test_check_monotone_compares_samples_whose_differences_overflow():
    # the samples span past the float range, so their differences are +-inf
    # with an overflow warning, which the suite turns into an error; the
    # number they would induce is wider than the float range, and refused
    f = custom(lambda x: 1.1e308 * math.atan(1e6 * x), "increasing")
    assert check_monotone(f, Interval(-1.0, 1.5)) == "increasing"
    with wider_than_floats("support", 1.1e308 * math.atan(-1e6), 1.1e308 * math.atan(1.5e6)):
        induced_number(triangular(-1.0, 0.0, 1.5, grid=10), f)


def test_check_monotone_degenerate_interval():
    assert check_monotone(linear(2.0), Interval(1.0, 1.0)) == "increasing"


@pytest.mark.parametrize("lo, hi, levels", [
    # sum, RangeMethod() product and induced number, as (los, his) lists
    (1.0, 1.0000000000000002, (([3.0, 3.0], [3.000000000000001, 3.0]),
                               ([2.0, 2.0], [2.0000000000000013, 2.0]),
                               ([2.0, 2.0], [2.000000000000001, 2.0]))),
    (0.0, 5e-324, (([0.0, 0.0], [1e-323, 0.0]),
                   ([0.0, 0.0], [0.0, 0.0]),
                   ([0.0, 0.0], [5e-324, 0.0]))),
])
def test_check_monotone_compares_the_distinct_samples_of_a_narrow_support(lo, hi, levels):
    # the support holds two floats, so the 257 equispaced samples repeat them
    a = triangular(lo, lo, hi, grid=1)
    f = custom(lambda x: x**3 + x, "increasing")
    assert check_monotone(f, a.support) == "increasing"
    got = (correlated_sum(a, f), correlated_product(a, f, RangeMethod()), induced_number(a, f))
    assert [(b.los.tolist(), b.his.tolist()) for b in got] == list(levels)
    wrong = custom(lambda x: x**3 + x, "decreasing")
    with pytest.raises(MonotonicityError, match="declared decreasing but samples increasing"):
        correlated_sum(a, wrong)
    flat = custom(lambda x: 1.0, "increasing")
    with pytest.raises(MonotonicityError, match=r"not strictly monotone on .* \(257 samples\)"):
        check_monotone(flat, a.support)


def test_custom_declared_direction_must_match():
    wrong = custom(lambda x: -x, "increasing")
    a = triangular(1.0, 2.0, 3.0)
    with pytest.raises(MonotonicityError):
        induced_number(a, wrong)


@pytest.mark.parametrize("fn, direction, message", [
    (abs, "sideways", "direction must be 'increasing' or 'decreasing', got 'sideways'"),
    (42, "increasing", "custom correlation needs a callable evaluator"),
])
def test_custom_rejects_a_bad_direction_or_evaluator(fn, direction, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        custom(fn, direction)


def test_induced_linear_levels():
    a = triangular(1.0, 2.0, 3.0)
    b = induced_number(a, linear(2.0, 1.0))
    alphas = a.alphas
    assert np.allclose(b.los, 3.0 + 2.0 * alphas, atol=1e-12)
    assert np.allclose(b.his, 7.0 - 2.0 * alphas, atol=1e-12)


def test_induced_reciprocal_levels():
    a = triangular(1.0, 2.0, 3.0)
    b = induced_number(a, reciprocal())
    assert b.support.approx_equal(Interval(1.0 / 3.0, 1.0), tol=1e-12)
    assert b.core.approx_equal(Interval(0.5, 0.5), tol=1e-12)


def test_induced_matches_interval_image_nodewise():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = random_sign_definite(rng, side=1)
        for f in (linear(2.0, 1.0), negation(), hyperbolic(4.0), reciprocal()):
            b = induced_number(a, f)
            for i in (0, 25, 50, 100):
                assert b.level(i).approx_equal(monotone_image(f, a.level(i)), tol=1e-12)


def test_induced_domain_violation():
    a = triangular(-1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        induced_number(a, reciprocal())


def test_induced_composition_inverts():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = random_shape(rng)
        b = induced_number(induced_number(a, linear(2.0, 1.0)), linear(0.5, -0.5))
        assert all(r.equal for r in compare_levels(b, a, 1e-9))


def test_custom_induced_matches_formula():
    a = random_sign_definite(np.random.default_rng(3), side=1)
    f = custom(lambda x: x**3, "increasing")
    b = induced_number(a, f)
    assert np.allclose(b.los, a.los**3, atol=1e-9)
    assert np.allclose(b.his, a.his**3, atol=1e-9)


def test_json_round_trips():
    for f in (linear(2.0, 1.0), hyperbolic(-4.0, 0.5), identity(), negation(), reciprocal()):
        g = correlation_from_json(f.to_json())
        assert g(1.7) == pytest.approx(f(1.7), abs=1e-15)
        assert g.direction == f.direction
    with pytest.raises(ValueError):
        custom(lambda x: x, "increasing").to_json()
    with pytest.raises(ValueError):
        correlation_from_json({"spline": [1, 2]})
    with pytest.raises(ValueError):
        correlation_from_json("frobnicate")


def test_json_accepts_bare_names():
    assert correlation_from_json("negation")(2.0) == -2.0
    assert correlation_from_json("identity")(2.0) == 2.0
    assert correlation_from_json({"linear": [2, 1]})(1.0) == 3.0


@pytest.mark.parametrize("obj", [{"linear": [1, 2, 3]}, {"linear": [1]}, {"hyperbolic": 2},
                                 {"hyperbolic": []}])
def test_json_rejects_a_wrong_parameter_count(obj):
    ((name, _),) = obj.items()
    with pytest.raises(ValueError, match=f"^'{name}' takes a list of 2 parameters"):
        correlation_from_json(obj)


@pytest.mark.parametrize("obj, arg", [({"linear": [None, 1]}, "None"),
                                      ({"hyperbolic": ["x", 0]}, "'x'"),
                                      ({"linear": [2, True]}, "True")])
def test_json_rejects_a_parameter_that_is_not_a_number(obj, arg):
    ((name, args),) = obj.items()
    with pytest.raises(ValueError, match=re.escape(f"'{name}' takes numeric parameters, "
                                                   f"got {arg} in {args!r}")):
        correlation_from_json(obj)
    assert correlation_from_json({"linear": [np.int64(2), np.float64(1)]}) == linear(2.0, 1.0)


def test_named_aliases_are_linear_and_hyperbolic_functions_that_keep_their_names():
    for f, family, q, name in ((identity(), "linear", 1.0, "identity"),
                               (negation(), "linear", -1.0, "negation"),
                               (reciprocal(), "hyperbolic", 1.0, "reciprocal")):
        assert (f.family, f.q, f.r) == (family, q, 0.0)
        assert repr(f) == f.to_json() == name
        assert correlation_from_json(name) == f
        assert pickle.loads(pickle.dumps(f)) == f
    assert identity() != linear(1.0, 0.0)
    assert negation() != linear(-1.0, 0.0)
    assert reciprocal() != hyperbolic(1.0, 0.0)
    with pytest.raises(DomainError, match="^reciprocal correlation is undefined across zero"):
        reciprocal().require_on(Interval(-1.0, 1.0))


def test_custom_correlations_compare_by_their_evaluator():
    exp, sin = custom(math.exp, "increasing"), custom(math.sin, "increasing")
    assert exp != sin
    assert len({exp, sin}) == 2
    assert exp == custom(math.exp, "increasing")


def test_named_aliases_evaluate_exactly_down_to_signed_zeros():
    # q*x + r with r = 0 would turn these zeros into +0.0
    assert np.signbit(negation()(0.0))
    assert np.signbit(identity()(-0.0))
    assert np.signbit(negation().values(np.array([0.0]))).all()
    assert np.signbit(identity().values(np.array([-0.0]))).all()
    assert reciprocal()(-0.5) == -2.0


# (operand, correlation, operation): the lower and upper ends, signed zeros
# included, that x and -x give.
_ALIAS_RESULTS = [
    ("tri", identity, induced_number, [-1.0, -0.75, -0.5, -0.25, 0.0], [1.0, 0.75, 0.5, 0.25, 0.0]),
    ("tri", identity, correlated_sum, [-2.0, -1.5, -1.0, -0.5, 0.0], [2.0, 1.5, 1.0, 0.5, 0.0]),
    ("tri", identity, correlated_product, [0.0] * 5, [1.0, 0.5625, 0.25, 0.0625, 0.0]),
    ("tri", negation, induced_number, [-1.0, -0.75, -0.5, -0.25, -0.0], [1.0, 0.75, 0.5, 0.25, -0.0]),
    ("tri", negation, correlated_sum, [0.0] * 5, [0.0] * 5),
    ("tri", negation, correlated_product, [-1.0, -0.5625, -0.25, -0.0625, 0.0], [0.0] * 5),
    ("crisp", identity, induced_number, [-0.0] * 3, [-0.0] * 3),
    ("crisp", identity, correlated_sum, [0.0] * 3, [0.0] * 3),
    ("crisp", identity, correlated_product, [0.0] * 3, [0.0] * 3),
    ("crisp", negation, induced_number, [0.0] * 3, [0.0] * 3),
    ("crisp", negation, correlated_sum, [0.0] * 3, [0.0] * 3),
    ("crisp", negation, correlated_product, [-0.0] * 3, [0.0] * 3),
]


@pytest.mark.parametrize("shape, make, op, los, his", _ALIAS_RESULTS)
def test_named_alias_results_keep_their_bytes(shape, make, op, los, his):
    a = triangular(-1.0, 0.0, 1.0, grid=4) if shape == "tri" else crisp(-0.0, grid=2)
    res = op(a, make())
    assert res.los.tobytes() == np.array(los).tobytes()
    assert res.his.tobytes() == np.array(his).tobytes()

import math

import numpy as np
import pytest

from fuzzyarith import (
    DomainError,
    Interval,
    MonotonicityError,
    check_monotone,
    correlated_sum,
    correlation_from_json,
    custom,
    hyperbolic,
    identity,
    induced_number,
    linear,
    monotone_image,
    negation,
    reciprocal,
    triangular,
)

from helpers import random_shape, random_sign_definite


def test_linear_factory_and_evaluation():
    f = linear(2.0, 1.0)
    assert f(2.0) == 5.0
    assert f.direction == "increasing"
    assert f.linear_coeffs == (2.0, 1.0)
    assert f.hyperbolic_coeffs is None
    g = linear(-3.0)
    assert g.direction == "decreasing"
    assert g(1.0) == -3.0


def test_linear_rejects_zero_slope():
    with pytest.raises(ValueError, match="injective"):
        linear(0.0, 5.0)


def test_hyperbolic_factory_and_evaluation():
    f = hyperbolic(4.0)
    assert f(2.0) == 2.0
    assert f.direction == "decreasing"
    assert f.hyperbolic_coeffs == (4.0, 0.0)
    g = hyperbolic(-2.0, 1.0)
    assert g.direction == "increasing"
    assert g(2.0) == 0.0
    with pytest.raises(ValueError):
        hyperbolic(0.0)


def test_named_special_cases():
    assert identity()(3.5) == 3.5
    assert identity().linear_coeffs == (1.0, 0.0)
    assert negation()(3.5) == -3.5
    assert negation().linear_coeffs == (-1.0, 0.0)
    assert negation().direction == "decreasing"
    assert reciprocal()(4.0) == 0.25
    assert reciprocal().hyperbolic_coeffs == (1.0, 0.0)
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


def test_check_monotone_detects_direction():
    assert check_monotone(custom(lambda x: x**3, "increasing"), Interval(-2.0, 2.0)) == "increasing"
    assert check_monotone(linear(-1.0), Interval(0.0, 1.0)) == "decreasing"
    with pytest.raises(MonotonicityError):
        check_monotone(custom(lambda x: x**2, "increasing"), Interval(-1.0, 1.0))
    with pytest.raises(ValueError):
        check_monotone(identity(), Interval(0.0, 1.0), samples=2)


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


def test_check_monotone_degenerate_interval():
    assert check_monotone(linear(2.0), Interval(1.0, 1.0)) == "increasing"


def test_custom_declared_direction_must_match():
    wrong = custom(lambda x: -x, "increasing")
    a = triangular(1.0, 2.0, 3.0)
    with pytest.raises(MonotonicityError):
        induced_number(a, wrong)


def test_induced_linear_levels():
    a = triangular(1.0, 2.0, 3.0)
    b = induced_number(a, linear(2.0, 1.0))
    alphas = a.grid.alphas()
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
        assert b.approx_equal(a, tol=1e-9)


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

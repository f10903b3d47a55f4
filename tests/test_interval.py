"""Closed intervals, and the interval arithmetic that the standard ops apply
level by level, checked here on operands whose levels are all one interval."""

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fuzzyarith import (DomainError, Interval, from_levels, hyperbolic, linear, negation,
                        standard_product, standard_sum)

from helpers import monotone_image


def levelwise(op, x, y):
    """The level of op on two operands whose every level is x and y."""
    return op(from_levels([[x.lo, x.hi]] * 2), from_levels([[y.lo, y.hi]] * 2)).support


def test_construction_orders_and_coerces():
    iv = Interval(1, 3)
    assert iv.lo == 1.0 and iv.hi == 3.0
    assert isinstance(iv.lo, float)


def test_construction_rejects_bad_endpoints():
    with pytest.raises(ValueError):
        Interval(3.0, 1.0)
    with pytest.raises(ValueError):
        Interval(0.0, float("nan"))
    with pytest.raises(ValueError):
        Interval(float("-inf"), 0.0)


def test_every_construction_from_values_validates():
    iv = Interval(1.0, 2.0)
    with pytest.raises(ValueError, match="out of order: lo=5.0 > hi=2.0"):
        iv._replace(lo=5)
    with pytest.raises(ValueError, match="must be finite"):
        iv._replace(hi=float("nan"))
    with pytest.raises(ValueError, match="must be finite"):
        Interval._make([float("inf"), 0.0])
    assert iv._replace(hi=3) == Interval._make([1, 3]) == Interval(1.0, 3.0)
    # pickle and copy rebuild through __new__, so an unchecked tuple does not survive them
    raw = tuple.__new__(Interval, (3.0, 2.0))
    for rebuild in (lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy):
        assert rebuild(iv) == iv
        with pytest.raises(ValueError, match="out of order"):
            rebuild(raw)


def test_intervals_are_tuples():
    lo, hi = iv = Interval(1, 3)
    assert (lo, hi) == (iv[0], iv[1]) == iv == (1.0, 3.0)
    assert Interval(1, 2) < Interval(1, 3) and hash(iv) == hash((1.0, 3.0))
    assert iv._asdict() == {"lo": 1.0, "hi": 3.0}


def test_width_midpoint_contains():
    iv = Interval(-2.0, 4.0)
    assert iv.width == 6.0
    assert iv.contains(Interval(-1.0, 3.0))
    assert not iv.contains(Interval(-3.0, 3.0))
    assert iv.contains(Interval(-2.0 - 1e-12, 4.0), tol=1e-9)


def test_add_endpointwise():
    assert levelwise(standard_sum, Interval(1, 3), Interval(3, 7)) == Interval(4, 10)


def test_product_four_corner():
    assert levelwise(standard_product, Interval(-2, 1), Interval(-2, 1)) == Interval(-2, 4)
    got = levelwise(standard_product, Interval(1, 3), Interval(1 / 3.0, 1.0))
    assert got.lo == pytest.approx(1 / 3.0, abs=1e-15)
    assert got.hi == 3.0


def test_scaled_and_shifted():
    # a crisp operand scales or shifts the level
    iv = Interval(1.0, 3.0)
    assert levelwise(standard_product, iv, Interval(2.0, 2.0)) == Interval(2.0, 6.0)
    assert levelwise(standard_product, iv, Interval(-1.0, -1.0)) == Interval(-3.0, -1.0)
    assert levelwise(standard_product, iv, Interval(0.0, 0.0)) == Interval(0.0, 0.0)
    assert levelwise(standard_sum, iv, Interval(-1.5, -1.5)) == Interval(-0.5, 1.5)


def test_hausdorff_is_max_endpoint_gap():
    assert Interval(0, 4).hausdorff(Interval(1, 4)) == 1.0
    assert Interval(0, 4).hausdorff(Interval(0, 4)) == 0.0
    assert Interval(-1, 1).hausdorff(Interval(2, 5)) == 4.0


def test_approx_equal():
    assert Interval(0, 1).approx_equal(Interval(0, 1 + 1e-10))
    assert not Interval(0, 1).approx_equal(Interval(0, 1 + 1e-6))


def test_monotone_image_linear():
    assert monotone_image(linear(2.0, 1.0), Interval(1, 3)) == Interval(3.0, 7.0)


def test_monotone_image_decreasing_swaps():
    got = monotone_image(hyperbolic(4.0), Interval(1, 3))
    assert got.lo == pytest.approx(4.0 / 3.0, abs=1e-15)
    assert got.hi == 4.0
    assert monotone_image(negation(), Interval(1, 3)) == Interval(-3.0, -1.0)


def test_monotone_image_rejects_pole_in_interval():
    with pytest.raises(DomainError):
        monotone_image(hyperbolic(1.0), Interval(-1.0, 1.0))
    with pytest.raises(DomainError):
        monotone_image(hyperbolic(1.0), Interval(0.0, 2.0))


finite = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


@st.composite
def intervals(draw):
    a = draw(finite)
    b = draw(finite)
    return Interval(min(a, b), max(a, b))


@given(intervals(), intervals())
def test_product_commutes(x, y):
    assert levelwise(standard_product, x, y) == levelwise(standard_product, y, x)


@given(intervals(), intervals(), intervals())
def test_sum_associates_within_roundoff(x, y, z):
    left = levelwise(standard_sum, levelwise(standard_sum, x, y), z)
    right = levelwise(standard_sum, x, levelwise(standard_sum, y, z))
    assert left.approx_equal(right, tol=1e-12)

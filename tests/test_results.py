"""Results the library computes are stored as made: FuzzyNumber._made
adopts the arrays an operation has just built, with no copy, and tests only
the support width where the operation makes its levels exactly nested.
These tests check that such a result holds contiguous, read-only arrays of
its own, and that every proved family passes the full nest test."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fuzzyarith import (CLOSED_FORM_KINDS, FuzzyNumber, RangeMethod, closed_form,
                        correlated_product, correlated_sum, crisp, custom, from_levels,
                        hyperbolic, identity, induced_number, linear, negation, reciprocal,
                        standard_product, standard_sum, trapezoidal, triangular)
from fuzzyarith.oracle import build_joint, extend, levels_from_membership

A = triangular(1.0, 2.0, 3.0, grid=10)
B = trapezoidal(-2.0, -1.0, 0.5, 4.0, grid=10)
ACROSS = triangular(-1.0, 0.5, 2.0, grid=10)
LEVELS = np.column_stack((A.los, A.his))
CROSSED = np.array([[0.0, 1.0], [1.0, 1.0 - 1e-13]])  # crossed within the slack: repaired
SAMPLES = extend(build_joint(A, linear(2.0, 1.0), 101), "sum")


def _custom_increasing():
    return custom(lambda x: x ** 3 + x, "increasing")


# Every public operation and route that returns a fuzzy number, with the
# operands and the caller's arrays its result must not share memory with.
RESULTS = {
    "triangular": (lambda: triangular(1.0, 2.0, 3.0, grid=10), ()),
    "trapezoidal": (lambda: trapezoidal(0.0, 1.0, 2.0, 4.0, grid=10), ()),
    "crisp": (lambda: crisp(2.5, grid=10), ()),
    "FuzzyNumber": (lambda: FuzzyNumber(A.los, A.his), (A,)),
    "from_levels": (lambda: from_levels(LEVELS), (LEVELS,)),
    "from_levels-repaired": (lambda: from_levels(CROSSED), (CROSSED,)),
    "resample": (lambda: A.resample(7), (A,)),
    "standard_sum": (lambda: standard_sum(A, B), (A, B)),
    "standard_product": (lambda: standard_product(A, B), (A, B)),
    "induced-linear": (lambda: induced_number(A, linear(-2.0, 1.0)), (A,)),
    "induced-hyperbolic": (lambda: induced_number(A, hyperbolic(2.0, 1.0)), (A,)),
    "induced-identity": (lambda: induced_number(A, identity()), (A,)),
    "induced-negation": (lambda: induced_number(A, negation()), (A,)),
    "induced-reciprocal": (lambda: induced_number(A, reciprocal()), (A,)),
    "induced-custom": (lambda: induced_number(A, _custom_increasing()), (A,)),
    "corr_sum-linear": (lambda: correlated_sum(A, linear(2.0, 1.0)), (A,)),
    "corr_sum-hyperbolic": (lambda: correlated_sum(A, hyperbolic(2.0, 1.0)), (A,)),
    "corr_prod-linear": (lambda: correlated_product(ACROSS, linear(2.0, 1.0)), (ACROSS,)),
    "corr_prod-hyperbolic": (lambda: correlated_product(A, hyperbolic(2.0, 1.0)), (A,)),
    "corr_sum-custom-monotone": (lambda: correlated_sum(A, _custom_increasing()), (A,)),
    "corr_prod-custom-zero-cut": (lambda: correlated_product(ACROSS, _custom_increasing()),
                                  (ACROSS,)),
    "corr_prod-custom-scanned": (
        lambda: correlated_product(ACROSS, custom(lambda x: math.atan(x) + 1.0, "increasing")),
        (ACROSS,)),
    "corr_sum-linear-scanned": (lambda: correlated_sum(A, linear(2.0, 1.0), RangeMethod()),
                                (A,)),
    "corr_prod-custom-scanned-method": (
        lambda: correlated_product(A, _custom_increasing(), RangeMethod()), (A,)),
    **{f"closed_form-{kind}": (lambda kind=kind: closed_form(kind, A, 2.0, 1.0), (A,))
       for kind in CLOSED_FORM_KINDS},
    "levels_from_membership": (lambda: levels_from_membership(SAMPLES, grid=10),
                               (SAMPLES.zs, SAMPLES.mus)),
}


@pytest.mark.parametrize("name", RESULTS)
def test_each_result_holds_contiguous_read_only_arrays_of_its_own(name):
    make, sources = RESULTS[name]
    result = make()
    held = [a for s in sources for a in ((s.los, s.his) if isinstance(s, FuzzyNumber) else (s,))]
    for ends in (result.los, result.his):
        assert ends.dtype == np.float64 and ends.ndim == 1
        assert ends.flags.c_contiguous and not ends.flags.writeable
        assert not any(np.shares_memory(ends, a) for a in held)
    assert not np.shares_memory(result.los, result.his)


# -- the proved sites -----------------------------------------------------------

_EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0,
             1e154, -1e154, 1e200, 1e308, -1e308, 1.7976931348623157e308,
             -1.7976931348623157e308]
_ENDS = st.sampled_from(_EXTREMES) | st.floats(-10.0, 10.0) | st.floats(
    allow_nan=False, allow_infinity=False)
_COEFFICIENTS = st.sampled_from([2.0, -0.5, 1e-300, 1e300]) | st.floats(
    -1e3, 1e3).map(lambda q: q or 1.0)
_OFFSETS = st.sampled_from([0.0, -0.0, 1.0, 1e308]) | st.floats(-1e3, 1e3)


@st.composite
def _shapes(draw):
    """A triangular, trapezoidal or crisp literal as (name, parameters),
    its support at most the float range wide."""
    name, count = draw(st.sampled_from([("tri", 3), ("trap", 4), ("crisp", 1)]))
    params = tuple(sorted(draw(st.lists(_ENDS, min_size=count, max_size=count))))
    if not math.isfinite(params[-1] - params[0]):
        params = tuple(p * 0.25 for p in params)
    return name, params


_MAKE = {"tri": triangular, "trap": trapezoidal, "crisp": crisp}
_BUILT_IN = (st.sampled_from([identity(), negation(), reciprocal()])
             | st.builds(linear, _COEFFICIENTS, _OFFSETS)
             | st.builds(hyperbolic, _COEFFICIENTS, _OFFSETS))
_CUSTOM = st.sampled_from([custom(math.atan, "increasing"),
                           custom(lambda x: 1.0 - math.tanh(x), "decreasing")])


def _scanned(op):
    return lambda x, y, f: (correlated_sum if op == "sum" else correlated_product)(
        x, f, RangeMethod(65))


def _oracle_levels(op):
    return lambda x, y, f: levels_from_membership(extend(build_joint(x, f, 101), op), grid=x.k)


# Each operation that stores its result with nested=True, and the
# correlations it is drawn with.
SITES = {
    "std_sum": (lambda x, y, f: standard_sum(x, y), st.none()),
    "std_prod": (lambda x, y, f: standard_product(x, y), st.none()),
    "induced": (lambda x, y, f: induced_number(x, f), _BUILT_IN),
    "corr_sum-linear": (lambda x, y, f: correlated_sum(x, f),
                        st.builds(linear, _COEFFICIENTS, _OFFSETS)
                        | st.sampled_from([identity(), negation()])),
    "corr_prod-hyperbolic": (lambda x, y, f: correlated_product(x, f),
                             st.builds(hyperbolic, _COEFFICIENTS, _OFFSETS)
                             | st.just(reciprocal())),
    "scanned-sum": (_scanned("sum"), _BUILT_IN | _CUSTOM),
    "scanned-product": (_scanned("product"), _BUILT_IN | _CUSTOM),
    "levels-sum": (_oracle_levels("sum"), _BUILT_IN),
    "levels-product": (_oracle_levels("product"), _BUILT_IN),
}


@st.composite
def _cases(draw):
    site = draw(st.sampled_from(sorted(SITES)))
    k = draw(st.sampled_from([1, 2, 7, 100]))
    return site, k, draw(_shapes()), draw(_shapes()), draw(SITES[site][1])


def _outcome(fn):
    try:
        return fn()
    except ValueError as e:
        return str(e)


@settings(max_examples=300, deadline=None)
@given(_cases())
@example(("std_sum", 2, ("crisp", (1.7e308,)), ("crisp", (1.7e308,)), None))
@example(("std_prod", 2, ("tri", (1e200, 2e200, 3e200)), ("tri", (1e200, 2e200, 3e200)), None))
@example(("induced", 2, ("tri", (1e308, 1.2e308, 1.5e308)), ("crisp", (0.0,)), linear(2.0, 0.0)))
@example(("std_sum", 1, ("tri", (-0.0, -0.0, 0.0)), ("tri", (0.0, 0.0, -0.0)), None))
@example(("std_prod", 7, ("tri", (-5e-324, 0.0, 5e-324)), ("trap", (-1.0, -0.0, 0.0, 1.0)), None))
def test_a_proved_result_passes_the_full_nest_test(case):
    """Where a nested=True site finds the support width finite, the ends it
    stores pass the public constructor's nest test and equal what that
    constructor stores, sign bits included; where the width is not finite,
    the operation raises the constructor's message."""
    site, k, xs, ys, f = case
    x, y = (_MAKE[name](*params, grid=k) for name, params in (xs, ys))
    made, handed = FuzzyNumber._made, []

    def spy(los, his, *, nested=False):
        if nested:
            handed.append((los.copy(), his.copy()))
        return made(los, his, nested=nested)

    # past the float range numpy warns before the error that follows (the
    # CLI silences it the same way)
    with mock.patch.object(FuzzyNumber, "_made", spy), np.errstate(all="ignore"):
        try:
            got = SITES[site][0](x, y, f)
        except ValueError as e:
            got = str(e)
    if not handed:  # refused by a domain check before the result was made
        assert isinstance(got, str)
        return
    (los, his), = handed
    with np.errstate(all="ignore"):
        want = _outcome(lambda: FuzzyNumber(los, his))
    if not math.isfinite(float(his[0]) - float(los[0])):
        assert isinstance(want, str) and got == want
        return
    assert los[-1] <= his[-1]
    assert (los[1:] >= los[:-1]).all() and (his[1:] <= his[:-1]).all()
    assert (got.los.tobytes(), got.his.tobytes()) == (want.los.tobytes(), want.his.tobytes())

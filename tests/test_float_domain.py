"""The float domain: an interval, and so the support of every fuzzy number,
has a finite width hi - lo.  Whatever is wider, given or computed, raises
ValueError naming its ends, with no numpy warning (the suite turns a
RuntimeWarning into an error)."""

import contextlib
import io
import math

import pytest

from fuzzyarith import (FuzzyNumber, Interval, check_monotone, closed_form, correlated_product,
                        correlated_sum, from_levels, fuzzy_from_json, identity, induced_number,
                        linear, range_over_interval, standard_product, standard_sum, trapezoidal,
                        triangular)
from fuzzyarith.cli import main

from helpers import wider_than_floats

LO, HI = -1.5e308, 1.6e308


def test_an_interval_wider_than_the_float_range_is_refused():
    with wider_than_floats("interval", LO, HI):
        Interval(LO, HI)
    with wider_than_floats("interval", LO, HI):
        Interval(LO, 0.0)._replace(hi=HI)
    assert Interval(-8e307, 8e307).width == 1.6e308


@pytest.mark.parametrize("make, what", [
    (lambda: FuzzyNumber([LO, 0.0], [HI, 0.0]), "support"),
    (lambda: from_levels([[LO, HI], [0.0, 0.0]]), "support"),
    (lambda: fuzzy_from_json({"K": 1, "levels": [[LO, HI], [0.0, 0.0]]}), "support"),
    (lambda: triangular(LO, 0.0, HI), "triangular support"),
    (lambda: trapezoidal(LO, 0.0, 0.0, HI), "trapezoidal support"),
    (lambda: fuzzy_from_json({"trap": [LO, 0.0, 1.0, HI]}), "trapezoidal support"),
], ids=["FuzzyNumber", "from_levels", "levels-json", "triangular", "trapezoidal", "trap-json"])
def test_a_number_wider_than_the_float_range_is_refused(make, what):
    with wider_than_floats(what, LO, HI):
        make()


@pytest.mark.parametrize("check", [
    lambda iv: check_monotone(linear(1.0), iv),
    lambda iv: range_over_interval(abs, iv),
], ids=["check_monotone", "range_over_interval"])
def test_sampling_an_interval_wider_than_the_float_range_is_refused(check):
    # the interval is refused when it is made, before any sample is taken
    with wider_than_floats("interval", LO, HI):
        check(Interval(LO, HI))


@pytest.mark.parametrize("run, lo, hi", [
    (lambda: standard_sum(triangular(-1e308, 0.0, 0.0), triangular(0.0, 0.0, 1e308)),
     -1e308, 1e308),
    (lambda: standard_product(triangular(-1e154, 0.0, 1e154), triangular(-1e154, 0.0, 1e154)),
     -1.0000000000000001e308, 1.0000000000000001e308),
    (lambda: correlated_sum(triangular(-8e307, 0.0, 8e307), identity()), -1.6e308, 1.6e308),
    (lambda: correlated_product(triangular(-1.0, 0.0, 1.0), linear(1.0, 1.5e308)),
     -1.5e308, 1.5e308),
    (lambda: induced_number(triangular(-1.0, 0.0, 1.0), linear(1.7e308)), -1.7e308, 1.7e308),
    (lambda: closed_form("corr-sum-linear", triangular(-8e307, 0.0, 8e307), 1.0, 0.0),
     -1.6e308, 1.6e308),
], ids=["standard_sum", "standard_product", "correlated_sum", "correlated_product",
        "induced_number", "closed_form"])
def test_a_result_that_grows_wider_than_the_float_range_is_refused(run, lo, hi):
    with wider_than_floats("support", lo, hi):
        run()


@pytest.mark.parametrize("expr, line", [
    ("corr_sum(tri(-8e307, 0, 8e307), identity)",
     "fuzzyarith: corr_sum: support [-1.6e+308, 1.6e+308] is wider than the float range\n"),
    ("tri(-1.5e308, 0, 1.6e308)",
     "fuzzyarith: triangular support [-1.5e+308, 1.6e+308] is wider than the float range\n"),
], ids=["result", "literal"])
def test_eval_of_a_number_wider_than_the_float_range_exits_1_with_one_line(expr, line):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["eval", "-e", expr, "--grid", "2"])
    assert (rc, out.getvalue(), err.getvalue()) == (1, "", line)


@pytest.mark.parametrize("make, message", [
    (lambda: Interval(HI, LO), "interval endpoints out of order: lo=1.6e+308 > hi=-1.5e+308"),
    (lambda: FuzzyNumber([HI, HI], [LO, LO]), "level lower endpoint exceeds upper endpoint"),
    (lambda: FuzzyNumber([HI, LO], [HI, HI]), "levels are not nested"),
    (lambda: triangular(HI, 0.0, LO),
     "triangular parameters must satisfy a <= b <= c, got (1.6e+308, 0.0, -1.5e+308)"),
    (lambda: Interval(-math.inf, HI), "interval endpoints must be finite, got [-inf, 1.6e+308]"),
], ids=["Interval-reversed", "FuzzyNumber-crossed", "FuzzyNumber-unnested", "triangular-reversed",
        "Interval-infinite"])
def test_a_reversed_or_non_finite_wide_input_reports_that_first(make, message):
    with pytest.raises(ValueError) as refused:
        make()
    assert str(refused.value) == message

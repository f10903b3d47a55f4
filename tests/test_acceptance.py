"""End-to-end acceptance gate.

Each numbered criterion runs as one test and prints a single PASS/FAIL
line (visible under ``pytest -s`` or by running this file directly).
"""

import contextlib
import io
import time
from unittest import mock

import numpy as np

from fuzzyarith import (
    CLOSED_FORM_KINDS,
    Interval,
    closed_form,
    correlated_product,
    correlated_sum,
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
    triangular,
)
from fuzzyarith import fuzzy
from fuzzyarith.cli import main as cli_main

from helpers import random_shape, random_sign_definite


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _random_builtin(rng):
    """Random built-in correlation; second value flags a sign-definite
    support requirement."""
    q = float(rng.uniform(0.2, 4.0)) * (1.0 if rng.random() < 0.5 else -1.0)
    r = float(rng.uniform(-3.0, 3.0))
    fam = int(rng.integers(0, 5))
    if fam == 0:
        return linear(q, r), False
    if fam == 1:
        return hyperbolic(q, r), True
    if fam == 2:
        return identity(), False
    if fam == 3:
        return negation(), False
    return reciprocal(), True


def _random_operand(rng, needs_sign_definite):
    if needs_sign_definite:
        return random_sign_definite(rng, side=1 if rng.random() < 0.5 else -1)
    return random_shape(rng)


def test_criterion_1_reference_product_levels():
    a = triangular(-2.0, 0.0, 1.0)
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        std = standard_product(a, a)
        corr = correlated_product(a, identity())
        s0, c0 = std.level(0), corr.level(0)
        inside = s0.contains(c0, tol=1e-9)
        best = min(best, time.perf_counter() - t0)
    ok = (s0.approx_equal(Interval(-2.0, 4.0), tol=1e-12)
          and c0.approx_equal(Interval(0.0, 4.0), tol=1e-9)
          and inside
          and best < 1e-3)
    _report(1, "self product of tri(-2,0,1): standard [-2,4], correlated [0,4], "
               "correlated inside standard", ok,
            f"std={s0}, corr={c0}, best of 5 in {best * 1e6:.0f} us")


def test_criterion_2_correlated_product_inside_standard():
    rng = np.random.default_rng(92)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        f, signed = _random_builtin(rng)
        a = _random_operand(rng, signed)
        corr = correlated_product(a, f)
        std = standard_product(a, induced_number(a, f))
        worst = max(worst,
                    float((std.los - corr.los).max()),
                    float((corr.his - std.his).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 1.0
    _report(2, "200 random correlated products stay inside the standard product "
               "at every level", ok,
            f"worst overhang {worst:.2e}, {elapsed * 1e3:.0f} ms")


def test_criterion_3_sum_coincides_for_increasing_correlations():
    rng = np.random.default_rng(93)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        kind = int(rng.integers(0, 3))
        q = float(rng.uniform(0.2, 4.0))
        r = float(rng.uniform(-3.0, 3.0))
        if kind == 0:
            f, a = linear(q, r), random_shape(rng)
        elif kind == 1:
            f = hyperbolic(-q, r)
            a = random_sign_definite(rng, side=1 if rng.random() < 0.5 else -1)
        else:
            f, a = identity(), random_shape(rng)
        corr = correlated_sum(a, f)
        std = standard_sum(a, induced_number(a, f))
        worst = max(worst,
                    float(np.abs(corr.los - std.los).max()),
                    float(np.abs(corr.his - std.his).max()))
    # decreasing correlation, same inputs: the two sums genuinely differ
    a = triangular(1.0, 2.0, 3.0)
    corr = correlated_sum(a, negation())
    std = standard_sum(a, induced_number(a, negation()))
    gap_shown = (corr.level(0) == Interval(0.0, 0.0)
                 and std.level(0) == Interval(-2.0, 2.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and gap_shown and elapsed < 1.0
    _report(3, "200 random increasing correlations: correlated and standard sums "
               "coincide; negation shows the gap", ok,
            f"worst gap {worst:.2e}, counterexample [0,0] vs [-2,2], "
            f"{elapsed * 1e3:.0f} ms")


def test_criterion_4_additive_and_multiplicative_inverses_exact():
    rng = np.random.default_rng(94)
    t0 = time.perf_counter()
    ok = True
    for _ in range(50):
        a = random_sign_definite(rng, side=1 if rng.random() < 0.5 else -1)
        s = correlated_sum(a, negation())
        p = correlated_product(a, reciprocal())
        ok = ok and bool(np.all(s.los == 0.0) and np.all(s.his == 0.0))
        ok = ok and bool(np.all(p.los == 1.0) and np.all(p.his == 1.0))
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 0.1
    _report(4, "50 random operands: negation sum is exactly [0,0] and reciprocal "
               "product exactly [1,1] at every level", ok,
            f"{elapsed * 1e3:.1f} ms")


def _closed_form_case(rng, kind):
    q = float(rng.uniform(0.2, 4.0)) * (1.0 if rng.random() < 0.5 else -1.0)
    r = float(rng.uniform(-3.0, 3.0))
    side = 1 if rng.random() < 0.5 else -1
    if kind in ("std-sum-linear", "std-prod-linear", "corr-sum-linear"):
        a = random_shape(rng)
    elif kind == "corr-prod-linear":
        # shortcut is exact only with co-monotone terms: r = 0, or a
        # sign-definite support with r matching the sign of q * side
        if rng.random() < 0.25:
            a, r = random_shape(rng), 0.0
        else:
            a = random_sign_definite(rng, side)
            r = float(np.sign(q * side)) * float(rng.uniform(0.2, 3.0))
    else:
        a = random_sign_definite(rng, side)
    return a, q, r


def _closed_form_reference(kind, a, q, r):
    f = linear(q, r) if "linear" in kind else hyperbolic(q, r)
    if kind.startswith("std-sum"):
        return standard_sum(a, induced_number(a, f))
    if kind.startswith("std-prod"):
        return standard_product(a, induced_number(a, f))
    if kind.startswith("corr-sum"):
        return correlated_sum(a, f)
    return correlated_product(a, f)


def test_criterion_5_closed_forms_match_generic_engine():
    rng = np.random.default_rng(95)
    t0 = time.perf_counter()
    worst = 0.0
    for kind in CLOSED_FORM_KINDS:
        for _ in range(100):
            a, q, r = _closed_form_case(rng, kind)
            fast = closed_form(kind, a, q, r)
            want = _closed_form_reference(kind, a, q, r)
            worst = max(worst,
                        float(np.abs(fast.los - want.los).max()),
                        float(np.abs(fast.his - want.his).max()))
    # the reciprocal-shaped correlated sum has no shortcut on purpose;
    # its support must still come out as [4,5] three independent ways
    no_shortcut = "corr-sum-hyperbolic" not in CLOSED_FORM_KINDS
    a = triangular(1.0, 2.0, 3.0)
    engine = correlated_sum(a, hyperbolic(4.0)).level(0)
    searched = range_over_interval(lambda x: x + 4.0 / x, Interval(1.0, 3.0))
    report = oracle_check(a, hyperbolic(4.0), "sum")
    want = Interval(4.0, 5.0)
    triangulated = (engine.approx_equal(want, tol=1e-9)
                    and searched.approx_equal(want, tol=1e-9)
                    and report.levels[0].right.hausdorff(want) <= report.tolerance)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and no_shortcut and triangulated and elapsed < 2.0
    _report(5, "700 random closed-form evaluations match the engine; the "
               "reciprocal-shaped sum [4,5] is cross-checked instead", ok,
            f"worst gap {worst:.2e}, {elapsed * 1e3:.0f} ms")


def test_criterion_6_oracle_first_order_convergence():
    t0 = time.perf_counter()
    base = triangular(1.0, 2.0, 3.0)
    alt = triangular(-2.0, 0.0, 1.0)
    configs = [(base, f) for f in (linear(2.0, 1.0), hyperbolic(4.0), identity(),
                                   negation(), reciprocal())]
    configs.append((alt, identity()))
    ok = True
    worst_ratio = 0.0
    for a, f in configs:
        for op in ("sum", "product"):
            fine = oracle_check(a, f, op, n=2001)
            coarse = oracle_check(a, f, op, n=501)
            ok = ok and fine.passed
            # both distances collapse to float noise when the output is
            # constant; the halving check means nothing down there
            ok = ok and (coarse.max_hausdorff >= 2.0 * fine.max_hausdorff
                         or fine.max_hausdorff <= 1e-12)
            worst_ratio = max(worst_ratio, fine.max_hausdorff / fine.tolerance)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    _report(6, "oracle at N=2001 stays within 5w/N of the engine for every "
               "built-in correlation and halves its error from N=501", ok,
            f"worst distance at {worst_ratio:.0%} of tolerance, "
            f"{elapsed * 1e3:.0f} ms")


def test_criterion_7_every_result_is_nested():
    rng = np.random.default_rng(97)
    t0 = time.perf_counter()
    ok = True
    repaired = 0
    for i in range(1000):
        pick = i % 5
        if pick < 2:
            op = (standard_sum, standard_product)[pick]
            args = (random_shape(rng), random_shape(rng))
        else:
            f, signed = _random_builtin(rng)
            op = (correlated_sum, correlated_product, induced_number)[pick - 2]
            args = (_random_operand(rng, signed), f)
        # the constructor stores a family as given only when it is exactly
        # nested, and hands any other to the repair
        with mock.patch.object(fuzzy, "_checked_and_repaired",
                               wraps=fuzzy._checked_and_repaired) as repair:
            op(*args)
        repaired += repair.called
    elapsed = time.perf_counter() - t0
    ok = repaired == 0 and elapsed < 1.0
    _report(7, "1000 randomized operation results are all exactly nested "
               "without the constructor's repair", ok,
            f"{repaired} repaired, {elapsed * 1e3:.0f} ms")


def _run_cli(args):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli_main(args)
    return rc, out.getvalue()


def test_criterion_8_cli_conformance():
    rc1, out1 = _run_cli(["eval", "-e", "corr_sum(tri(1,2,3), negation)",
                          "--alphas", "0,0.5,1"])
    want1 = ["alpha\tlevel", "0\t[0, 0]", "0.5\t[0, 0]", "1\t[0, 0]"]
    rc2, out2 = _run_cli(["table", "-e", "corr_prod(tri(-2,0,1), identity)",
                          "--alphas", "0"])
    want2 = ["alpha\tengine\tclosed_form\tstandard", "0\t[0, 4]\t[0, 4]\t[-2, 4]"]
    rc3, out3 = _run_cli(["eval", "-e", "corr_sum(tri(1,2,3), linear(2,1))",
                          "--alphas", "0", "--format", "csv"])
    want3 = ["alpha,lo,hi", "0,4,10"]
    rc4, _ = _run_cli(["eval", "-e", "corr_sum(tri(1,2,3) negation)"])
    rc5, _ = _run_cli(["eval", "-e", "tri(3,2,1)"])
    rc6, _ = _run_cli(["eval", "-e", "corr_sum(tri(-1,0,1), hyperbolic(4,0))"])
    ok = (rc1 == 0 and out1.splitlines() == want1
          and rc2 == 0 and out2.splitlines() == want2
          and rc3 == 0 and out3.splitlines() == want3
          and rc4 == 1 and rc5 == 1 and rc6 == 2)
    _report(8, "CLI reproduces the documented rows byte for byte and uses exit "
               "codes 1/2 for bad expressions and domain violations", ok,
            f"exits: {rc1},{rc2},{rc3} ok and {rc4},{rc5},{rc6} for errors")


ALL_CRITERIA = [
    test_criterion_1_reference_product_levels,
    test_criterion_2_correlated_product_inside_standard,
    test_criterion_3_sum_coincides_for_increasing_correlations,
    test_criterion_4_additive_and_multiplicative_inverses_exact,
    test_criterion_5_closed_forms_match_generic_engine,
    test_criterion_6_oracle_first_order_convergence,
    test_criterion_7_every_result_is_nested,
    test_criterion_8_cli_conformance,
]


if __name__ == "__main__":
    failures = 0
    for check in ALL_CRITERIA:
        try:
            check()
        except AssertionError:
            failures += 1
    raise SystemExit(1 if failures else 0)

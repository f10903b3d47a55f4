"""The benchmark's tracer rebinds library names; these must keep existing
and be called, or a traced benchmark run fails or misses a layer."""

import math
import sys
import types
from pathlib import Path

import fuzzyarith
import fuzzyarith.cli  # loaded, so that the tracer rebinds its names too
from fuzzyarith import (RangeMethod, arithmetic, correlation, custom, fuzzy, hyperbolic,
                        interval, linear, oracle, triangular)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    # executed from source, so that no bytecode cache is left in perfbench/
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_benchmark_tracer_records_the_layers_and_restores_every_name():
    tracing = _load_tracing()
    owners = (fuzzy.FuzzyNumber, interval.Interval, correlation, arithmetic, oracle,
              fuzzyarith, sys.modules["fuzzyarith.cli"])
    before = [dict(vars(owner)) for owner in owners]
    a = triangular(1.0, 2.0, 3.0, grid=20)
    with tracing.instrument(tracing.Tracer()) as tracer:
        summed = fuzzyarith.correlated_sum(a, custom(math.exp, "increasing"))
        fuzzyarith.oracle_check(a, hyperbolic(4.0), "sum", n=501)
        fuzzyarith.compare_levels(summed, summed)
    names = {span[0] for span in tracer.spans}
    assert {"correlation.monotone_check", "oracle.build_joint", "oracle.extend",
            "oracle.levels_from_membership", "oracle.report",
            "arithmetic.compare_levels"} <= names
    for owner, saved in zip(owners, before):
        now = vars(owner)
        assert now.keys() == saved.keys(), owner
        assert all(now[k] is v for k, v in saved.items()), owner


def test_the_oracle_stages_are_internal_under_the_names_the_tracer_patches():
    # the tracer rebinds oracle.build_joint, oracle.extend and
    # oracle.levels_from_membership, and oracle_check looks them up in its module
    stages = {"JointDistribution", "SampledMembership", "build_joint", "extend",
              "levels_from_membership"}
    assert not stages & set(fuzzyarith.__all__)
    assert not stages & set(vars(fuzzyarith))
    assert all(callable(getattr(oracle, name)) for name in stages)


def test_benchmark_tracer_names_a_requested_scan_numeric():
    # corr_span reads RangeMethod.mode, a class constant kept for it
    tracing = _load_tracing()
    a = triangular(1.0, 2.0, 3.0, grid=20)
    for method, span in ((RangeMethod(), "arithmetic.corr_numeric"),
                         (None, "arithmetic.corr_analytic")):
        with tracing.instrument(tracing.Tracer()) as tracer:
            fuzzyarith.correlated_sum(a, linear(2.0, 1.0), method)
        names = {s[0] for s in tracer.spans}
        assert names & {"arithmetic.corr_numeric", "arithmetic.corr_analytic"} == {span}

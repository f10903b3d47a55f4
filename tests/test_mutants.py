"""Mutants that the suite must catch: each case patches one target with a
deliberately broken copy and asserts that the test it names then fails.

A mutant is the target's own source, as it is, with one or more textual edits,
and each edit must apply exactly once, so a case whose target has been rewritten
fails until it is brought up to date instead of passing on code it no longer
describes.  A Hypothesis test is run through its inner test on an ``@example``
the mutant fails, so that no case depends on the search or on shrinking.  Each
case first runs the same test on the code as it is, which must pass.  The
mutants the suite leaves alive are listed in UNKILLED, each with the reason it
need not fail.
"""

import inspect
import math
import textwrap
import types
from unittest import mock

import numpy as np
import pytest

import test_arithmetic
import test_fuzzy
import test_oracle
from fuzzyarith import FuzzyNumber, arithmetic, cli, fuzzy, linear, oracle, triangular


def _edited(function, *edits):
    """function rebuilt from its source with each (old, new) of edits
    applied, in the globals of its module."""
    source = textwrap.dedent(inspect.getsource(function))
    for old, _ in edits:
        assert source.count(old) == 1, f"{old!r} is not in {function.__qualname__} exactly once"
    for old, new in edits:
        source = source.replace(old, new)
    namespace = dict(function.__globals__)
    exec(compile(source, inspect.getsourcefile(function), "exec"), namespace)
    return namespace[function.__name__]


def _in_module(mutant):
    """mutant reading its module's own globals, not a copy, so that a name a
    test patches in the module reaches it."""
    return types.FunctionType(mutant.__code__, vars(inspect.getmodule(mutant)))


def _extend(*edits):
    return lambda: _edited(oracle.extend, *edits)


def _patch_extend(mutant):
    # oracle_check looks extend up in its module, the tests in theirs
    return [mock.patch.object(oracle, "extend", mutant),
            mock.patch.object(test_oracle, "extend", mutant)]


def _build_joint(*edits):
    # oracle_check looks build_joint up in its module, the tests in theirs
    return (lambda: _edited(oracle.build_joint, *edits),
            lambda mutant: [mock.patch.object(module, "build_joint", mutant)
                            for module in (oracle, test_oracle)])


def _patch(owner, name):
    """Patch the mutant in as owner.name, where the test looks it up."""
    return lambda mutant: [mock.patch.object(owner, name, mutant)]


def _in_arithmetic(name, *edits):
    # the tests reach these through the public operations
    return lambda: _edited(getattr(arithmetic, name), *edits), _patch(arithmetic, name)


def _levels_from_membership(*edits):
    return (lambda: _edited(oracle.levels_from_membership, *edits),
            _patch(test_oracle, "levels_from_membership"))


_MATCHES_REFERENCE = test_oracle.test_extend_matches_the_sort_and_merge_reference
_MATCHES_DENSE_MASK = test_oracle.test_levels_from_membership_matches_dense_mask
_SIGN_TABLE = test_arithmetic.test_correlated_product_sign_table
_FOUR_PRODUCTS = test_arithmetic.test_standard_product_reduces_its_four_products_in_order
_FOUR_CANDIDATES = test_arithmetic.test_closed_form_std_prod_kinds_reduce_their_four_candidates
_RESAMPLE = test_fuzzy.test_resample_reads_the_levels_through_alpha_cuts
_LOCAL_MINIMA = test_arithmetic.test_local_minima_match_their_definition
_TERMWISE = test_oracle.test_the_termwise_reading_is_the_standard_sum_closed_form
_MONOTONE_COMPOSITIONS = test_arithmetic.test_numeric_engine_on_random_monotone_compositions
_CACHED = "@lru_cache(maxsize=GRID_CACHE_SIZE)\n"
_ZERO_CUT = ("if y0 == 0.0:", "if True:")
_METHOD_CHECK = ("    _check_method(method)\n", "")
_FLOOR = ("    if n < MIN_SAMPLES:\n"
          '        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {n}")\n')
_BUILD = "    joint = build_joint(a, f, n)\n"


def _uncached_grids():
    return (_edited(fuzzy._grid.__wrapped__, (_CACHED, "")),
            _in_module(_edited(fuzzy._grid_floats.__wrapped__, (_CACHED, ""))))


def _patch_grids(mutants):
    # every module that imported _grid or _grid_floats looks it up in its own globals
    grid, floats = mutants
    return [mock.patch.object(module, name, mutant)
            for name, mutant in (("_grid", grid), ("_grid_floats", floats))
            for module in (fuzzy, arithmetic, oracle, cli) if hasattr(module, name)]


# standard_product's four corner products, in order and reversed
_CORNERS = "a.los * b.los, a.los * b.his, a.his * b.los,\n" + " " * 40 + "a.his * b.his"
_REVERSED = "a.his * b.his, a.his * b.los, a.los * b.his,\n" + " " * 40 + "a.los * b.los"

# (name, the mutant, how it is patched in, the test it must fail, that test's arguments)
MUTANTS = [
    ("the one sample is z.min(), not the first minimum",
     _extend(("z[z.argmin()]", "z.min()")), _patch_extend,
     _MATCHES_REFERENCE.hypothesis.inner_test, (test_oracle.SIGNED_ZERO_CASE,)),
    ("a step of exactly MERGE_WINDOW is sorted",
     _extend(("most <= MERGE_WINDOW", "most < MERGE_WINDOW")), _patch_extend,
     _MATCHES_REFERENCE.hypothesis.inner_test, (test_oracle.EXACT_WINDOW_CASE,)),
    ("every z that is not monotone is one group",
     _extend(("if -MERGE_WINDOW <= least and most <= MERGE_WINDOW:", "if True:")), _patch_extend,
     _MATCHES_REFERENCE.hypothesis.inner_test, (test_oracle.JITTER_CASE,)),
    ("extend forms z in an array of its own, not in the spent ys",
     _extend(("out=ys)", "out=None)")), _patch_extend,
     test_oracle.test_oracle_check_peaks_at_a_few_arrays_of_n_floats,
     (*test_oracle._LINEAR, "sum", 3.7)),
    ("extend lets a z that is not finite through",
     _extend(("if not np.isfinite(z).all():", "if False:")), _patch_extend,
     test_oracle.test_extend_refuses_a_z_that_is_not_finite_without_a_warning,
     (([0.0, 1.0], [1.0, 0.5], [math.inf, math.inf]), "sum", "^g gives inf at x = 0, ")),
    ("build_joint lets a support too narrow for n distinct samples through",
     *_build_joint(("if not (xs[1:] > xs[:-1]).all():", "if False:")),
     test_oracle.test_build_joint_names_a_support_too_narrow_for_n_distinct_samples, ()),
    ("build_joint leaves an f past the float range to its values",
     *_build_joint(("    f.require_finite_on(sup)\n", "")),
     test_oracle.test_an_f_past_the_float_range_is_a_domain_error_before_any_warning,
     (triangular(1e308, 1.2e308, 1.5e308, grid=2), linear(-2.0, 0.0))),
    ("oracle_check tests the sample floor after the engine runs",
     lambda: _edited(oracle.oracle_check, (_FLOOR, ""), (_BUILD, _FLOOR + _BUILD)),
     _patch(test_oracle, "oracle_check"),
     test_oracle.test_oracle_check_enforces_the_sample_floor_before_the_engine_runs, ()),
    ("oracle_check holds its joint while the levels are rebuilt",
     lambda: _edited(oracle.oracle_check, ("    del joint  # only s is read from here on\n", "")),
     _patch(test_oracle, "oracle_check"),
     test_oracle.test_oracle_check_peaks_at_a_few_arrays_of_n_floats,
     (*test_oracle._LINEAR, "product", 4.3)),
    ("the slack is MERGE_WINDOW below the shortfall, not above it",
     lambda: _edited(oracle._auto_delta, ("short + MERGE_WINDOW", "short - MERGE_WINDOW")),
     _patch(oracle, "_auto_delta"),
     test_oracle.test_a_core_midway_between_two_samples_keeps_both_in_the_top_level,
     test_oracle.MIDWAY_CASES[0]),
    ("the rise is searched without its running maximum",
     *_levels_from_membership(("if not (rise[1:] >= rise[:-1]).all():", "if False:")),
     _MATCHES_DENSE_MASK.hypothesis.inner_test, (test_oracle.SORTED_RUN_CASES[1],)),
    ("the fall is searched without its running maximum",
     *_levels_from_membership(("if (fall[1:] <= fall[:-1]).all() else", "if True else")),
     _MATCHES_DENSE_MASK.hypothesis.inner_test, (test_oracle.SORTED_RUN_CASES[2],)),
    ("the correlated operations take any method",
     *_in_arithmetic("_correlated", _METHOD_CHECK),
     test_arithmetic.test_a_method_that_is_neither_none_nor_a_range_method_is_a_type_error,
     (False,)),
    ("range_over_interval takes any method",
     lambda: _edited(arithmetic.range_over_interval, _METHOD_CHECK),
     _patch(test_arithmetic, "range_over_interval"),
     test_arithmetic.test_a_method_that_is_neither_none_nor_a_range_method_is_a_type_error,
     (0,)),
    ("a product across zero states g(0) whatever f(0) is",
     *_in_arithmetic("_route", _ZERO_CUT), _SIGN_TABLE,
     (triangular(-1.0, 0.0, 2.0, grid=20), 1.0, 3.0, False)),
    ("a product across zero states g(0) whatever f(0) is, against the scan",
     *_in_arithmetic("_route", _ZERO_CUT), _MONOTONE_COMPOSITIONS.hypothesis.inner_test,
     (test_arithmetic.ZERO_CUT_CASE,)),
    ("an f that is zero at one end and negative at the other has no sign",
     *_in_arithmetic("_one_sign", ("u <= 0.0", "u < 0.0")),
     _SIGN_TABLE, (test_arithmetic._POS, -1.0, 1.0, True)),
    ("a point support is scanned",
     *_in_arithmetic("_range_levels", ("his[0] > los[0]", "his[0] >= los[0]")),
     test_arithmetic.test_a_crisp_operand_is_not_scanned, ()),
    ("standard_product reduces its four products in reverse order",
     lambda: _edited(arithmetic.standard_product, (_CORNERS, _REVERSED)),
     _patch(test_arithmetic, "standard_product"),
     _FOUR_PRODUCTS.hypothesis.inner_test, ([-1.0, -0.0, 0.0, 1.0], [-1.0, 0.0, 1.0], 2)),
    ("_envelope reduces its four arrays in reverse order",
     *_in_arithmetic("_envelope", ("(c0, c1, c2, c3):", "(c3, c2, c1, c0):")),
     _FOUR_CANDIDATES.hypothesis.inner_test,
     ([-1.0, -0.0, 0.0, 1.0], 2, "std-prod-linear", -1.0, 0.0)),
    ("a run of local minima is not collapsed to its first index",
     *_in_arithmetic("_local_min_indices", ("low[1:] &= ~low[:-1]", "pass")),
     _LOCAL_MINIMA, (np.random.default_rng(20250814),)),
    ("a local minimum must lie below its left neighbour",
     *_in_arithmetic("_local_min_indices", ("mid <= padded[:-2]", "mid < padded[:-2]")),
     _LOCAL_MINIMA, (np.random.default_rng(20250814),)),
    ("rows are built with the collector running",
     *_in_arithmetic("_level_rows", ("    gc.disable()\n", "")),
     test_arithmetic.test_rows_are_built_with_the_collector_paused, ()),
    ("resample interpolates the stored ends with np.interp",
     lambda: _edited(FuzzyNumber.resample, (
         "*self.alpha_cuts(_grid(k))",
         "*(np.interp(_grid(k), _grid(self.k), e) for e in (self.los, self.his))")),
     _patch(FuzzyNumber, "resample"),
     _RESAMPLE.hypothesis.inner_test, (triangular(-1.3, 0.7, 2.9, grid=7), 11)),
    ("the constructor stores the caller's array of lower ends",
     lambda: _edited(FuzzyNumber.__init__, ("np.array(los, ", "np.asarray(los, ")),
     _patch(FuzzyNumber, "__init__"),
     test_fuzzy.test_exactly_nested_ends_are_stored_as_copies.hypothesis.inner_test,
     (test_fuzzy.SIGNED_ZERO_ENDS,)),
    # the DeprecationWarning is attributed to fuzzyarith, which pyproject.toml's
    # filters turn into an error
    ("from_levels stacks its rows with the deprecated np.row_stack",
     lambda: _edited(fuzzy.from_levels, ("np.asarray(levels, dtype=float)",
                                         "np.row_stack(levels).astype(float)")),
     _patch(test_fuzzy, "from_levels"), test_fuzzy.test_from_levels_round_trip, ()),
    ("oracle_check reads the standard product as its termwise reading",
     lambda: _edited(oracle.oracle_check,
                     ('"std-sum-hyperbolic", a', '"std-prod-hyperbolic", a')),
     _patch(test_oracle, "oracle_check"), _TERMWISE.hypothesis.inner_test,
     test_oracle.TERMWISE_CASE),
    ("the constructor checks and repairs every family",
     lambda: _in_module(_edited(fuzzy._nested, ("return los, his",
                                                "return _checked_and_repaired(los, his)"))),
     _patch(fuzzy, "_nested"),
     test_fuzzy.test_a_side_as_wide_as_the_float_range_ends_at_its_parameter, ()),
    ("the grid and its floats are built on every call", _uncached_grids, _patch_grids,
     test_arithmetic.test_compare_levels_reads_its_alphas_from_the_grid_built_once, (7,)),
    ("the slot table alone is built on every call",
     lambda: _edited(fuzzy._slot_steps.__wrapped__, (_CACHED, "")), _patch(fuzzy, "_slot_steps"),
     test_fuzzy.test_each_grid_is_built_once_per_k, (3,)),
    ("membership reads 0.5 off the support",
     lambda: _edited(FuzzyNumber.membership, ("off[undone] = 0.0", "off[undone] = 0.5")),
     _patch(FuzzyNumber, "membership"), test_fuzzy.test_membership_of_nan_raises, ()),
]

# Mutants that the suite leaves alive, each with the reason it need not fail:
# (target, text, its replacement, reason).  The test below keeps each edit
# applying exactly once, so that the list follows its targets.
UNKILLED = [
    (arithmetic._closed_levels, "if q > 0:", "if q >= 0:",
     "equivalent: closed_form, its one caller, takes q through _coefficients, "
     "which refuses q = 0"),
    (fuzzy._curve_slots, "rise > 0.0", "rise >= 0.0",
     "equivalent: a flat step's slot holds no point, so its step is never read"),
    (arithmetic._golden_min, "if yc < yd:", "if yc <= yd:",
     "a tie-break: on yc == yd both brackets hold a minimum of a g unimodal "
     "on [a, b], and the best point seen is returned either way; the two "
     "differ by an ulp in the level ends of 4, 9 and 9 of the 100 "
     "engine-numeric operations of seeds 1-3, in either direction"),
]


@pytest.mark.parametrize("name, make, patches, test, args", MUTANTS,
                         ids=[m[0] for m in MUTANTS])
def test_the_named_test_fails_on_the_mutant(name, make, patches, test, args):
    test(*args)
    mutant = make()
    for patch in patches(mutant):
        patch.start()
    try:
        # a warning fails a test where pyproject.toml's filters make it an error
        with pytest.raises((AssertionError, pytest.fail.Exception, Warning)):
            test(*args)
    finally:
        mock.patch.stopall()


@pytest.mark.parametrize("target, old, new, reason", UNKILLED,
                         ids=[f"{m[0].__name__}: {m[1]}" for m in UNKILLED])
def test_each_unkilled_mutant_still_applies_to_its_target(target, old, new, reason):
    _edited(target, (old, new))

"""Mutants that the suite must catch: each case patches one target with a
deliberately broken copy and asserts that the test it names then fails.

A mutant is the target's own source with one textual edit, and the edit must
apply exactly once, so a case whose target has been rewritten fails until it is
brought up to date instead of passing on code it no longer describes.  A
Hypothesis test is run through its inner test on an ``@example`` the mutant
fails, so that no case depends on the search or on shrinking.  Each case first
runs the same test on the code as it is, which must pass.
"""

import inspect
import textwrap
from unittest import mock

import numpy as np
import pytest

import test_oracle
from fuzzyarith import oracle
from fuzzyarith.arithmetic import _nan_error
from fuzzyarith.oracle import MERGE_WINDOW, JointDistribution, SampledMembership, _check_op


def _edited(function, old, new):
    """function rebuilt from its source with old replaced by new, in the
    globals of its module."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, f"{old!r} is not in {function.__qualname__} exactly once"
    namespace = dict(function.__globals__)
    exec(compile(source.replace(old, new), inspect.getsourcefile(function), "exec"), namespace)
    return namespace[function.__name__]


def _extend_holding_every_array(joint, op):
    """extend as it was before it dropped each array of n floats after its
    last read: z, the order and the sorted arrays all live to the end."""
    _check_op(op)
    z = joint.xs + joint.ys if op == "sum" else joint.xs * joint.ys
    if z.size > 1:
        steps = np.diff(z)
        if (steps > MERGE_WINDOW).all():
            return SampledMembership(zs=z, mus=joint.mu)
        if (steps < -MERGE_WINDOW).all():
            return SampledMembership(zs=z[::-1], mus=joint.mu[::-1])
    order = np.argsort(z, kind="stable")
    zs = z[order]
    mus = joint.mu[order]
    if np.isnan(zs[-1:]).any():
        raise _nan_error(joint.xs, z, "oracle sample", (joint.xs[0], joint.xs[-1]))
    apart = np.diff(zs) > MERGE_WINDOW
    if apart.all():
        return SampledMembership(zs=zs, mus=mus)
    first = np.flatnonzero(np.concatenate(([True], apart)))
    return SampledMembership(zs=zs[first], mus=np.maximum.reduceat(mus, first))


def _extend(old, new):
    return lambda: _edited(oracle.extend, old, new)


def _patch_extend(mutant):
    # oracle_check looks extend up in its module, the tests in theirs
    return [mock.patch.object(oracle, "extend", mutant),
            mock.patch.object(test_oracle, "extend", mutant)]


def _patch_order_test(mutant):
    return [mock.patch.object(JointDistribution, "__post_init__", mutant)]


_MATCHES_REFERENCE = test_oracle.test_extend_matches_the_sort_and_merge_reference
_REJECTS_UNSORTED = (
    test_oracle.test_joint_distribution_rejects_unsorted_xs_and_memberships_off_the_unit_interval)

# (name, the mutant, how it is patched in, the test it must fail, that test's arguments)
MUTANTS = [
    ("the one sample is z.min(), not the first minimum",
     _extend("z[z.argmin()]", "z.min()"), _patch_extend,
     _MATCHES_REFERENCE.hypothesis.inner_test, (test_oracle.SIGNED_ZERO_CASE,)),
    ("a step of exactly MERGE_WINDOW is sorted",
     _extend("most <= MERGE_WINDOW", "most < MERGE_WINDOW"), _patch_extend,
     _MATCHES_REFERENCE.hypothesis.inner_test, (test_oracle.EXACT_WINDOW_CASE,)),
    ("every z that is not monotone is one group",
     _extend("if -MERGE_WINDOW <= least and most <= MERGE_WINDOW:", "if True:"), _patch_extend,
     _MATCHES_REFERENCE.hypothesis.inner_test, (test_oracle.JITTER_CASE,)),
    ("a largest membership of a zero is not left to the sort",
     _extend("if top > 0.0:", "if True:"), _patch_extend,
     _MATCHES_REFERENCE.hypothesis.inner_test, (test_oracle.ZERO_MEMBERSHIP_CASE,)),
    ("extend holds every array of n floats to the end",
     lambda: _extend_holding_every_array, _patch_extend,
     test_oracle.test_oracle_check_peaks_at_a_few_arrays_of_n_floats,
     (*test_oracle._LINEAR, "product", 7.5)),
    ("JointDistribution lets tied xs through",
     lambda: _edited(JointDistribution.__post_init__, "self.xs[1:] > self.xs[:-1]",
                     "self.xs[1:] >= self.xs[:-1]"), _patch_order_test,
     _REJECTS_UNSORTED.hypothesis.inner_test, ((np.array([0.0, 1.0, 1.0]), np.zeros(3)),)),
]


@pytest.mark.parametrize("name, make, patches, test, args", MUTANTS,
                         ids=[m[0] for m in MUTANTS])
def test_the_named_test_fails_on_the_mutant(name, make, patches, test, args):
    test(*args)
    mutant = make()
    for patch in patches(mutant):
        patch.start()
    try:
        with pytest.raises((AssertionError, pytest.fail.Exception)):
            test(*args)
    finally:
        mock.patch.stopall()


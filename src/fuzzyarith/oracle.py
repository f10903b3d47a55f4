"""Brute-force reference results for the correlated operations.

Because the joint possibility of (A, f(A)) lives on the graph of f, the
sup-of-min extension collapses to a one-dimensional sweep: sample x over
the support of A, carry the membership of x to z = x + f(x) or x * f(x),
and rebuild level sets from the sampled membership.  The error of the
reconstruction shrinks like the sample spacing, which is what makes the
oracle usable as an independent check of the range engine.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property

import numpy as np

from .arithmetic import (BINARY_OPS, LevelResult, RangeMethod, _hausdorff, _nan_error, _route,
                         closed_form, compare_levels, correlated_product, correlated_sum)
from .correlation import CorrelationFunction
from .errors import DomainError
from .fuzzy import FuzzyNumber, _grid, _grid_floats, _integer, _linspace

DEFAULT_SAMPLES = 2001
MIN_SAMPLES = 101

# Two z samples closer than this are treated as the same output value and
# keep the larger membership.
MERGE_WINDOW = 1e-12


class JointDistribution(namedtuple("JointDistribution", ("xs", "mu", "ys"))):
    """Graph samples of the coupled pair, as build_joint makes them: points
    (xs[i], ys[i]) with possibility mu[i], ys = f(xs), xs strictly
    increasing and every mu in [0, 1] with a positive peak."""

    __slots__ = ()


class SampledMembership(namedtuple("SampledMembership", ("zs", "mus"))):
    """Output samples zs, strictly increasing, with their memberships, as
    extend returns them."""

    __slots__ = ()


def build_joint(a: FuzzyNumber, f: CorrelationFunction, n: int) -> JointDistribution:
    """Sample the graph coupling of (A, f(A)) at n equispaced support points,
    for oracle_check, which has already checked n and, in its engine call,
    f on the support.

    A crisp operand collapses to the single sample it carries.  The sample
    points are always a 1-d array, so their memberships are a.membership's
    float array as returned.  xs and ys are writeable arrays of their own,
    which extend writes: f.values makes a fresh array for every f, q*x + r,
    q/x + r, a named alias's +x, -x or 1/x, or a custom f's values.  A
    support too narrow to hold n distinct floats raises ValueError naming
    the support and n, and a linear or hyperbolic f that passes the float
    range at an end of the support raises DomainError naming f and the
    support.
    """
    sup = a.support
    if sup.width == 0.0:
        xs = np.array([sup.lo])
    else:
        xs = _linspace(sup.lo, sup.hi, n)
        if not (xs[1:] > xs[:-1]).all():
            raise ValueError(f"support [{sup.lo!r}, {sup.hi!r}] is too narrow for "
                             f"n = {n} distinct samples")
    mu = a.membership(xs)
    f.require_finite_on(sup)
    return JointDistribution(xs, mu, f.values(xs))


def extend(joint: JointDistribution, op: str) -> SampledMembership:
    """Push the joint samples through the operation "sum" or "product",
    spending the joint.

    Outputs are sorted by z; samples whose z values collide within
    MERGE_WINDOW are collapsed, keeping the largest membership.  A z that
    rises (or falls) by more than MERGE_WINDOW at every step is returned as
    it is (or reversed), with no sort and no merge; one that moves by at
    most MERGE_WINDOW at every step is one sample, its first minimum with
    the largest membership, found with no sort either.  That membership is
    positive, so no tie of signed zeros is left for a sort to order: the
    samples of a support of non-zero width include interior points, whose
    membership is positive, and a crisp operand's one sample has
    membership 1.  These cost O(n); any other z is sorted once, stably, in
    O(n log n), and merged only where two neighbours collide.  A z that is
    not finite raises DomainError naming the x of its first NaN sample, or
    where it has none, of its first infinite one, with no numpy warning.

    So that fewer arrays of n floats are live at once, z is formed in
    joint.ys, and its steps and its sorted values are written into
    joint.xs, its sorted memberships into z's buffer; only joint.mu is kept
    as it was.  xs and ys must be writeable arrays of their own, as
    build_joint makes them.
    """
    xs, mu, ys = joint
    # z may pass the float range, refused below, and its steps may too:
    # an overflowed step is ±inf, which compares right
    with np.errstate(over="ignore", invalid="ignore"):
        z = (np.add if op == "sum" else np.multiply)(xs, ys, out=ys)
        if not np.isfinite(z).all():
            raise _not_finite_error(xs, z)
        # the steps of z and then its sorted values go into the spent xs
        if z.size > 1:
            steps = np.subtract(z[1:], z[:-1], out=xs[:-1])
            least = steps.min()
            if least > MERGE_WINDOW:
                return SampledMembership(z, mu)
            most = steps.max()
            if most < -MERGE_WINDOW:
                return SampledMembership(z[::-1], mu[::-1])
            # a z that moves by at most MERGE_WINDOW at every step is one group: between
            # sorted neighbours a < b some step goes from a or below to b or above, so no
            # sorted step passes the window either, as rounding is monotone.  The stable
            # sort's first sample is the first minimum, signed zero and all
            if -MERGE_WINDOW <= least and most <= MERGE_WINDOW:
                return SampledMembership(np.array([z[z.argmin()]]), np.array([mu.max()]))
        order = np.argsort(z, kind="stable")
        # with the default mode="raise" take buffers its output; argsort's indices are in range
        zs = z.take(order, out=xs, mode="clip")
        mus = mu.take(order, out=z, mode="clip")  # z is read for the last time above
        del order
        apart = zs[1:] - zs[:-1] > MERGE_WINDOW
    if apart.all():
        return SampledMembership(zs, mus)
    first = np.flatnonzero(np.concatenate(([True], apart)))
    return SampledMembership(zs[first], np.maximum.reduceat(mus, first))


def _not_finite_error(xs: np.ndarray, z: np.ndarray) -> DomainError:
    """The error naming the x of z's first NaN, or where it has none, of its first infinity."""
    support = (xs[0], xs[-1])
    if np.isnan(z).any():
        return _nan_error(xs, z, "oracle sample", support)
    i = int(np.argmax(np.isinf(z)))
    return DomainError(f"g gives {float(z[i])} at x = {xs[i]:.12g}, the first infinite "
                       f"oracle sample on [{support[0]:g}, {support[1]:g}]")


def levels_from_membership(s: SampledMembership, grid: int, delta: float) -> FuzzyNumber:
    """Rebuild a level family of K = grid steps from the samples extend
    returns, strictly increasing in z.

    Level alpha collects the z samples with membership >= alpha - delta;
    delta absorbs the quantization of membership between neighbouring
    samples and must lie in [0, 1) (ValueError otherwise).  A peak
    membership below the top threshold 1 - delta raises ValueError; no
    level can come out empty past that one test.  The thresholds tighten
    with alpha, so the levels nest.  A level runs from the first to the
    last sample that reaches its threshold.  Every threshold is at most the
    peak membership, so each level starts at or before the first maximal
    sample and ends at or after it: the ends are found by K + 1 binary
    searches in the running maximum of the memberships from the first
    sample up to that peak, and in the one from the last sample back down
    to it, one pass over n + 1 samples in all, O(n + K log n) time and
    O(n + K) memory.  A run that is already in order is its own running
    maximum, since only the searches read it, and is searched as it stands.
    """
    if not 0.0 <= delta < 1.0:
        raise ValueError(f"delta must lie in [0, 1), got {float(delta)!r}")
    zs, mus = s
    peak = int(mus.argmax())
    top = float(mus[peak])
    if top < 1.0 - delta:
        raise ValueError(
            f"sampled membership peaks at {top:g}, below the level threshold "
            f"{1.0 - delta:g}; sample more densely or widen delta")
    thresholds = _grid(grid) - delta
    rise, fall = mus[:peak + 1], mus[peak:]
    if not (rise[1:] >= rise[:-1]).all():
        rise = np.maximum.accumulate(rise)
    # fall is read from its last sample back, and tested forwards, which is faster
    fall = fall[::-1] if (fall[1:] <= fall[:-1]).all() else np.maximum.accumulate(fall[::-1])
    first = np.searchsorted(rise, thresholds)
    last = mus.size - 1 - np.searchsorted(fall, thresholds)
    # first rises, last falls and first[K] <= peak <= last[K], on strictly increasing zs
    return FuzzyNumber._made(zs[first], zs[last], nested=True)


class OracleReport(namedtuple("OracleReport", ("op", "n", "tolerance", "max_hausdorff", "passed",
                                               "engine", "oracle", "hausdorff", "method",
                                               "termwise"), defaults=(None,))):
    """Engine-versus-oracle comparison across one full level family, as
    arrays; ``levels``, the rows of compare_levels(engine, oracle, tol=0.0),
    are built on first access and kept in ``__dict__``, which takes nothing
    else.  ``method`` labels the engine's route for the whole report,
    "analytic" or "numeric" (a scan); the rows do not repeat it.
    ``termwise`` holds the ends of the standard sum A + f(A) for a hyperbolic
    f, and is None for products, other f and sums past the float range.
    Every way to make one makes ``hausdorff`` and ``termwise`` read-only."""

    def __new__(cls, *fields, **named) -> "OracleReport":
        self = super().__new__(cls, *fields, **named)
        for array in (self.hausdorff, *(self.termwise or ())):
            array.flags.writeable = False
        return self

    @classmethod
    def _make(cls, iterable) -> "OracleReport":
        return cls(*iterable)

    def __setattr__(self, name, value=None):
        raise AttributeError("OracleReport instances are immutable")

    __delattr__ = __setattr__

    @cached_property
    def levels(self) -> list[LevelResult]:
        return compare_levels(self.engine, self.oracle, 0.0)

    def to_json(self) -> dict:
        e, o, extra = self.engine, self.oracle, self.termwise or ()
        cols = (e.los, e.his, o.los, o.his, self.hausdorff, *extra)
        rows = [{"alpha": r[0], "engine": list(r[1:3]), "oracle": list(r[3:5]), "hausdorff": r[5]}
                | ({"minkowski": list(r[6:])} if extra else {})
                for r in zip(_grid_floats(e.k), *(c.tolist() for c in cols))]
        return {"op": self.op, "n": self.n, "tolerance": self.tolerance,
                "max_hausdorff": self.max_hausdorff, "passed": self.passed, "levels": rows}


def _auto_delta(mu: np.ndarray, spare: np.ndarray | None = None) -> float:
    """Threshold slack for the sampled memberships mu, matched to the
    sampling resolution.

    Half of the largest membership step keeps samples just outside a level
    from leaking in while tolerating float noise at the boundary; the
    second term guarantees the top level stays populated when the peak
    falls between samples.  The slack stays in [0, 1), as
    levels_from_membership requires: a half step of memberships in [0, 1]
    is at most 0.5, and the sample one spacing inside the support on the
    wider side of the core has membership at least 1/((n - 1)K), so the
    second term stays below 1 while (n - 1)K < 1e12.  The steps are written
    into spare, an array of n floats whose values are spent, where one is
    given.
    """
    if mu.size < 2:
        return MERGE_WINDOW
    steps = np.subtract(mu[1:], mu[:-1], out=None if spare is None else spare[:-1])
    quantum = float(max(steps.max(), -steps.min()))  # the largest |step|; a NaN step gives NaN
    short = 1.0 - float(mu.max())
    return max(0.5 * quantum, short + MERGE_WINDOW, MERGE_WINDOW)


def oracle_check(a: FuzzyNumber, f: CorrelationFunction, op: str,
                 n: int = DEFAULT_SAMPLES,
                 method: RangeMethod | None = None) -> OracleReport:
    """Run the engine, by ``method``, and the brute-force oracle side by
    side on a's grid (resample a first for another K), with n oracle
    samples, an integer of at least MIN_SAMPLES (ValueError otherwise,
    before the engine runs).  build_joint, extend and levels_from_membership
    are its stages, and take only what it hands them.

    The acceptance tolerance is 5 * support_width / n, or 5 * (support_width
    / n) where 5 * support_width passes the float range; the report records
    per-level Hausdorff distances and whether they all fit.  A hyperbolic
    f's sum also carries its termwise reading, A + f(A) as closed_form
    ("std-sum-hyperbolic", ...) gives it, which contains the correlated sum;
    None past the float range.  Every array the report holds is read-only.
    """
    if op not in BINARY_OPS:
        raise ValueError(f"op must be one of {BINARY_OPS}, got {op!r}")
    n = _integer(n, "sample count")
    if n < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {n}")
    engine_op = correlated_sum if op == "sum" else correlated_product
    engine = engine_op(a, f, method)  # checks method, and f on the support
    joint = build_joint(a, f, n)
    s = extend(joint, op)
    # the spent joint.xs is free unless it holds the sorted z
    delta = _auto_delta(joint.mu, None if np.may_share_memory(s.zs, joint.xs) else joint.xs)
    del joint  # only s is read from here on
    approx = levels_from_membership(s, a.k, delta)
    h = _hausdorff(engine, approx)
    max_h = float(h.max())
    lo, hi = a.support
    tolerance = 5.0 * (hi - lo) / n
    if not math.isfinite(tolerance):
        tolerance = 5.0 * ((hi - lo) / n)
    termwise = None
    if op == "sum" and f.family == "hyperbolic":
        try:
            std = closed_form("std-sum-hyperbolic", a, f.q, f.r)
            termwise = std.los, std.his
        except ValueError:  # an end past the float range has no JSON form
            pass
    return OracleReport(op=op, n=n, tolerance=tolerance, max_hausdorff=max_h,
                        passed=max_h <= tolerance, engine=engine, oracle=approx, hausdorff=h,
                        method="numeric" if _route(f, op, a.support, method)[2] is None
                        else "analytic",
                        termwise=termwise)

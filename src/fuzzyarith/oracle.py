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
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .arithmetic import (BINARY_OPS, LevelResult, RangeMethod, _hausdorff, _nan_error, _route,
                         compare_levels, correlated_product, correlated_sum)
from .correlation import CorrelationFunction
from .fuzzy import DEFAULT_GRID_K, FuzzyNumber, _grid, _grid_floats, _grid_size, _integer

DEFAULT_SAMPLES = 2001
MIN_SAMPLES = 101

# Two z samples closer than this are treated as the same output value and
# keep the larger membership.
MERGE_WINDOW = 1e-12


def _float_fields(record) -> None:
    """Store each field of the frozen dataclass ``record`` as a float array
    (np.asarray keeps a float array as it is); ValueError unless they are
    1-d and of one length."""
    names, shapes = list(record.__dataclass_fields__), set()
    for name in names:
        array = np.asarray(getattr(record, name), dtype=float)
        object.__setattr__(record, name, array)
        shapes.add(array.shape)
    if len(shapes) > 1 or array.ndim != 1:
        raise ValueError(f"{', '.join(names[:-1])} and {names[-1]} must be 1-d arrays "
                         f"of one length")


@dataclass(frozen=True)
class JointDistribution:
    """Graph samples of the coupled pair: points (xs[i], ys[i]) with
    possibility mu[i], ys = f(xs); each field is taken as a float array."""

    xs: np.ndarray
    mu: np.ndarray
    ys: np.ndarray

    def __post_init__(self) -> None:
        _float_fields(self)
        if not (self.xs[1:] > self.xs[:-1]).all():  # a NaN fails the test
            raise ValueError("xs must be strictly increasing")
        if (self.mu < 0.0).any() or (self.mu > 1.0).any():
            raise ValueError("membership values must lie in [0, 1]")


@dataclass(frozen=True)
class SampledMembership:
    """Output samples zs with their memberships, zs strictly increasing;
    each field is taken as a float array."""

    zs: np.ndarray
    mus: np.ndarray

    def __post_init__(self) -> None:
        _float_fields(self)


def _record(cls, **fields):
    """A cls record holding the fields as given, without the checks of its
    constructor: for the fresh 1-d float arrays of one length that
    build_joint and extend have just made and checked themselves."""
    record = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(record, name, value)
    return record


def _check_op(op: str) -> None:
    if op not in BINARY_OPS:
        raise ValueError(f"op must be one of {BINARY_OPS}, got {op!r}")


def build_joint(a: FuzzyNumber, f: CorrelationFunction, n: int = DEFAULT_SAMPLES, *,
                _checked: bool = False) -> JointDistribution:
    """Sample the graph coupling of (A, f(A)) at n equispaced support points.

    A crisp operand collapses to the single sample it carries.  The sample
    points are always a 1-d array, so their memberships are a.membership's
    float array as returned.  f is first
    checked with f.check_on(a.support); oracle_check passes _checked=True,
    since its engine call has just made that check.  A support too narrow
    to hold n distinct floats raises ValueError naming the support and n.
    """
    if _integer(n, "sample count") < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {n}")
    sup = a.support
    if not _checked:
        f.check_on(sup)
    if sup.width == 0.0:
        xs = np.array([sup.lo])
    else:
        xs = np.linspace(sup.lo, sup.hi, n)
        if not (xs[1:] > xs[:-1]).all():
            raise ValueError(f"support [{sup.lo!r}, {sup.hi!r}] is too narrow for "
                             f"n = {n} distinct samples")
    # the record's own checks would repeat the order test above, and
    # membership keeps every mu in [0, 1]
    mu = a.membership(xs)
    f.require_finite_on(sup)
    ys = f.values(xs)
    return _record(JointDistribution, xs=xs, mu=mu, ys=ys)


def extend(joint: JointDistribution, op: str) -> SampledMembership:
    """Push the joint samples through the operation.

    Outputs are sorted by z; samples whose z values collide within
    MERGE_WINDOW are collapsed, keeping the largest membership.  A z that
    rises (or falls) by more than MERGE_WINDOW at every step is returned as
    it is (or reversed), with no sort and no merge; any other z is sorted
    once, stably, and merged only where two neighbours collide.  A NaN z
    raises DomainError naming the x of the first NaN sample.
    """
    _check_op(op)
    z = joint.xs + joint.ys if op == "sum" else joint.xs * joint.ys
    if z.size > 1:  # a NaN fails both tests
        steps = z[1:] - z[:-1]
        if (steps > MERGE_WINDOW).all():
            return _record(SampledMembership, zs=z, mus=joint.mu)
        if (steps < -MERGE_WINDOW).all():
            return _record(SampledMembership, zs=z[::-1], mus=joint.mu[::-1])
        del steps
    # each n-length array is dropped once it is read for the last time
    order = np.argsort(z, kind="stable")
    zs = z[order]
    if np.isnan(zs[-1:]).any():  # a NaN sorts last
        raise _nan_error(joint.xs, z, "oracle sample", (joint.xs[0], joint.xs[-1]))
    del z
    mus = joint.mu[order]
    del order
    apart = zs[1:] - zs[:-1] > MERGE_WINDOW
    if apart.all():
        return _record(SampledMembership, zs=zs, mus=mus)
    first = np.flatnonzero(np.concatenate(([True], apart)))
    return _record(SampledMembership, zs=zs[first], mus=np.maximum.reduceat(mus, first))


def levels_from_membership(s: SampledMembership, grid: int | None = None,
                           delta: float | None = None) -> FuzzyNumber:
    """Rebuild a level family from sampled membership values on the grid of
    K = grid steps (None: DEFAULT_GRID_K).

    Level alpha collects the z samples with membership >= alpha - delta;
    delta absorbs the quantization of membership between neighbouring
    samples (default 1/(2K)) and must lie in [0, 1) (ValueError otherwise),
    and a NaN membership is read as -inf, below every threshold.  A peak
    membership below the top threshold 1 - delta raises ValueError; no
    level can come out empty past that one test.  The thresholds tighten
    with alpha, so the levels nest.  The samples must come sorted by z,
    strictly increasing, as extend returns them; its sort is the only one.
    A level then runs from the first to the last sample that reaches its
    threshold.  Every threshold is at most the peak membership, so each
    level starts at or before the first maximal sample and ends at or
    after it: the ends are found by K + 1 binary searches in the running
    maximum of the memberships from the first sample up to that peak, and
    in the one from the last sample back down to it, one pass over n + 1
    samples in all, O(n + K log n) time and O(n + K) memory.  A run that
    is already in order is its own running maximum, since only the
    searches read it, and is searched as it stands.
    """
    k = _grid_size(DEFAULT_GRID_K if grid is None else grid)
    if delta is None:
        delta = 1.0 / (2.0 * k)
    elif not 0.0 <= delta < 1.0:
        raise ValueError(f"delta must lie in [0, 1), got {float(delta)!r}")
    zs, mus = s.zs, s.mus
    if zs.size == 0:
        raise ValueError("no samples to rebuild levels from")
    if not (zs[1:] > zs[:-1]).all():
        raise ValueError("z samples must be strictly increasing, as extend returns them")
    peak = int(mus.argmax())
    if mus[peak] != mus[peak]:  # argmax stops at the first NaN
        # a NaN fails every mu >= t, so it ranks below every threshold
        mus = np.where(np.isnan(mus), -np.inf, mus)
        peak = int(mus.argmax())
    top = float(mus[peak])
    if top < 1.0 - delta:
        raise ValueError(
            f"sampled membership peaks at {top:g}, below the level threshold "
            f"{1.0 - delta:g}; sample more densely or widen delta")
    thresholds = _grid(k) - delta
    rise, fall = mus[:peak + 1], mus[peak:]
    if not (rise[1:] >= rise[:-1]).all():
        rise = np.maximum.accumulate(rise)
    # fall is read from its last sample back, and tested forwards, which is faster
    fall = fall[::-1] if (fall[1:] <= fall[:-1]).all() else np.maximum.accumulate(fall[::-1])
    first = np.searchsorted(rise, thresholds)
    last = mus.size - 1 - np.searchsorted(fall, thresholds)
    # first rises, last falls and first[K] <= peak <= last[K], on strictly increasing zs
    return FuzzyNumber._made(zs[first], zs[last], nested=True)


@dataclass(frozen=True)
class OracleReport:
    """Engine-versus-oracle comparison across one full level family, as
    arrays; ``levels``, the rows of compare_levels(engine, oracle, tol=0.0),
    are built on first access.  ``method`` labels the engine's route for
    the whole report, "analytic" or "numeric" (a scan); the rows do not
    repeat it.  ``termwise`` is None for products, non-hyperbolic f and
    readings that pass the float range."""

    op: str
    n: int
    tolerance: float
    max_hausdorff: float
    passed: bool
    engine: FuzzyNumber
    oracle: FuzzyNumber
    hausdorff: np.ndarray
    method: str
    termwise: tuple[np.ndarray, np.ndarray] | None = None

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


def _auto_delta(joint: JointDistribution) -> float:
    """Threshold slack matched to the sampling resolution.

    Half of the largest membership step keeps samples just outside a level
    from leaking in while tolerating float noise at the boundary; the
    second term guarantees the top level stays populated when the peak
    falls between samples.  The slack stays in [0, 1), as
    levels_from_membership requires: a half step of memberships in [0, 1]
    is at most 0.5, and the sample one spacing inside the support on the
    wider side of the core has membership at least 1/((n - 1)K), so the
    second term stays below 1 while (n - 1)K < 1e12.
    """
    if joint.mu.size < 2:
        return MERGE_WINDOW
    steps = joint.mu[1:] - joint.mu[:-1]
    quantum = float(max(steps.max(), -steps.min()))  # the largest |step|; a NaN step gives NaN
    short = 1.0 - float(joint.mu.max())
    return max(0.5 * quantum, short + MERGE_WINDOW, MERGE_WINDOW)


def _minkowski_sum_reading(a: FuzzyNumber, f: CorrelationFunction) -> tuple | None:
    """The (lower, upper) ends of the level sums [A]^alpha + q*{1/x} + r for
    reciprocal shapes.

    This is the value a termwise interval evaluation of x + q/x + r would
    give.  It can strictly contain the true correlated sum, which is why it
    is reported for comparison only.  None unless every end is finite, since
    an end past the float range has no JSON form.
    """
    if f.family != "hyperbolic":
        return None
    q, r = f.q, f.r
    t1, t2 = q / a.his, q / a.los
    with np.errstate(over="ignore"):
        lo, hi = a.los + np.minimum(t1, t2) + r, a.his + np.maximum(t1, t2) + r
    return (lo, hi) if np.isfinite(lo).all() and np.isfinite(hi).all() else None


def oracle_check(a: FuzzyNumber, f: CorrelationFunction, op: str,
                 n: int = DEFAULT_SAMPLES,
                 method: RangeMethod | None = None) -> OracleReport:
    """Run the engine, by ``method``, and the brute-force oracle side by
    side on a's grid (resample a first for another K).

    The acceptance tolerance is 5 * support_width / n, or 5 * (support_width
    / n) where 5 * support_width passes the float range; the report records
    per-level Hausdorff distances and whether they all fit.  For sums of
    reciprocal-shaped correlations the report also carries the termwise
    interval reading of each level, where its ends stay inside the float
    range.
    """
    _check_op(op)
    n = _integer(n, "sample count")
    engine_op = correlated_sum if op == "sum" else correlated_product
    engine = engine_op(a, f, method)  # checks f on the support, as build_joint would
    joint = build_joint(a, f, n, _checked=True)
    approx = levels_from_membership(extend(joint, op), a.k, _auto_delta(joint))
    h = _hausdorff(engine, approx)
    max_h = float(h.max())
    lo, hi = a.support
    tolerance = 5.0 * (hi - lo) / n
    if not math.isfinite(tolerance):
        tolerance = 5.0 * ((hi - lo) / n)
    return OracleReport(op=op, n=n, tolerance=tolerance, max_hausdorff=max_h,
                        passed=max_h <= tolerance, engine=engine, oracle=approx, hausdorff=h,
                        method="numeric" if _route(f, op, a.support, method)[2] is None
                        else "analytic",
                        termwise=_minkowski_sum_reading(a, f) if op == "sum" else None)

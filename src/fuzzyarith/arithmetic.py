"""Standard and correlated arithmetic on fuzzy numbers.

Standard (non-interactive) sums and products combine levels with interval
arithmetic.  Correlated operations treat the second operand as f(first
operand) and compute, per level, the exact range of x + f(x) or x * f(x)
over the level, either from closed-form critical points or numerically.
"""

from __future__ import annotations

import gc
import math
from collections import namedtuple
from itertools import repeat, starmap

import numpy as np

from .correlation import INCREASING, CorrelationFunction, _coefficients
from .errors import DomainError
from .fuzzy import FuzzyNumber, _grid_floats, _integer, _linspace
from .interval import Interval

BINARY_OPS = ("sum", "product")

# Formula identifiers accepted by closed_form.  A hyperbolic correlated sum
# is deliberately absent: splitting x + q/x into independent interval terms
# overstates the range (see the package README), so only the direct range
# computed by correlated_sum is offered for that case.
CLOSED_FORM_KINDS = (
    "std-sum-linear",
    "std-prod-linear",
    "std-sum-hyperbolic",
    "std-prod-hyperbolic",
    "corr-sum-linear",
    "corr-prod-linear",
    "corr-prod-hyperbolic",
)

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0


class RangeMethod(namedtuple("RangeMethod", ("samples",))):
    """A request to scan the support when ranging a function over levels.

    A correlated operation takes one of two requests.  None takes the
    stated extrema of a built-in family, the level ends of a custom
    correlation whose declared direction proves g monotone, or the zero
    cut of a custom product across zero with f(0) = 0, all with no scan,
    and scans any other custom correlation by RangeMethod() (the rules
    are _route's).  A RangeMethod always scans.  Any other method, False,
    0 or a tuple included, raises TypeError naming it before f is called.
    ``samples``: equispaced scan points across the support, an integer of
    at least 65; extrema closer together than the scan step can be missed.
    Where samples - 1 is a multiple of 256, as for the default 1025, the
    scan of a custom f takes f at the 257 points of the monotonicity check
    from that check and calls f only at the other samples - 257.
    Each local extremum of the scan is refined by golden section to a
    bracket of 1e-10, or the float resolution where wider (_golden_min).
    """

    __slots__ = ()
    # a class constant, not a field, so it cannot be set; its one reader is
    # perfbench/tracing.py corr_span
    mode = "numeric"

    def __new__(cls, samples: int = 1025) -> "RangeMethod":
        samples = _integer(samples, "samples")
        if samples < 65:
            raise ValueError(f"numeric range needs at least 65 samples, got {samples}")
        return tuple.__new__(cls, (samples,))

    @classmethod
    def _make(cls, iterable) -> "RangeMethod":
        return cls(*iterable)


def _check_method(method) -> None:
    """TypeError naming method unless it is None or a RangeMethod."""
    if method is not None and not isinstance(method, RangeMethod):
        raise TypeError(f"method must be None or a RangeMethod, got {method!r}")


# -- range search ---------------------------------------------------------------


def _golden_min(g, a: float, b: float) -> tuple[float, float]:
    """(x, g(x)) at the smallest value of g found on [a, b] by golden-section
    bracketing, stopped at a bracket of 1e-10 or, where wider, of 64 ulps
    of the larger |end|, below which it could not shrink.  Every point is
    clamped into the current bracket (a step up from a, which rounding
    cannot carry below a, capped at b), and the bracket only moves onto
    such points, so g is never evaluated outside [a, b].  The best interior
    point seen is kept as one of c, d: the answer is the best of a, b, c, d.
    """
    h = b - a
    tol = max(1e-10, 64.0 * math.ulp(max(abs(a), abs(b))))
    inner = (0.5 * (a + b),) if h <= tol else (a + _INV_PHI2 * h, a + _INV_PHI * h)
    found = [(g(x), x) for x in (a, b, *(min(max(x, a), b) for x in inner))]
    if h > tol:
        (yc, c), (yd, d) = found[2:]
        del found[2:]
        for _ in range(max(1, math.ceil(math.log(tol / h) / math.log(_INV_PHI)))):
            h *= _INV_PHI
            if yc < yd:
                b, d, yd = d, c, yc
                c = min(a + _INV_PHI2 * h, b)
                yc = g(c)
            else:
                a, c, yc = c, d, yd
                d = min(a + _INV_PHI * h, b)
                yd = g(d)
        found += [(yc, c), (yd, d)]
    y, x = min(found)
    return x, float(y)


def _local_min_indices(ys: np.ndarray) -> np.ndarray:
    """Indices of the samples no larger than either neighbour, for ys with
    no NaN, each run of such samples collapsed to its first index.

    ys is padded with +inf at both ends, so a boundary sample qualifies by
    the same rule: an interior extremum less than one sample gap from an
    endpoint shows up only there.  The first index of the smallest sample
    always qualifies, so the result is never empty.
    """
    padded = np.concatenate(([math.inf], ys, [math.inf]))
    mid = padded[1:-1]
    low = (mid <= padded[:-2]) & (mid <= padded[2:])
    low[1:] &= ~low[:-1]
    return np.flatnonzero(low)


def _refined_minima(g, xs: np.ndarray, ys: np.ndarray):
    """Arguments and values of g at every local minimum of the scan ys =
    g(xs), each refined within its two neighbouring sample gaps."""
    last = xs.size - 1
    found = [_golden_min(g, float(xs[max(i - 1, 0)]), float(xs[min(i + 1, last)]))
             for i in _local_min_indices(ys)]
    return np.array(found).T


def _nan_error(xs: np.ndarray, ys: np.ndarray, what: str,
               support: tuple[float, float]) -> DomainError:
    """The error naming the first x at which the values ys of g are NaN.
    A comparison with NaN is false, so a scan or search would drop the value."""
    i = int(np.argmax(np.isnan(ys)))
    return DomainError(f"g gives nan at x = {xs[i]:.12g}, the first NaN {what} "
                       f"on [{support[0]:g}, {support[1]:g}]")


def _scan_values(values, xs: np.ndarray, known) -> np.ndarray:
    """g on the scan grid xs.  ``known`` is None or (kx, g(kx)), g at the
    points the monotonicity check sampled.  Where kx is every step-th point
    of xs bit for bit, those values are taken from it and ``values`` is
    called once on the other points, in order; otherwise on all of xs."""
    if known is not None:
        kx, ky = known
        step, rest = divmod(xs.size - 1, kx.size - 1)
        if rest == 0 and xs[::step].tobytes() == kx.tobytes():
            fresh = np.ones(xs.size, dtype=bool)
            fresh[::step] = False
            ys = np.empty_like(xs)
            ys[::step] = ky
            ys[fresh] = values(xs[fresh])
            return ys
    return values(xs)


def _range_levels(plan, los: np.ndarray, his: np.ndarray,
                  method: RangeMethod | None) -> tuple[np.ndarray, np.ndarray]:
    """Range of g over every level [los[i], his[i]] of a nested family.

    ``plan`` is (values, point, extrema, known): g on an array, g on one
    float, g's interior minima and maxima as (x, g(x)) pairs, or None, and
    g's values already taken at some points, or None (see _scan_values).  Each
    level starts from the extremes of g at its two endpoints.  A stated
    value is exact, so it replaces that end on every level holding its
    argument (a prefix of the family); ((), ()) ranges a monotone g from
    its ends alone.  With extrema None, one scan of the support
    [los[0], his[0]] by ``method`` (default RangeMethod()), which reuses
    ``known`` where it can, finds the local extrema of g, each refined
    once through ``point`` (a NaN raises DomainError); each refined value
    is folded into the last level j(x) holding it, and a reverse running
    min/max hands every level the extremes over itself and the levels
    inside it.  Every reported value is taken by g inside its level.
    Time and memory are O(samples + K).
    """
    values, point, extrema, known = plan
    at_lo = values(los)
    at_hi = values(his)
    lows = np.minimum(at_lo, at_hi)
    highs = np.maximum(at_lo, at_hi)
    if extrema is not None:
        for slot, stated in zip((lows, highs), extrema):
            for x, v in stated:
                slot[(los <= x) & (x <= his)] = v
        return lows, highs
    method = method or RangeMethod()
    if his[0] > los[0]:
        xs = _linspace(float(los[0]), float(his[0]), method.samples)
        ys = _scan_values(values, xs, known)
        if np.isnan(ys).any():
            raise _nan_error(xs, ys, "scan sample", (los[0], his[0]))

        def checked(x):
            y = point(x)
            if y != y:
                raise _nan_error((x,), (y,), "refined value", (los[0], his[0]))
            return y

        neg = lambda x: -checked(x)
        neg_his = -his
        for slot, fold, h, hs, sign in ((lows, np.minimum, checked, ys, 1.0),
                                        (highs, np.maximum, neg, -ys, -1.0)):
            x, v = _refined_minima(h, xs, hs)
            # every x lies on the support, so j >= 0
            j = np.minimum(np.searchsorted(los, x, side="right"),
                           np.searchsorted(neg_his, -x, side="right")) - 1
            fold.at(slot, j, sign * v)
    # in place, so that lows and highs stay contiguous
    np.minimum.accumulate(lows[::-1], out=lows[::-1])
    np.maximum.accumulate(highs[::-1], out=highs[::-1])
    return lows, highs


def range_over_interval(g, iv: Interval, method: RangeMethod | None = None) -> Interval:
    """Closure of {g(x) : x in iv} as an interval.

    ``g`` is any real function of one variable, called on one float at a
    time.  It states no extrema, so it is scanned by ``method`` (default
    RangeMethod()); any other method raises TypeError naming it before g
    is called.

    This is the one-level case of the correlated engine (see _range_levels):
    the values at the two ends plus the refined extrema of a
    ``method.samples``-point scan of iv, whose resolution is
    iv.width / (samples - 1).  Both ends of the result are values g takes
    on iv.
    """
    _check_method(method)
    values = lambda xs: np.fromiter(map(g, xs.tolist()), float, xs.size)
    lo, hi = _range_levels((values, g, None, None), np.array([iv.lo]), np.array([iv.hi]),
                           method)
    return Interval(float(lo[0]), float(hi[0]))


# -- standard (non-interactive) operations --------------------------------------


def _same_grid(x: FuzzyNumber, y: FuzzyNumber) -> None:
    """ValueError unless x and y lie on the same alpha grid."""
    if x.k != y.k:
        raise ValueError(f"grid mismatch: K={x.k} vs K={y.k}; resample first")


def standard_sum(a: FuzzyNumber, b: FuzzyNumber) -> FuzzyNumber:
    """Levelwise interval sum of two fuzzy numbers on the same grid;
    operands on different grids raise ValueError (a.resample(K) changes
    the grid)."""
    _same_grid(a, b)
    # rounding is monotone: sums of non-decreasing arrays do not decrease
    return FuzzyNumber._made(a.los + b.los, a.his + b.his, nested=True)


def standard_product(a: FuzzyNumber, b: FuzzyNumber) -> FuzzyNumber:
    """Levelwise interval product (extrema over the four endpoint products)
    of two fuzzy numbers on the same grid, as standard_sum."""
    _same_grid(a, b)
    # rounding is monotone: each corner of level i lies in the exact product
    # of level i - 1, so its rounded value lies between that level's ends
    return FuzzyNumber._made(*_envelope(a.los * b.los, a.los * b.his, a.his * b.los,
                                        a.his * b.his), nested=True)


# -- correlated operations -------------------------------------------------------


def _one_sign(u: float, v: float) -> int:
    """1 or -1 when u and v both have that sign or are zero, else 0."""
    if u >= 0.0 and v >= 0.0:
        return 1
    if u <= 0.0 and v <= 0.0:
        return -1
    return 0


def _monotone_on(f: CorrelationFunction, op: str, support: Interval) -> bool:
    """Whether the declared direction of the custom f proves g = x + f(x)
    or x * f(x) monotone on the support.

    For a sum it does when f increases.  For a product it does when x and
    f each keep one sign on the support (f's read at the two ends, a zero
    at an end allowed) and |x| and |f| move together, so that |g| =
    |x| |f| is monotone and g keeps one sign: that is, when f increases
    exactly if x and f have the same sign.
    """
    increasing = f.direction == INCREASING
    if op == "sum":
        return increasing
    sx = _one_sign(support.lo, support.hi)
    if sx == 0:
        return False
    sf = _one_sign(float(f.fn(support.lo)), float(f.fn(support.hi)))
    return sf != 0 and increasing == (sx == sf)


def _route(f: CorrelationFunction, op: str, support: Interval, method: RangeMethod | None,
           checked=None):
    """The range plan for op under f on the support, as _range_levels
    takes it: g = x + f(x) or x * f(x) on an array, g on one float, the
    interior extrema g is ranged from, None when g is scanned, and g at
    the points of ``checked``, the samples (xs, f(xs)) that f.check_on
    took, for the scan to reuse (None without them).

    A linear or hyperbolic f gives one expression in x, q and r, taking
    arrays and floats alike, whose stationary points are stated and taken,
    with no scan, unless a method is passed.  With no method, a custom f
    has no scan in two cases.  Where its declared direction proves g
    monotone (see _monotone_on) g has no interior extrema, ((), ()).
    For a product over a support with
    lo < 0 < hi, fn(0.0) is called once; if it is 0, f keeps one sign on
    each side of 0, so g = x * f(x) does too and |g| = |x| |f| grows away
    from 0 on both sides: g(0) = 0 is g's minimum for an increasing f and
    its maximum for a decreasing one, stated as (0.0, 0.0 * fn(0.0)).  Any
    other custom f gets extrema None: it is scanned by the method passed,
    or by the default one.  The operations and oracle_check ask this one
    function.
    """
    numeric = method is not None
    if f.family == "custom":
        fn = f.fn

        def combined(xs, ys):
            # past the float range x + f(x) is inf, as with Python floats, and
            # the caller reports the non-finite level
            with np.errstate(over="ignore", invalid="ignore"):
                return xs + ys if op == "sum" else xs * ys

        values = lambda xs: combined(xs, f.values(xs))
        point = (lambda x: x + float(fn(x))) if op == "sum" else (lambda x: x * float(fn(x)))
        if not numeric:
            if _monotone_on(f, op, support):
                return values, point, ((), ()), None
            if op == "product" and support.lo < 0.0 < support.hi:
                y0 = float(fn(0.0))
                if y0 == 0.0:
                    zero = ((0.0, 0.0 * y0),)
                    extrema = (zero, ()) if f.direction == INCREASING else ((), zero)
                    return values, point, extrema, None
        known = None if checked is None else (checked[0], combined(*checked))
        return values, point, None, known
    q, r = f.q, f.r
    minima = maxima = ()
    if f.family == "linear" and op == "sum":
        c = 1.0 + q
        g = lambda x: c * x + r
    elif f.family == "linear":
        g = lambda x: q * x * x + r * x
        xv = -r / (2.0 * q)
        vertex = ((xv, g(xv)),)
        minima, maxima = (vertex, ()) if q > 0 else ((), vertex)
    elif op == "sum":
        f.require_finite_on(support)
        g = lambda x: x + q / x + r
        if q > 0:  # a local minimum at sqrt(q), a local maximum at -sqrt(q)
            s = math.sqrt(q)
            minima, maxima = ((s, 2.0 * s + r),), ((-s, -2.0 * s + r),)
    else:
        # x * (q/x + r) collapses to r*x + q
        g = lambda x: r * x + q
    return g, g, None if numeric else (minima, maxima), None


def _correlated(a: FuzzyNumber, f: CorrelationFunction, op: str,
                method: RangeMethod | None) -> FuzzyNumber:
    _check_method(method)
    sup = a.support
    plan = _route(f, op, sup, method, f.check_on(sup))
    # a scan's reverse running min and max nest the levels, and so does a built-in g
    # that states no extrema: it is monotone on the support and rounds monotonically
    nested = plan[2] is None or (f.family != "custom" and plan[2] == ((), ()))
    return FuzzyNumber._made(*_range_levels(plan, a.los, a.his, method), nested=nested)


def correlated_sum(a: FuzzyNumber, f: CorrelationFunction,
                   method: RangeMethod | None = None) -> FuzzyNumber:
    """Sum of A and f(A) under the graph coupling.

    Level alpha is the closure of {x + f(x) : x in [A]^alpha}, the range of
    one function of one variable, not an interval Minkowski sum.  For an
    increasing f, x + f(x) increases, so each level is [g(lo), g(hi)] and
    the result coincides with standard_sum(a, induced_number(a, f)) (the
    paper's theorem); a custom increasing f is then ranged from its
    2(K+1) endpoint values with no scan, unless a method is passed.
    """
    return _correlated(a, f, "sum", method)


def correlated_product(a: FuzzyNumber, f: CorrelationFunction,
                       method: RangeMethod | None = None) -> FuzzyNumber:
    """Product of A and f(A) under the graph coupling, ranged levelwise.

    The correlated product lies inside standard_product(a,
    induced_number(a, f)) (the paper's containment theorem).  A custom f
    is ranged from its 2(K+1) endpoint values with no scan when method is
    None, the support and f each keep one sign on it, and |x| and |f|
    move together, which makes x * f(x) monotone.  On a support
    across zero with f(0) = 0 (fn(0.0) is called once to read it),
    x * f(x) keeps one sign and its size falls towards 0 from both sides:
    the levels holding 0 take 0 as their lower end for an increasing f,
    their upper end for a decreasing one, again with no scan.  Otherwise
    it is scanned.
    """
    return _correlated(a, f, "product", method)


# -- closed forms ----------------------------------------------------------------


def _scaled(c: float, los: np.ndarray, his: np.ndarray):
    return (c * los, c * his) if c >= 0 else (c * his, c * los)


def _envelope(c0, c1, c2, c3):
    """The elementwise least and greatest of four arrays, as
    np.minimum.reduce and np.maximum.reduce give them, in the same order,
    without stacking a copy of the four first."""
    return (np.minimum(np.minimum(np.minimum(c0, c1), c2), c3),
            np.maximum(np.maximum(np.maximum(c0, c1), c2), c3))


def _square_range(los: np.ndarray, his: np.ndarray):
    """Levelwise range of x**2, exact (zero handled)."""
    s1 = los * los
    s2 = his * his
    lo = np.where((los <= 0.0) & (0.0 <= his), 0.0, np.minimum(s1, s2))
    return lo, np.maximum(s1, s2)


def closed_form(kind: str, a: FuzzyNumber, q: float, r: float) -> FuzzyNumber:
    """Direct endpoint formulas for the built-in correlation families.

    ``kind`` selects one of CLOSED_FORM_KINDS; q and r parameterize the
    correlation (q*x + r for the linear kinds, q/x + r for the hyperbolic
    ones), checked as the linear and hyperbolic factories check them.  These
    are transcription-style formulas kept separate from the range engine so
    the two can be checked against each other.  An end past the float range
    raises the constructor's ValueError, not a numpy warning.
    """
    if kind not in CLOSED_FORM_KINDS:
        raise ValueError(f"unknown closed form {kind!r}; expected one of "
                         f"{', '.join(CLOSED_FORM_KINDS)}")
    hyperbolic = "hyperbolic" in kind
    q, r = _coefficients("hyperbolic" if hyperbolic else "linear", q, r)
    los, his = a.los, a.his
    if hyperbolic and los[0] <= 0.0 <= his[0]:
        raise DomainError("hyperbolic closed forms need a support that avoids zero")
    # A bound on every intermediate |value| of the kind's formulas, from the
    # largest |end| (at least 1) and, for q/x, the smallest (at most 1),
    # which a support that avoids zero keeps above 0.  Where twice it, a
    # margin for rounding, stays finite, no element can overflow.
    lo, hi = float(los[0]), float(his[0])
    big = max(-lo, hi, 1.0)
    if hyperbolic:
        bound = abs(q) * big / min(abs(lo), abs(hi), 1.0) + (1.0 + abs(r)) * big
    else:
        bound = (1.0 + abs(q)) * big * big + abs(r) * big
    if math.isfinite(2.0 * bound):
        return FuzzyNumber._made(*_closed_levels(kind, los, his, q, r))
    with np.errstate(all="ignore"):  # an end past the float range is reported by the constructor
        levels = _closed_levels(kind, los, his, q, r)
    return FuzzyNumber._made(*levels)


def _closed_levels(kind: str, los: np.ndarray, his: np.ndarray, q: float, r: float):
    """The lower and upper ends closed_form's ``kind`` gives on the levels
    los, his."""
    if kind == "std-sum-linear":
        if q > 0:
            return (q + 1.0) * los + r, (q + 1.0) * his + r
        return los + q * his + r, his + q * los + r

    if kind == "std-prod-linear":
        return _envelope(q * los * los + r * los,
                         q * his * los + r * los,
                         q * his * los + r * his,
                         q * his * his + r * his)

    if kind == "std-sum-hyperbolic":
        if q < 0:  # q/x + r increases away from zero
            return q / los + los + r, his + q / his + r
        return q / his + los + r, q / los + his + r

    if kind == "std-prod-hyperbolic":
        return _envelope(q + r * los,
                         his * q / los + r * his,
                         los * q / his + r * los,
                         q + r * his)

    if kind == "corr-sum-linear":
        slo, shi = _scaled(q + 1.0, los, his)
        return slo + r, shi + r

    if kind == "corr-prod-linear":
        # q * (range of x**2) + r * [A], two independently scaled intervals.
        # Exact only when x**2 and x move together on the support, e.g. for
        # r = 0 or sign-definite supports with suitably signed q and r.
        sq_lo, sq_hi = _square_range(los, his)
        qlo, qhi = _scaled(q, sq_lo, sq_hi)
        rlo, rhi = _scaled(r, los, his)
        return qlo + rlo, qhi + rhi

    # corr-prod-hyperbolic: x * (q/x + r) = q + r*x levelwise
    rlo, rhi = _scaled(r, los, his)
    return q + rlo, q + rhi


# -- comparison -------------------------------------------------------------------


class LevelResult(namedtuple("LevelResult",
                             ("alpha", "left", "right", "hausdorff", "subset", "equal"))):
    """Per-alpha comparison of two level intervals."""

    __slots__ = ()


def _level_rows(x: FuzzyNumber, y: FuzzyNumber, hausdorff: np.ndarray, subset: np.ndarray,
                equal: np.ndarray) -> list[LevelResult]:
    """One LevelResult per grid alpha, read from the level arrays of x and y
    and the per-level comparison arrays as whole ``.tolist()`` columns; the
    alpha column is the grid's own tuple of floats, _grid_floats(K), built
    once per K and shared by every row of that K.

    x and y must be FuzzyNumbers.  Their constructor has proved every stored
    level finite with lo <= hi and made the arrays read-only, and
    ``.tolist()`` yields Python floats and bools, which is all that
    Interval's validation would establish.  So the rows and their intervals
    are made by ``tuple.__new__`` straight from the zipped columns, without
    the validating constructor (starmap passes each zipped tuple on as it
    is), and all of them are built before the call returns.

    The build runs with the cyclic garbage collector paused, and its prior
    state restored after, also when the build raises.  Rows hold only
    floats, bools and Intervals of floats, so they cannot form a cycle and
    a collection during the build could free nothing.  Yet
    CPython untracks only exact tuples, so the 3K + 3 named tuples kept
    alive would start collections, full ones at K = 10000, that walk the
    rows for nothing.
    """
    xlo, xhi, ylo, yhi, h, sub, eq = (
        c.tolist() for c in (x.los, x.his, y.los, y.his, hausdorff, subset, equal))
    new = tuple.__new__
    lefts = starmap(new, zip(repeat(Interval), zip(xlo, xhi)))
    rights = starmap(new, zip(repeat(Interval), zip(ylo, yhi)))
    enabled = gc.isenabled()
    gc.disable()
    try:
        return list(starmap(new, zip(repeat(LevelResult),
                                     zip(_grid_floats(x.k), lefts, rights, h, sub, eq))))
    finally:
        if enabled:
            gc.enable()


def _hausdorff(x: FuzzyNumber, y: FuzzyNumber) -> np.ndarray:
    """Per-level Hausdorff distance between the levels of x and y."""
    # ends near the float limits give an inf distance, as Python floats do
    with np.errstate(over="ignore"):
        return np.maximum(np.abs(x.los - y.los), np.abs(x.his - y.his))


def _compared(x: FuzzyNumber, y: FuzzyNumber, tol: float):
    """Per-level Hausdorff distance between x and y, and whether each level
    of x lies in (subset) and equals (equal) that of y within tol, as
    three arrays."""
    h = _hausdorff(x, y)
    # a bound widened by tol near the float limits is inf, as with Python floats
    with np.errstate(over="ignore"):
        subset = (x.los >= y.los - tol) & (x.his <= y.his + tol)
    return h, subset, h <= tol


def compare_levels(x: FuzzyNumber, y: FuzzyNumber,
                   tol: float = 1e-9) -> list[LevelResult]:
    """Levelwise comparison of two fuzzy numbers on the same grid.

    Reports, per grid alpha, the Hausdorff distance between the levels,
    whether the level of x is contained in the level of y (within tol) and
    whether the two are equal (within tol).  The three are computed for
    every level at once, as arrays, and the rows are made from those
    arrays and the levels x and y hold, which are not validated again.
    Both operands must be FuzzyNumbers (TypeError otherwise); a negative
    or NaN tol raises ValueError.
    """
    if not (isinstance(x, FuzzyNumber) and isinstance(y, FuzzyNumber)):
        raise TypeError(f"compare_levels needs two FuzzyNumbers, got "
                        f"{type(x).__name__} and {type(y).__name__}")
    _same_grid(x, y)
    if not tol >= 0:
        raise ValueError(f"tol must be non-negative, got {tol!r}")
    return _level_rows(x, y, *_compared(x, y, tol))

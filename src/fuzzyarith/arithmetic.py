"""Standard and correlated arithmetic on fuzzy numbers.

Standard (non-interactive) sums and products combine levels with interval
arithmetic.  Correlated operations treat the second operand as f(first
operand) and compute, per level, the exact range of x + f(x) or x * f(x)
over the level, either from closed-form critical points or numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correlation import INCREASING, CorrelationFunction
from .errors import DomainError
from .fuzzy import FuzzyNumber
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


@dataclass(frozen=True)
class RangeMethod:
    """How to compute the range of a function over the levels of a family.

    ``mode``: ``analytic`` takes the interior extrema the function states,
    with no scan; ``numeric`` scans the support (the rules are _route's).
    With no method passed, or an analytic one, the correlated operations
    range a custom correlation whose declared direction proves g monotone
    from its level ends; an analytic method on any other custom
    correlation raises ValueError.
    ``samples``: equispaced scan points across the support; extrema closer
    together than the scan step can be missed.
    ``refine_tol``: the bracket width at which the golden-section search
    refining each local extremum of the scan stops.
    """

    mode: str = "numeric"
    samples: int = 1025
    refine_tol: float = 1e-10

    def __post_init__(self) -> None:
        if self.mode not in ("analytic", "numeric"):
            raise ValueError(f"mode must be 'analytic' or 'numeric', got {self.mode!r}")
        if self.samples < 65:
            raise ValueError(f"numeric range needs at least 65 samples, got {self.samples}")
        if not self.refine_tol > 0:
            raise ValueError(f"refine_tol must be positive, got {self.refine_tol!r}")


# -- profile shapes with stated extrema -----------------------------------------
# Each takes arrays, and extrema() returns its interior minima and maxima
# as two tuples of (x, g(x)) pairs.


@dataclass(frozen=True)
class Affine:
    """g(x) = c1*x + c0."""

    c1: float
    c0: float

    def __call__(self, x):
        return self.c1 * x + self.c0

    def extrema(self):
        return (), ()


@dataclass(frozen=True)
class Quadratic:
    """g(x) = a*x**2 + b*x, the product profile of a linear correlation."""

    a: float
    b: float

    def __call__(self, x):
        return self.a * x * x + self.b * x

    def extrema(self):
        if self.a == 0.0:
            return (), ()
        xv = -self.b / (2.0 * self.a)
        vertex = ((xv, self(xv)),)
        return (vertex, ()) if self.a > 0 else ((), vertex)


@dataclass(frozen=True)
class ReciprocalSum:
    """g(x) = x + q/x + r on intervals that avoid zero.

    For q > 0 there are stationary points at +-sqrt(q): a local minimum on
    the positive side, a local maximum on the negative side.  For q < 0 the
    function is strictly increasing on either side of zero.
    """

    q: float
    r: float

    def __call__(self, x):
        return x + self.q / x + self.r

    def extrema(self):
        if self.q <= 0:
            return (), ()
        s = math.sqrt(self.q)
        return ((s, 2.0 * s + self.r),), ((-s, -2.0 * s + self.r),)


# -- range search ---------------------------------------------------------------


def _values(g, xs: np.ndarray) -> np.ndarray:
    """g at every point of xs.  The profiles above take arrays; any other
    callable is only promised to take one float at a time."""
    if hasattr(g, "extrema"):
        return np.asarray(g(xs), dtype=float)
    return np.fromiter((g(float(x)) for x in xs), float, xs.size)


def _golden_min(g, a: float, b: float, tol: float) -> tuple[float, float]:
    """(x, g(x)) at the smallest value of g found on [a, b] by golden-section
    bracketing.

    The best interior point seen is always kept as one of c, d, so the
    answer is the best of the two ends and the final c, d.
    """
    found = [(g(a), a), (g(b), b)]
    h = b - a
    if h <= tol:
        m = 0.5 * (a + b)
        found.append((g(m), m))
    else:
        c = a + _INV_PHI2 * h
        d = a + _INV_PHI * h
        yc = g(c)
        yd = g(d)
        steps = max(1, math.ceil(math.log(tol / h) / math.log(_INV_PHI)))
        for _ in range(steps):
            h *= _INV_PHI
            if yc < yd:
                b, d, yd = d, c, yc
                c = a + _INV_PHI2 * h
                yc = g(c)
            else:
                a, c, yc = c, d, yd
                d = a + _INV_PHI * h
                yd = g(d)
        found += [(yc, c), (yd, d)]
    y, x = min(found)
    return x, float(y)


def _local_min_indices(ys: np.ndarray) -> np.ndarray:
    """Sample indices worth refining, plateau runs collapsed to one entry.

    Boundary samples count as local minima too: an interior extremum less
    than one sample gap from an endpoint shows up only there.
    """
    n = ys.size
    inner = np.arange(1, n - 1)
    mask = (ys[1:-1] <= ys[:-2]) & (ys[1:-1] <= ys[2:])
    idx = inner[mask]
    if ys[0] <= ys[1]:
        idx = np.append(0, idx)
    if ys[n - 1] <= ys[n - 2]:
        idx = np.append(idx, n - 1)
    if idx.size:
        keep = np.empty(idx.size, dtype=bool)
        keep[0] = True
        keep[1:] = np.diff(idx) > 1
        idx = idx[keep]
    gmin = int(np.argmin(ys))
    if gmin not in idx:
        idx = np.append(idx, gmin)
    return idx


def _refined_minima(g, xs: np.ndarray, ys: np.ndarray, tol: float):
    """Arguments and values of g at every local minimum of the scan ys =
    g(xs), each refined within its two neighbouring sample gaps."""
    last = xs.size - 1
    found = [_golden_min(g, float(xs[max(i - 1, 0)]), float(xs[min(i + 1, last)]), tol)
             for i in _local_min_indices(ys)]
    return np.array(found).T


def _stated_extrema(g, method: RangeMethod | None):
    """The interior extrema g states, unless a numeric method is passed;
    None when g is to be scanned.  An analytic method on a g that states
    none raises ValueError."""
    if method is not None and method.mode == "numeric":
        return None
    if hasattr(g, "extrema"):
        return g.extrema()
    if method is not None:
        raise ValueError(
            "analytic range requested but the function states no extrema; "
            "use a numeric RangeMethod")
    return None


def _range_levels(g, los: np.ndarray, his: np.ndarray, extrema,
                  method: RangeMethod | None) -> tuple[np.ndarray, np.ndarray]:
    """Range of g over every level [los[i], his[i]] of a nested family.

    Each level starts from the extremes of g at its two endpoints.  Given
    ``extrema``, g's interior minima and maxima as (x, g(x)) pairs, a
    stated value is exact, so it replaces that end on every level holding
    its argument (a prefix of the family); ((), ()) ranges a monotone g
    from its ends alone.  With extrema None, one scan of the support
    [los[0], his[0]] by ``method`` (default RangeMethod()) finds the local
    extrema of g, each refined once; each refined value is folded into the
    last level j(x) holding it, and a reverse running min/max hands every
    level the extremes over itself and the levels inside it.  Every
    reported value is taken by g inside its level.  Time and memory are
    O(samples + K).
    """
    at_lo = _values(g, los)
    at_hi = _values(g, his)
    lows = np.minimum(at_lo, at_hi)
    highs = np.maximum(at_lo, at_hi)
    if extrema is not None:
        for slot, stated in zip((lows, highs), extrema):
            for x, v in stated:
                slot[(los <= x) & (x <= his)] = v
        return lows, highs
    method = method or RangeMethod()
    if his[0] > los[0]:
        xs = np.linspace(los[0], his[0], method.samples)
        ys = _values(g, xs)
        neg = lambda x: -g(x)
        neg_his = -his
        for slot, fold, h, hs, sign in ((lows, np.minimum, g, ys, 1.0),
                                        (highs, np.maximum, neg, -ys, -1.0)):
            x, v = _refined_minima(h, xs, hs, method.refine_tol)
            # every x lies on the support, so j >= 0
            j = np.minimum(np.searchsorted(los, x, side="right"),
                           np.searchsorted(neg_his, -x, side="right")) - 1
            fold.at(slot, j, sign * v)
    return (np.minimum.accumulate(lows[::-1])[::-1],
            np.maximum.accumulate(highs[::-1])[::-1])


def range_over_interval(g, iv: Interval, method: RangeMethod | None = None) -> Interval:
    """Closure of {g(x) : x in iv} as an interval.

    ``g`` is any real function of one variable.  With method=None a profile
    that states its extrema (Affine, Quadratic, ReciprocalSum) is ranged
    analytically and anything else numerically; an explicit analytic
    request on a plain callable is an error.

    This is the one-level case of the correlated engine (see _range_levels):
    the values at the two ends plus the stated extrema inside iv, or plus
    the refined extrema of a ``method.samples``-point scan of iv, whose
    resolution is iv.width / (samples - 1).  Both ends of the result are
    values g takes on iv.
    """
    lo, hi = _range_levels(g, np.array([iv.lo]), np.array([iv.hi]),
                           _stated_extrema(g, method), method)
    return Interval(float(lo[0]), float(hi[0]))


# -- standard (non-interactive) operations --------------------------------------


def _common_grid(a: FuzzyNumber, b: FuzzyNumber) -> tuple[FuzzyNumber, FuzzyNumber]:
    if a.k == b.k:
        return a, b
    k = max(a.k, b.k)
    return a.resample(k), b.resample(k)


def standard_sum(a: FuzzyNumber, b: FuzzyNumber) -> FuzzyNumber:
    """Levelwise interval sum; operands on different grids are re-sampled
    onto the finer one."""
    a, b = _common_grid(a, b)
    return FuzzyNumber(a.los + b.los, a.his + b.his)


def standard_product(a: FuzzyNumber, b: FuzzyNumber) -> FuzzyNumber:
    """Levelwise interval product (extrema over the four endpoint products)."""
    a, b = _common_grid(a, b)
    p1 = a.los * b.los
    p2 = a.los * b.his
    p3 = a.his * b.los
    p4 = a.his * b.his
    return FuzzyNumber(np.minimum(np.minimum(p1, p2), np.minimum(p3, p4)),
                       np.maximum(np.maximum(p1, p2), np.maximum(p3, p4)))


# -- correlated operations -------------------------------------------------------


def _profile(f: CorrelationFunction, op: str):
    if f.family == "linear":
        return Affine(1.0 + f.q, f.r) if op == "sum" else Quadratic(f.q, f.r)
    if f.family == "hyperbolic":
        # x * (q/x + r) collapses to r*x + q
        return ReciprocalSum(f.q, f.r) if op == "sum" else Affine(f.r, f.q)
    return None


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
    sf = _one_sign(f.fn(support.lo), f.fn(support.hi))
    return sf != 0 and increasing == (sx == sf)


def _route(f: CorrelationFunction, op: str, support: Interval, method: RangeMethod | None):
    """The range plan for op under f on the support: the function g the
    engine ranges and the interior extrema it ranges g from, None when g
    is scanned.

    A linear or hyperbolic f gives a profile whose stated extrema are
    taken, with no scan, unless a numeric method is passed.  A custom f
    whose declared direction proves g monotone (see _monotone_on) has no
    interior extrema, ((), ()), when the method is None or analytic.  Any
    other custom f is scanned by the numeric method passed, or by the
    default one; an analytic method raises ValueError for it.  The
    operations and oracle_check ask this one function.
    """
    g = _profile(f, op)
    if g is None:
        fn = f.fn  # bound once: every evaluation skips CorrelationFunction.__call__
        g = (lambda x: x + fn(x)) if op == "sum" else (lambda x: x * fn(x))
        if (method is None or method.mode == "analytic") and _monotone_on(f, op, support):
            return g, ((), ())
    return g, _stated_extrema(g, method)


def _correlated(a: FuzzyNumber, f: CorrelationFunction, op: str,
                method: RangeMethod | None) -> FuzzyNumber:
    sup = a.support
    f.check_on(sup)
    g, extrema = _route(f, op, sup, method)
    return FuzzyNumber(*_range_levels(g, a.los, a.his, extrema, method))


def correlated_sum(a: FuzzyNumber, f: CorrelationFunction,
                   method: RangeMethod | None = None) -> FuzzyNumber:
    """Sum of A and f(A) under the graph coupling.

    Level alpha is the closure of {x + f(x) : x in [A]^alpha}, the range of
    one function of one variable, not an interval Minkowski sum.  For an
    increasing f, x + f(x) increases, so each level is [g(lo), g(hi)] and
    the result coincides with standard_sum(a, induced_number(a, f)) (the
    paper's theorem); a custom increasing f is then ranged from its
    2(K+1) endpoint values with no scan, unless a numeric method is
    passed.
    """
    return _correlated(a, f, "sum", method)


def correlated_product(a: FuzzyNumber, f: CorrelationFunction,
                       method: RangeMethod | None = None) -> FuzzyNumber:
    """Product of A and f(A) under the graph coupling, ranged levelwise.

    The correlated product lies inside standard_product(a,
    induced_number(a, f)) (the paper's containment theorem).  A custom f
    is ranged from its 2(K+1) endpoint values with no scan when method is
    None, the support and f each keep one sign on it, and |x| and |f|
    move together, which makes x * f(x) monotone; otherwise it is scanned.
    """
    return _correlated(a, f, "product", method)


# -- closed forms ----------------------------------------------------------------


def _scaled(c: float, los: np.ndarray, his: np.ndarray):
    return (c * los, c * his) if c >= 0 else (c * his, c * los)


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
    ones).  These are transcription-style formulas kept separate from the
    range engine so the two can be checked against each other.
    """
    if kind not in CLOSED_FORM_KINDS:
        raise ValueError(f"unknown closed form {kind!r}; expected one of "
                         f"{', '.join(CLOSED_FORM_KINDS)}")
    q = float(q)
    r = float(r)
    if q == 0.0:
        raise ValueError("closed forms need q != 0")
    los, his = a.los, a.his
    if "hyperbolic" in kind and los[0] <= 0.0 <= his[0]:
        raise DomainError("hyperbolic closed forms need a support that avoids zero")

    if kind == "std-sum-linear":
        if q > 0:
            return FuzzyNumber((q + 1.0) * los + r, (q + 1.0) * his + r)
        return FuzzyNumber(los + q * his + r, his + q * los + r)

    if kind == "std-prod-linear":
        cands = (q * los * los + r * los,
                 q * his * los + r * los,
                 q * his * los + r * his,
                 q * his * his + r * his)
        return FuzzyNumber(np.minimum.reduce(cands), np.maximum.reduce(cands))

    if kind == "std-sum-hyperbolic":
        if q < 0:  # q/x + r increases away from zero
            return FuzzyNumber(q / los + los + r, his + q / his + r)
        return FuzzyNumber(q / his + los + r, q / los + his + r)

    if kind == "std-prod-hyperbolic":
        cands = (q + r * los,
                 his * q / los + r * his,
                 los * q / his + r * los,
                 q + r * his)
        return FuzzyNumber(np.minimum.reduce(cands), np.maximum.reduce(cands))

    if kind == "corr-sum-linear":
        slo, shi = _scaled(q + 1.0, los, his)
        return FuzzyNumber(slo + r, shi + r)

    if kind == "corr-prod-linear":
        # q * (range of x**2) + r * [A], two independently scaled intervals.
        # Exact only when x**2 and x move together on the support, e.g. for
        # r = 0 or sign-definite supports with suitably signed q and r.
        sq_lo, sq_hi = _square_range(los, his)
        qlo, qhi = _scaled(q, sq_lo, sq_hi)
        rlo, rhi = _scaled(r, los, his)
        return FuzzyNumber(qlo + rlo, qhi + rhi)

    # corr-prod-hyperbolic: x * (q/x + r) = q + r*x levelwise
    rlo, rhi = _scaled(r, los, his)
    return FuzzyNumber(q + rlo, q + rhi)


# -- comparison -------------------------------------------------------------------


@dataclass(frozen=True)
class LevelResult:
    """Per-alpha comparison of two level intervals."""

    alpha: float
    left: Interval
    right: Interval
    hausdorff: float
    subset: bool
    equal: bool
    method: str | None = None

    def to_json(self) -> dict:
        obj = {
            "alpha": self.alpha,
            "left": [self.left.lo, self.left.hi],
            "right": [self.right.lo, self.right.hi],
            "hausdorff": self.hausdorff,
            "subset": self.subset,
            "equal": self.equal,
        }
        if self.method is not None:
            obj["method"] = self.method
        return obj


def _level_rows(x: FuzzyNumber, y: FuzzyNumber, hausdorff: np.ndarray, subset: np.ndarray,
                equal: np.ndarray, method: str | None = None) -> list[LevelResult]:
    """One LevelResult per grid alpha, read from the level arrays of x and y
    and the per-level comparison arrays as whole ``.tolist()`` columns."""
    cols = (x.grid.alphas(), x.los, x.his, y.los, y.his, hausdorff, subset, equal)
    # positional arguments: keywords slow the construction of every row
    return [LevelResult(alpha, Interval(xlo, xhi), Interval(ylo, yhi), h, sub, eq, method)
            for alpha, xlo, xhi, ylo, yhi, h, sub, eq in zip(*(c.tolist() for c in cols))]


def _compared(x: FuzzyNumber, y: FuzzyNumber, tol: float):
    """Per-level Hausdorff distance between x and y, and whether each level
    of x lies in (subset) and equals (equal) that of y within tol, as
    three arrays."""
    # ends near the float limits give an inf distance or bound, as Python floats do
    with np.errstate(over="ignore"):
        h = np.maximum(np.abs(x.los - y.los), np.abs(x.his - y.his))
        subset = (x.los >= y.los - tol) & (x.his <= y.his + tol)
    return h, subset, h <= tol


def compare_levels(x: FuzzyNumber, y: FuzzyNumber,
                   tol: float = 1e-9) -> list[LevelResult]:
    """Levelwise comparison of two fuzzy numbers on the same grid.

    Reports, per grid alpha, the Hausdorff distance between the levels,
    whether the level of x is contained in the level of y (within tol) and
    whether the two are equal (within tol).  The three are computed for
    every level at once, as arrays; only the rows are built per level.
    A negative or NaN tol raises ValueError.
    """
    if x.k != y.k:
        raise ValueError(f"grid mismatch: K={x.k} vs K={y.k}; resample first")
    if not tol >= 0:
        raise ValueError(f"tol must be non-negative, got {tol!r}")
    return _level_rows(x, y, *_compared(x, y, tol))

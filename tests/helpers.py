"""Shared generators and reference computations for the test suite."""

import contextlib
import gc
import math
import re
from unittest import mock

import numpy as np
import pytest

from fuzzyarith import (CorrelationFunction, FuzzyNumber, Interval, LevelResult, arithmetic,
                        trapezoidal, triangular)
from fuzzyarith.fuzzy import NEST_TOL, _scaled_slack
from fuzzyarith.oracle import MERGE_WINDOW, SampledMembership


def random_shape(rng, lo=-10.0, hi=10.0, grid=100, min_gap=0.0):
    """Random triangular or trapezoidal number with support inside [lo, hi].

    min_gap > 0 forces strictly separated break points (strictly sloped
    sides, non-degenerate core).
    """
    n = int(rng.integers(3, 5))
    while True:
        pts = np.sort(rng.uniform(lo, hi, n))
        if min_gap <= 0 or np.all(np.diff(pts) >= min_gap):
            break
    make = triangular if n == 3 else trapezoidal
    return make(*pts, grid=grid)


def random_sign_definite(rng, side, grid=100, min_gap=0.0):
    """Random shape whose support stays strictly on one side of zero."""
    a = random_shape(rng, 0.4, 9.0, grid=grid, min_gap=min_gap)
    if side < 0:
        return FuzzyNumber(-a.his, -a.los)
    return a


def monotone_image(f, iv):
    """Image of an interval under a continuous strictly monotone function,
    one scalar evaluation per end: an increasing f maps [a, b] onto
    [f(a), f(b)], a decreasing one swaps the ends.  The function's domain is
    checked first, so a reciprocal shape across zero raises DomainError.
    Reference only, for ``induced_number``."""
    f.require_on(iv)
    a = float(f(iv.lo))
    b = float(f(iv.hi))
    if f.direction == "decreasing":
        a, b = b, a
    return Interval(a, b)


def dense_range(g, lo, hi, n=200_001):
    """Brute-force min/max of g over [lo, hi]. Reference only; slow."""
    xs = np.linspace(lo, hi, n)
    ys = np.asarray(g(xs), dtype=float)
    return float(ys.min()), float(ys.max())


def assert_levels_match_scan(res, a, g, n=2001):
    """Each level of res is the range of g over the matching level of a: it
    contains a dense scan of n points and exceeds the scan by at most the
    scan's largest step between neighbouring values."""
    for i in range(a.k + 1):
        ys = np.asarray(g(np.linspace(a.los[i], a.his[i], n)), dtype=float)
        lo, hi = ys.min(), ys.max()
        step = np.abs(np.diff(ys)).max()
        tol = 1e-9 * (1.0 + max(abs(lo), abs(hi)))
        assert lo - step - tol <= res.los[i] <= lo + tol, i
        assert hi - tol <= res.his[i] <= hi + step + tol, i


def dense_levels_from_membership(s, grid, delta):
    """Level ends (los, his) rebuilt through a (K+1) x n membership mask, the
    way ``levels_from_membership`` once did; raises its ValueErrors.
    Reference only; memory grows as K * n."""
    top = float(s.mus.max())
    if top < 1.0 - delta:
        raise ValueError(
            f"sampled membership peaks at {top:g}, below the level threshold "
            f"{1.0 - delta:g}; sample more densely or widen delta")
    mask = s.mus[None, :] >= (np.linspace(0.0, 1.0, grid + 1) - delta)[:, None]
    los = np.where(mask, s.zs[None, :], np.inf).min(axis=1)
    his = np.where(mask, s.zs[None, :], -np.inf).max(axis=1)
    return los, his


def reference_levels_from_membership(s, grid, delta):
    """``levels_from_membership`` as it once was: the samples sorted by
    falling membership, so each level set is a prefix of that order and its
    ends are a running min/max of z read at the prefix length.  Reference
    only; it sorts a second time."""
    top = float(s.mus.max())
    if top < 1.0 - delta:
        raise ValueError(
            f"sampled membership peaks at {top:g}, below the level threshold "
            f"{1.0 - delta:g}; sample more densely or widen delta")
    order = np.argsort(-s.mus, kind="stable")
    counts = np.searchsorted(-s.mus[order], -(np.linspace(0.0, 1.0, grid + 1) - delta),
                             side="right")
    zs = s.zs[order]
    return FuzzyNumber(np.minimum.accumulate(zs)[counts - 1],
                       np.maximum.accumulate(zs)[counts - 1])


def reference_extend(joint, op):
    """``extend`` as it once was: every z sorted stably and every sample
    merged through ``reduceat``, even where no two z collide.  Reference
    only; a NaN z is merged into the group before it."""
    zs = joint.xs + joint.ys if op == "sum" else joint.xs * joint.ys
    order = np.argsort(zs, kind="stable")
    zs = zs[order]
    mus = joint.mu[order]
    first = np.flatnonzero(np.concatenate(([True], np.diff(zs) > MERGE_WINDOW)))
    return SampledMembership(zs=zs[first], mus=np.maximum.reduceat(mus, first))


def reference_fuzzy_ends(los, his):
    """The (los, his) arrays ``FuzzyNumber(los, his)`` stores, worked out
    as its constructor once did: the finiteness and tolerance checks and the
    repair run on every input, then the test of the repaired support's
    width; raises its ValueErrors.  Reference only."""
    los = np.array(los, dtype=float)
    his = np.array(his, dtype=float)
    if los.ndim != 1 or his.ndim != 1 or los.shape != his.shape:
        raise ValueError("endpoint arrays must be 1-d and of equal length")
    if los.size < 2:
        raise ValueError("need at least two levels (grid size K >= 1)")
    if not (np.isfinite(los).all() and np.isfinite(his).all()):
        i = int(np.argmin(np.isfinite(los) & np.isfinite(his)))
        raise ValueError(f"level endpoints must be finite; the level at alpha "
                         f"{i / (los.size - 1):g} is [{los[i]:g}, {his[i]:g}]")
    with np.errstate(over="ignore"):
        if np.any(los > his + NEST_TOL) and np.any(los > his + _scaled_slack(los, his)):
            raise ValueError("level lower endpoint exceeds upper endpoint")
        dlo, dhi = np.diff(los), np.diff(his)
        if np.any(dlo < -NEST_TOL) or np.any(dhi > NEST_TOL):
            tol = _scaled_slack(los, his)
            if np.any(dlo < -tol) or np.any(dhi > tol):
                raise ValueError("levels are not nested")
    los = np.maximum.accumulate(los)
    his = np.minimum.accumulate(his)
    crossed = los > his
    if crossed.any():
        lo, hi = los[crossed], his[crossed]
        with np.errstate(over="ignore"):
            mid = 0.5 * (lo + hi)
        wide = ~np.isfinite(mid)
        mid[wide] = 0.5 * lo[wide] + 0.5 * hi[wide]
        los[crossed] = mid
        his[crossed] = mid
        los = np.minimum.accumulate(los[::-1])[::-1]
        his = np.maximum.accumulate(his[::-1])[::-1]
    if math.isinf(float(his[0]) - float(los[0])):
        raise ValueError(f"support [{float(los[0])!r}, {float(his[0])!r}] is wider than the "
                         f"float range")
    return los, his


def wider_than_floats(what, lo, hi):
    """pytest.raises for the ValueError of a ``what`` [lo, hi] whose width
    hi - lo passes the float range, naming its ends as repr gives them."""
    ends = f"{re.escape(repr(lo))}, {re.escape(repr(hi))}"
    return pytest.raises(ValueError, match=f"^{what} \\[{ends}\\] is wider than the float range$")


def _reference_curve_alphas(ends, pts):
    """The alpha at which the non-decreasing endpoint curve ends reaches
    each point: 1 at or past its last node, -1 below its first."""
    k = ends.size - 1
    i = np.searchsorted(ends, pts, side="right") - 1
    seg = np.clip(i, 0, k - 1)
    gap = ends[seg + 1] - ends[seg]
    off = pts - ends[seg]
    alphas = (seg + off / np.where(gap > 0, gap, 1.0)) / k
    alphas = np.where(i >= k, 1.0, alphas)
    return np.where(i < 0, -1.0, alphas)


def reference_membership(a, x):
    """``FuzzyNumber.membership`` as it once was: every point inverted on
    both endpoint curves and the two readings combined with ``min``; a NaN
    point reads 1.  Reference only."""
    arr = np.asarray(x, dtype=float)
    pts = np.atleast_1d(arr)
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.minimum(_reference_curve_alphas(a.los, pts),
                         _reference_curve_alphas(-a.his, -pts))
    out = np.where(out < 0.0, 0.0, out)
    return float(out[0]) if arr.ndim == 0 else out


def reference_compare_levels(x, y, tol=1e-9):
    """The rows of ``compare_levels`` built one level at a time from
    ``Interval`` methods, the way it once worked.  Reference only; one
    Python object per level."""
    if x.k != y.k:
        raise ValueError(f"grid mismatch: K={x.k} vs K={y.k}; resample first")
    out = []
    for i, alpha in enumerate(x.alphas):
        li = x.level(i)
        ri = y.level(i)
        out.append(LevelResult(
            alpha=float(alpha),
            left=li,
            right=ri,
            hausdorff=li.hausdorff(ri),
            subset=ri.contains(li, tol),
            equal=li.approx_equal(ri, tol),
        ))
    return out


def reference_alpha_cut(x, alpha):
    """The level ends (lo, hi) of x at one alpha, interpolated with Python
    scalars one alpha at a time.  Reference only."""
    pos = alpha * x.k
    i = int(pos)
    if i >= x.k:
        return float(x.los[x.k]), float(x.his[x.k])
    t = pos - i
    return (float(x.los[i] + t * (x.los[i + 1] - x.los[i])),
            float(x.his[i] + t * (x.his[i + 1] - x.his[i])))


def reference_correlation_values(f, xs):
    """``CorrelationFunction.values`` as it once was: a custom fn called
    through a generator, one ``float(fn(float(x)))`` per point.  Reference
    only."""
    if f.family == "custom":
        return np.fromiter((float(f.fn(float(x))) for x in xs), float, len(xs))
    return np.asarray(f(np.asarray(xs, dtype=float)), dtype=float)


@contextlib.contextmanager
def per_point_evaluation():
    """Within the block the library evaluates custom functions the way it
    once did: the check, the induced number and the oracle through
    ``reference_correlation_values``, and the range engine point by point,
    one ``point(float(x))`` per array element through a generator, where
    ``point`` is the one-float g of the plan it runs (x + fn(x) or
    x * fn(x) for a custom f).  The plan keeps the values of g that the
    monotonicity check already gave, so a scan calls ``point`` in order at
    its points off the check's grid only, as the library calls fn.  The
    plans of the correlated operations and of range_over_interval are all
    run by ``_range_levels``, so wrapping it covers both."""
    range_levels = arithmetic._range_levels

    def per_point(plan, los, his, method):
        _, point, extrema, known = plan
        values = lambda xs: np.fromiter((point(float(x)) for x in xs), float, xs.size)
        return range_levels((values, point, extrema, known), los, his, method)

    with mock.patch.object(arithmetic, "_range_levels", per_point), \
            mock.patch.object(CorrelationFunction, "values", reference_correlation_values):
        yield


def collections_during(fn):
    """fn() and the number of collections the cyclic garbage collector
    started while it ran.  A full collection runs first, so that none is
    due when fn starts (3.12 runs a due collection at its next check of
    the eval loop, not at the allocation that made it due)."""
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])
    gc.collect()
    gc.callbacks.append(count)
    try:
        result = fn()
    finally:
        gc.callbacks.remove(count)
    return result, len(starts)


def grid_builds(k, call):
    """How many times call() builds the alpha grid of k steps as
    np.linspace(0.0, 1.0, k + 1)."""
    with mock.patch("numpy.linspace", wraps=np.linspace) as spy:
        call()
    return sum(c.args[:3] == (0.0, 1.0, k + 1) for c in spy.call_args_list)

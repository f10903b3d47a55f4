"""Shared generators and reference computations for the test suite."""

import contextlib
from unittest import mock

import numpy as np

from fuzzyarith import (AlphaGrid, CorrelationFunction, FuzzyNumber, LevelResult, arithmetic,
                        trapezoidal, triangular)


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
    grid = AlphaGrid.coerce(grid)
    if s.zs.size == 0:
        raise ValueError("no samples to rebuild levels from")
    top = float(s.mus.max())
    if top < 1.0 - delta:
        raise ValueError(
            f"sampled membership peaks at {top:g}, below the level threshold "
            f"{1.0 - delta:g}; sample more densely or widen delta")
    mask = s.mus[None, :] >= (grid.alphas() - delta)[:, None]
    los = np.where(mask, s.zs[None, :], np.inf).min(axis=1)
    his = np.where(mask, s.zs[None, :], -np.inf).max(axis=1)
    if not np.isfinite(los).all():
        raise ValueError("a level set came out empty; inconsistent membership input")
    return los, his


def reference_compare_levels(x, y, tol=1e-9):
    """The rows of ``compare_levels`` built one level at a time from
    ``Interval`` methods, the way it once worked.  Reference only; one
    Python object per level."""
    if x.k != y.k:
        raise ValueError(f"grid mismatch: K={x.k} vs K={y.k}; resample first")
    out = []
    for i, alpha in enumerate(x.grid.alphas()):
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


def reference_values(g, xs):
    """g at every point of xs, one ``g(float(x))`` per point through a
    generator, the way ``arithmetic._values`` once evaluated every g that
    states no extrema.  Reference only."""
    if hasattr(g, "extrema"):
        return np.asarray(g(xs), dtype=float)
    return np.fromiter((g(float(x)) for x in xs), float, xs.size)


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
    ``reference_correlation_values``, the engine through
    ``reference_values``, which calls a custom g at one point at a time
    (x + fn(x) or x * fn(x) on a Python float)."""
    with mock.patch.object(arithmetic, "_values", reference_values), \
            mock.patch.object(CorrelationFunction, "values", reference_correlation_values):
        yield

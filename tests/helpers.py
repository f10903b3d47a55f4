"""Shared generators and reference computations for the test suite."""

import numpy as np

from fuzzyarith import FuzzyNumber, trapezoidal, triangular


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

"""Output checks that do not trust the engine.

Each check recomputes what it needs from the operands with numpy (the
levelwise interval arithmetic, the images of the levels under f, a dense
scan of x + f(x) or x * f(x) over every level) and raises CheckFailed on
a miss.  The library's own ``closed_form`` is used only as a second,
separately written reference, and only where it is exact.

A program that reports its own failure (an exception, a report that did
not pass, a failing exit code) is counted as failed; only a result the
program presents as right and that a check refutes counts as incorrect.

Tolerances: endpoint comparisons allow REL_TOL * (1 + |value|) per level.
A dense scan evaluates SCAN_POINTS equispaced points per level; an engine
level must contain the scan's range (within the tolerance) and may
exceed it by no more than the largest step between neighbouring scan
values, which bounds how far the true extremum can lie beyond the scan.
"""

from __future__ import annotations

import numpy as np

from fuzzyarith import closed_form

REL_TOL = 1e-9
SCAN_POINTS = 129
SCAN_CHUNK = 512          # levels per scan chunk, keeps the check's memory small


class CheckFailed(AssertionError):
    """The program returned a wrong result as if it were right."""


class ReportedFailure(Exception):
    """The program itself reported failure: oracle_check not passing, or a
    nonzero exit where success was expected.  Counted as failed, not as a
    wrong result."""


def _require(ok, what: str) -> None:
    if not bool(np.all(ok)):
        raise CheckFailed(what)


def _tol(*arrays) -> np.ndarray:
    return REL_TOL * (1.0 + np.max([np.abs(a) for a in arrays], axis=0))


def nested(los: np.ndarray, his: np.ndarray) -> None:
    _require(np.diff(los) >= 0, "lower endpoints decrease with alpha")
    _require(np.diff(his) <= 0, "upper endpoints increase with alpha")
    _require(los <= his, "a level has lo > hi")


def _close(res, los, his, what: str) -> None:
    nested(res.los, res.his)
    tol = _tol(los, his)
    _require(np.abs(res.los - los) <= tol, f"{what}: lower endpoints differ")
    _require(np.abs(res.his - his) <= tol, f"{what}: upper endpoints differ")


def image(f, los, his):
    """Levels of f(A): endpoint images, swapped for a decreasing f."""
    a, b = f.vec(los), f.vec(his)
    return (b, a) if f.decreasing else (a, b)


def standard(alos, ahis, blos, bhis, op: str):
    if op in ("sum", "std_sum"):
        return alos + blos, ahis + bhis
    p = np.stack([alos * blos, alos * bhis, ahis * blos, ahis * bhis])
    return p.min(axis=0), p.max(axis=0)


def scan(g, los, his):
    """Per level: min and max of g on SCAN_POINTS points, and the largest
    step between neighbouring values."""
    t = np.linspace(0.0, 1.0, SCAN_POINTS)
    mins, maxs, steps = [], [], []
    for s in range(0, los.size, SCAN_CHUNK):
        lo, hi = los[s:s + SCAN_CHUNK, None], his[s:s + SCAN_CHUNK, None]
        xs = lo + (hi - lo) * t
        xs[:, 0], xs[:, -1] = lo[:, 0], hi[:, 0]
        ys = g(xs)
        mins.append(ys.min(axis=1))
        maxs.append(ys.max(axis=1))
        steps.append(np.abs(np.diff(ys, axis=1)).max(axis=1))
    return np.concatenate(mins), np.concatenate(maxs), np.concatenate(steps)


def exact_range(res, a, f, op: str) -> None:
    """res holds the range of x + f(x) or x * f(x) over each level of a."""
    nested(res.los, res.his)
    if op == "sum":
        g = lambda x: x + f.vec(x)
    else:
        g = lambda x: x * f.vec(x)
    lo, hi, step = scan(g, a.los, a.his)
    tol = _tol(lo, hi)
    _require(res.los <= lo + tol, "a level misses the low end of the dense scan")
    _require(res.his >= hi - tol, "a level misses the high end of the dense scan")
    _require(res.los >= lo - step - tol, "a level reaches below the dense scan's bound")
    _require(res.his <= hi + step + tol, "a level reaches above the dense scan's bound")


def check_standard(res, alos, ahis, blos, bhis, op: str) -> None:
    _close(res, *standard(alos, ahis, blos, bhis, op), op)


def check_induced(res, a, f) -> None:
    _close(res, *image(f, a.los, a.his), "induced_number")


def check_correlated(res, a, f, op: str, analytic: bool) -> None:
    exact_range(res, a, f, op)
    slo, shi = standard(a.los, a.his, *image(f, a.los, a.his), op)
    tol = _tol(slo, shi)
    _require(res.los >= slo - tol, "correlated result leaves the standard result (low)")
    _require(res.his <= shi + tol, "correlated result leaves the standard result (high)")
    if f.name == "negation" and op == "sum":
        _close(res, np.zeros_like(a.los), np.zeros_like(a.his), "sum with negation")
    if f.name == "reciprocal" and op == "product":
        _close(res, np.ones_like(a.los), np.ones_like(a.his), "product with reciprocal")
    if analytic:
        kind = closed_kind(f, a, op)
        if kind is not None:
            ref = closed_form(kind, a, f.q, f.r)
            _close(res, ref.los, ref.his, f"closed form {kind}")


def corr_prod_linear_exact(a, q: float, r: float) -> bool:
    """Where q*x**2 + r*x is ranged exactly by ranging its terms apart:
    r = 0, or a one-signed support with sign(r) = sign(q) * sign(support)."""
    lo, hi = float(a.los[0]), float(a.his[0])
    if r == 0.0 or lo == hi:
        return True
    if lo >= 0:
        return (r > 0) == (q > 0)
    if hi <= 0:
        return (r > 0) == (q < 0)
    return False


def closed_kind(f, a, op: str) -> str | None:
    """The correlated closed form that is exact for f on a, if any."""
    if f.kind == "linear":
        if op == "sum":
            return "corr-sum-linear"
        return "corr-prod-linear" if corr_prod_linear_exact(a, f.q, f.r) else None
    if f.kind == "hyperbolic" and op == "product":
        return "corr-prod-hyperbolic"
    return None


def check_closed_form(res, a, f, ref: str) -> None:
    if ref.startswith("std"):
        _close(res, *standard(a.los, a.his, *image(f, a.los, a.his), ref), ref)
    else:
        exact_range(res, a, f, ref)


def check_compare(rows, corr, std) -> None:
    _require(len(rows) == corr.k + 1, "compare_levels returned the wrong number of rows")
    lo = np.array([r.left.lo for r in rows])
    hi = np.array([r.left.hi for r in rows])
    slo = np.array([r.right.lo for r in rows])
    shi = np.array([r.right.hi for r in rows])
    _require((lo == corr.los) & (hi == corr.his) & (slo == std.los) & (shi == std.his),
             "compare_levels rows do not hold the compared levels")
    h = np.maximum(np.abs(lo - slo), np.abs(hi - shi))
    _require(np.array([r.hausdorff for r in rows]) == h, "wrong Hausdorff distance")
    subset = (lo >= slo - 1e-9) & (hi <= shi + 1e-9)
    _require(np.array([r.subset for r in rows]) == subset, "wrong subset flag")
    tol = _tol(slo, shi)
    _require((lo >= slo - tol) & (hi <= shi + tol), "correlated level outside standard level")


def check_oracle(report, K: int) -> None:
    _require(len(report.levels) == K + 1, "oracle report has the wrong number of levels")
    if not report.passed:
        raise ReportedFailure(f"oracle_check did not pass: max Hausdorff "
                              f"{report.max_hausdorff:g} > tolerance {report.tolerance:g}")

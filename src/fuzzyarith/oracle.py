"""Brute-force reference results for the correlated operations.

Because the joint possibility of (A, f(A)) lives on the graph of f, the
sup-of-min extension collapses to a one-dimensional sweep: sample x over
the support of A, carry the membership of x to z = x + f(x) or x * f(x),
and rebuild level sets from the sampled membership.  The error of the
reconstruction shrinks like the sample spacing, which is what makes the
oracle usable as an independent check of the range engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arithmetic import (BINARY_OPS, RangeMethod, LevelResult, _profile, _resolve,
                         correlated_product, correlated_sum)
from .correlation import CorrelationFunction, _validate_custom
from .fuzzy import AlphaGrid, FuzzyNumber
from .interval import Interval

DEFAULT_SAMPLES = 2001
MIN_SAMPLES = 101

# Two z samples closer than this are treated as the same output value and
# keep the larger membership.
MERGE_WINDOW = 1e-12


@dataclass(frozen=True)
class JointDistribution:
    """Graph samples of the coupled pair: points (xs[i], ys[i]) with
    possibility mu[i], ys = f(xs)."""

    xs: np.ndarray
    mu: np.ndarray
    ys: np.ndarray

    def __post_init__(self) -> None:
        if not (self.xs.shape == self.mu.shape == self.ys.shape) or self.xs.ndim != 1:
            raise ValueError("xs, mu and ys must be 1-d arrays of one length")
        if self.xs.size > 1 and not np.all(np.diff(self.xs) > 0):
            raise ValueError("xs must be strictly increasing")
        if np.any(self.mu < 0.0) or np.any(self.mu > 1.0):
            raise ValueError("membership values must lie in [0, 1]")


@dataclass(frozen=True)
class SampledMembership:
    """Output samples zs with their memberships, zs strictly increasing."""

    zs: np.ndarray
    mus: np.ndarray


def _check_op(op: str) -> None:
    if op not in BINARY_OPS:
        raise ValueError(f"op must be one of {BINARY_OPS}, got {op!r}")


def build_joint(a: FuzzyNumber, f: CorrelationFunction,
                n: int = DEFAULT_SAMPLES) -> JointDistribution:
    """Sample the graph coupling of (A, f(A)) at n equispaced support points.

    A crisp operand collapses to the single sample it carries.
    """
    if n < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {n}")
    sup = a.support
    f.require_on(sup)
    _validate_custom(f, sup)
    if sup.width == 0.0:
        xs = np.array([sup.lo])
    else:
        xs = np.linspace(sup.lo, sup.hi, n)
    mu = np.atleast_1d(np.asarray(a.membership(xs), dtype=float))
    ys = f.values(xs)
    return JointDistribution(xs=xs, mu=mu, ys=ys)


def extend(joint: JointDistribution, op: str) -> SampledMembership:
    """Push the joint samples through the operation.

    Outputs are sorted by z; samples whose z values collide within
    MERGE_WINDOW are collapsed, keeping the largest membership.
    """
    _check_op(op)
    zs = joint.xs + joint.ys if op == "sum" else joint.xs * joint.ys
    order = np.argsort(zs, kind="stable")
    zs = zs[order]
    mus = joint.mu[order]
    starts = np.empty(zs.size, dtype=bool)
    starts[0] = True
    if zs.size > 1:
        starts[1:] = np.diff(zs) > MERGE_WINDOW
    first = np.flatnonzero(starts)
    return SampledMembership(zs=zs[first], mus=np.maximum.reduceat(mus, first))


def levels_from_membership(s: SampledMembership, grid: AlphaGrid | int = None,
                           delta: float | None = None) -> FuzzyNumber:
    """Rebuild a level family from sampled membership values.

    Level alpha collects the z samples with membership >= alpha - delta;
    delta absorbs the quantization of membership between neighbouring
    samples (default 1/(2K)).  The thresholds tighten with alpha, so the
    reconstructed levels nest by construction.
    """
    grid = AlphaGrid.coerce(grid if grid is not None else AlphaGrid())
    if delta is None:
        delta = 1.0 / (2.0 * grid.K)
    if s.zs.size == 0:
        raise ValueError("no samples to rebuild levels from")
    top = float(s.mus.max())
    if top < 1.0 - delta:
        raise ValueError(
            f"sampled membership peaks at {top:g}, below the level threshold "
            f"{1.0 - delta:g}; sample more densely or widen delta")
    thresholds = grid.alphas() - delta
    mask = s.mus[None, :] >= thresholds[:, None]
    los = np.where(mask, s.zs[None, :], np.inf).min(axis=1)
    his = np.where(mask, s.zs[None, :], -np.inf).max(axis=1)
    if not np.isfinite(los).all():
        raise ValueError("a level set came out empty; inconsistent membership input")
    return FuzzyNumber(los, his)


@dataclass(frozen=True)
class OracleReport:
    """Engine-versus-oracle comparison across one full level family."""

    op: str
    n: int
    tolerance: float
    max_hausdorff: float
    passed: bool
    levels: list[LevelResult]
    minkowski: list[Interval] | None = None

    def to_json(self) -> dict:
        rows = []
        for i, lr in enumerate(self.levels):
            row = {
                "alpha": lr.alpha,
                "engine": [lr.left.lo, lr.left.hi],
                "oracle": [lr.right.lo, lr.right.hi],
                "hausdorff": lr.hausdorff,
            }
            if self.minkowski is not None:
                row["minkowski"] = [self.minkowski[i].lo, self.minkowski[i].hi]
            rows.append(row)
        return {
            "op": self.op,
            "n": self.n,
            "tolerance": self.tolerance,
            "max_hausdorff": self.max_hausdorff,
            "passed": self.passed,
            "levels": rows,
        }


def _auto_delta(joint: JointDistribution) -> float:
    """Threshold slack matched to the sampling resolution.

    Half of the largest membership step keeps samples just outside a level
    from leaking in while tolerating float noise at the boundary; the
    second term guarantees the top level stays populated when the peak
    falls between samples.
    """
    if joint.mu.size < 2:
        return MERGE_WINDOW
    quantum = float(np.abs(np.diff(joint.mu)).max())
    short = 1.0 - float(joint.mu.max())
    return max(0.5 * quantum, short + MERGE_WINDOW, MERGE_WINDOW)


def _minkowski_sum_reading(a: FuzzyNumber, f: CorrelationFunction) -> list[Interval] | None:
    """The per-level interval sum [A]^alpha + q*{1/x} + r for reciprocal shapes.

    This is the value a termwise interval evaluation of x + q/x + r would
    give.  It can strictly contain the true correlated sum, which is why it
    is reported for comparison only.
    """
    qr = f.hyperbolic_coeffs
    if qr is None:
        return None
    q, r = qr
    out = []
    for i in range(a.k + 1):
        lv = a.level(i)
        t1, t2 = q / lv.hi, q / lv.lo
        out.append(Interval(lv.lo + min(t1, t2) + r, lv.hi + max(t1, t2) + r))
    return out


def oracle_check(a: FuzzyNumber, f: CorrelationFunction, op: str,
                 n: int = DEFAULT_SAMPLES, grid: AlphaGrid | int | None = None,
                 delta: float | None = None,
                 method: RangeMethod | None = None) -> OracleReport:
    """Run the engine and the brute-force oracle side by side.

    The acceptance tolerance is 5 * support_width / n; the report records
    per-level Hausdorff distances and whether they all fit.  For sums of
    reciprocal-shaped correlations the report also carries the termwise
    interval reading of each level, which genuinely differs from the range.
    """
    _check_op(op)
    if grid is not None:
        a = a.resample(grid)
    engine_op = correlated_sum if op == "sum" else correlated_product
    engine = engine_op(a, f, method)
    joint = build_joint(a, f, n)
    if delta is None:
        delta = _auto_delta(joint)
    approx = levels_from_membership(extend(joint, op), a.grid, delta)

    method_name = _resolve(_profile(f, op), method).mode
    alphas = a.grid.alphas()
    rows = []
    for i, alpha in enumerate(alphas):
        li = engine.level(i)
        ri = approx.level(i)
        rows.append(LevelResult(
            alpha=float(alpha), left=li, right=ri,
            hausdorff=li.hausdorff(ri),
            subset=ri.contains(li, 0.0),
            equal=li.approx_equal(ri, 0.0),
            method=method_name,
        ))
    max_h = max(r.hausdorff for r in rows)
    tolerance = 5.0 * a.support.width / n
    minkowski = _minkowski_sum_reading(a, f) if op == "sum" else None
    return OracleReport(op=op, n=n, tolerance=tolerance, max_hausdorff=max_h,
                        passed=max_h <= tolerance, levels=rows, minkowski=minkowski)

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
from functools import cached_property

import numpy as np

from .arithmetic import (BINARY_OPS, LevelResult, RangeMethod, _compared, _level_rows, _route,
                         correlated_product, correlated_sum)
from .correlation import CorrelationFunction
from .fuzzy import AlphaGrid, FuzzyNumber

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
    f.check_on(sup)
    xs = np.array([sup.lo]) if sup.width == 0.0 else np.linspace(sup.lo, sup.hi, n)
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
    first = np.flatnonzero(np.concatenate(([True], np.diff(zs) > MERGE_WINDOW)))
    return SampledMembership(zs=zs[first], mus=np.maximum.reduceat(mus, first))


def levels_from_membership(s: SampledMembership, grid: AlphaGrid | int = None,
                           delta: float | None = None) -> FuzzyNumber:
    """Rebuild a level family from sampled membership values.

    Level alpha collects the z samples with membership >= alpha - delta;
    delta absorbs the quantization of membership between neighbouring
    samples (default 1/(2K)).  The thresholds tighten with alpha, so the
    levels nest, and with samples sorted by falling membership each level
    set is a prefix: O(n log n + K) time and O(n + K) memory in all.
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
    order = np.argsort(-s.mus, kind="stable")
    counts = np.searchsorted(-s.mus[order], -(grid.alphas() - delta), side="right")
    if counts.min() == 0:
        raise ValueError("a level set came out empty; inconsistent membership input")
    zs = s.zs[order]
    return FuzzyNumber(np.minimum.accumulate(zs)[counts - 1],
                       np.maximum.accumulate(zs)[counts - 1])


@dataclass(frozen=True)
class OracleReport:
    """Engine-versus-oracle comparison across one full level family, as
    arrays; ``levels``, the rows of compare_levels(engine, oracle, tol=0.0)
    with the method attached, are built on first access."""

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
        return _level_rows(self.engine, self.oracle,
                           *_compared(self.engine, self.oracle, 0.0), self.method)

    def to_json(self) -> dict:
        e, o, extra = self.engine, self.oracle, self.termwise or ()
        cols = (e.grid.alphas(), e.los, e.his, o.los, o.his, self.hausdorff, *extra)
        rows = [{"alpha": r[0], "engine": list(r[1:3]), "oracle": list(r[3:5]), "hausdorff": r[5]}
                | ({"minkowski": list(r[6:])} if extra else {})
                for r in zip(*(c.tolist() for c in cols))]
        return {"op": self.op, "n": self.n, "tolerance": self.tolerance,
                "max_hausdorff": self.max_hausdorff, "passed": self.passed, "levels": rows}


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


def _minkowski_sum_reading(a: FuzzyNumber, f: CorrelationFunction) -> tuple | None:
    """The (lower, upper) ends of the level sums [A]^alpha + q*{1/x} + r for
    reciprocal shapes.

    This is the value a termwise interval evaluation of x + q/x + r would
    give.  It can strictly contain the true correlated sum, which is why it
    is reported for comparison only.
    """
    if f.family != "hyperbolic":
        return None
    q, r = f.q, f.r
    t1, t2 = q / a.his, q / a.los
    return a.los + np.minimum(t1, t2) + r, a.his + np.maximum(t1, t2) + r


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
    h = _compared(engine, approx, 0.0)[0]
    max_h = float(h.max())
    tolerance = 5.0 * a.support.width / n
    return OracleReport(op=op, n=n, tolerance=tolerance, max_hausdorff=max_h,
                        passed=max_h <= tolerance, engine=engine, oracle=approx, hausdorff=h,
                        method="numeric" if _route(f, op, a.support, method)[1] is None
                        else "analytic",
                        termwise=_minkowski_sum_reading(a, f) if op == "sum" else None)

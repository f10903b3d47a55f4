"""Fuzzy numbers stored as nested families of alpha-level intervals.

A fuzzy number A is represented by its level sets [A]^alpha on a uniform
grid alpha_i = i/K, i = 0..K.  Each level is a closed interval, levels
shrink (nest) as alpha grows, and endpoints between grid nodes are read
off by linear interpolation.  The level at alpha = 1 is the closed core.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .interval import Interval

DEFAULT_GRID_K = 100

# Constructors accept this much numerical slack before declaring an input
# non-nested; anything tighter is repaired to an exactly nested family.
NEST_TOL = 1e-12


@dataclass(frozen=True)
class AlphaGrid:
    """Uniform subdivision of [0, 1] into K steps, K + 1 nodes."""

    K: int = DEFAULT_GRID_K

    def __post_init__(self) -> None:
        if not isinstance(self.K, (int, np.integer)) or isinstance(self.K, bool):
            raise ValueError(f"grid size must be an integer, got {self.K!r}")
        if self.K < 1:
            raise ValueError(f"grid size must be at least 1, got {self.K}")
        object.__setattr__(self, "K", int(self.K))

    def alphas(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.K + 1)

    @classmethod
    def coerce(cls, grid: "AlphaGrid | int") -> "AlphaGrid":
        if isinstance(grid, AlphaGrid):
            return grid
        return cls(grid)


class FuzzyNumber:
    """A fuzzy quantity described by K + 1 nested alpha-level intervals.

    The constructor takes the lower and upper endpoint arrays sampled at
    the grid nodes.  It validates finiteness, per-level ordering and
    nestedness (lower endpoints non-decreasing in alpha, upper endpoints
    non-increasing), repairing violations up to NEST_TOL and rejecting
    anything larger.
    """

    __slots__ = ("_los", "_his", "_neg_his")

    def __init__(self, los, his) -> None:
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
        if np.any(los > his + NEST_TOL):
            raise ValueError("level lower endpoint exceeds upper endpoint")
        # a difference past the float range is +-inf and still compares right
        with np.errstate(over="ignore"):
            if np.any(np.diff(los) < -NEST_TOL) or np.any(np.diff(his) > NEST_TOL):
                raise ValueError("levels are not nested")

        # Repair float-scale slack so the stored family is exactly nested.
        los = np.maximum.accumulate(los)
        his = np.minimum.accumulate(his)
        crossed = los > his
        if crossed.any():
            mid = 0.5 * (los[crossed] + his[crossed])
            los[crossed] = mid
            his[crossed] = mid
            # A midpoint can fall below an earlier lower end (or above an
            # earlier upper end); widening the outer levels to it keeps
            # every level ordered and the family nested.
            los = np.minimum.accumulate(los[::-1])[::-1]
            his = np.maximum.accumulate(his[::-1])[::-1]

        los.flags.writeable = False
        his.flags.writeable = False
        object.__setattr__(self, "_los", los)
        object.__setattr__(self, "_his", his)
        object.__setattr__(self, "_neg_his", -his)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("FuzzyNumber instances are immutable")

    # -- basic accessors ----------------------------------------------------

    @property
    def los(self) -> np.ndarray:
        """Lower endpoints at the grid nodes (read-only view)."""
        return self._los

    @property
    def his(self) -> np.ndarray:
        """Upper endpoints at the grid nodes (read-only view)."""
        return self._his

    @property
    def k(self) -> int:
        return self._los.size - 1

    @property
    def grid(self) -> AlphaGrid:
        return AlphaGrid(self.k)

    @property
    def support(self) -> Interval:
        """Closure of the support, the level at alpha = 0."""
        return Interval(self._los[0], self._his[0])

    @property
    def core(self) -> Interval:
        """The closed level at alpha = 1."""
        return Interval(self._los[-1], self._his[-1])

    @property
    def is_nested(self) -> bool:
        """Exact nestedness check of the stored family."""
        return bool(
            np.all(np.diff(self._los) >= 0)
            and np.all(np.diff(self._his) <= 0)
            and np.all(self._los <= self._his)
        )

    def level(self, i: int) -> Interval:
        """The stored level at grid node i (alpha = i / K)."""
        return Interval(self._los[i], self._his[i])

    def alpha_cut(self, alpha: float) -> Interval:
        """Level set at an arbitrary alpha in [0, 1], the one-element case
        of alpha_cuts."""
        (lo,), (hi,) = self.alpha_cuts([alpha])
        return Interval(lo, hi)

    def alpha_cuts(self, alphas) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper ends of the level sets at a 1-d sequence of
        alphas in [0, 1], as two arrays.

        Exact at grid nodes; between nodes the endpoints are linearly
        interpolated.  An alpha outside [0, 1] or NaN raises ValueError, as
        does a level whose interpolated ends are not finite or out of order.
        """
        alphas = np.asarray(alphas, dtype=float)
        bad = ~((0.0 <= alphas) & (alphas <= 1.0))
        if bad.any():
            raise ValueError(f"alpha must lie in [0, 1], got {float(alphas[bad][0])!r}")
        k = self.k
        pos = alphas * k
        top = pos >= k
        i = np.where(top, k - 1, pos.astype(np.intp))
        t = pos - i
        los, his = self._los, self._his
        # a step too wide for a float gives a non-finite end, reported below
        with np.errstate(over="ignore", invalid="ignore"):
            lo = np.where(top, los[k], _interpolated(los, i, t))
            hi = np.where(top, his[k], _interpolated(his, i, t))
        bad = ~(np.isfinite(lo) & np.isfinite(hi) & (lo <= hi))
        if bad.any():
            j = int(np.argmax(bad))
            Interval(float(lo[j]), float(hi[j]))  # raises the Interval's own error
        return lo, hi

    def membership(self, x):
        """Degree of membership, sup of the alphas whose cut contains x.

        Accepts a scalar or an array and evaluates elementwise.  The stored
        endpoint curves are inverted with a binary search followed by linear
        interpolation inside the located grid step, so the result is exact
        for the piecewise linear representation.
        """
        arr = np.asarray(x, dtype=float)
        scalar = arr.ndim == 0
        pts = np.atleast_1d(arr)
        # the upper curve, negated, is non-decreasing: (-p) - (-h) is h - p exactly
        with np.errstate(invalid="ignore"):
            out = np.minimum(_curve_alphas(self._los, pts), _curve_alphas(self._neg_his, -pts))
        out = np.where(out < 0.0, 0.0, out)
        return float(out[0]) if scalar else out

    # -- derived representations ---------------------------------------------

    def resample(self, grid: "AlphaGrid | int") -> "FuzzyNumber":
        """The same fuzzy number re-sampled onto another alpha grid."""
        grid = AlphaGrid.coerce(grid)
        if grid.K == self.k:
            return self
        old = self.grid.alphas()
        new = grid.alphas()
        return FuzzyNumber(np.interp(new, old, self._los),
                           np.interp(new, old, self._his))

    def to_json(self) -> dict:
        """Plain-object form: {"K": K, "levels": [[lo, hi], ...]}."""
        return {
            "K": self.k,
            "levels": [[float(a), float(b)] for a, b in zip(self._los, self._his)],
        }

    def approx_equal(self, other: "FuzzyNumber", tol: float = 1e-9) -> bool:
        if self.k != other.k:
            return False
        return bool(
            np.all(np.abs(self._los - other._los) <= tol)
            and np.all(np.abs(self._his - other._his) <= tol)
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, FuzzyNumber):
            return NotImplemented
        return (self.k == other.k
                and np.array_equal(self._los, other._los)
                and np.array_equal(self._his, other._his))

    __hash__ = None  # array-backed, not hashable

    def __repr__(self) -> str:
        return (f"FuzzyNumber(K={self.k}, support=[{self._los[0]:g}, {self._his[0]:g}], "
                f"core=[{self._los[-1]:g}, {self._his[-1]:g}])")


def _interpolated(ends: np.ndarray, i: np.ndarray, t: np.ndarray) -> np.ndarray:
    """ends[i] + t * (ends[i + 1] - ends[i]); at a grid node (t = 0) a step
    past the float range makes that increment 0 * inf, and the stored end
    is kept instead."""
    inc = t * (ends[i + 1] - ends[i])
    return np.where(np.isnan(inc), ends[i], ends[i] + inc)


def _curve_alphas(ends: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """The alpha at which the non-decreasing endpoint curve ends (one value
    per grid node) reaches each point, linear inside the located grid
    step: 1 at or past its last node, -1 below its first."""
    k = ends.size - 1
    i = np.searchsorted(ends, pts, side="right") - 1
    seg = np.clip(i, 0, k - 1)
    gap = ends[seg + 1] - ends[seg]
    alphas = (seg + (pts - ends[seg]) / np.where(gap > 0, gap, 1.0)) / k
    alphas = np.where(i >= k, 1.0, alphas)
    return np.where(i < 0, -1.0, alphas)


# -- constructors -------------------------------------------------------------


def triangular(a: float, b: float, c: float,
               grid: AlphaGrid | int = DEFAULT_GRID_K) -> FuzzyNumber:
    """Triangular fuzzy number with support [a, c] and peak b.

    Level endpoints are a + alpha*(b - a) and c - alpha*(c - b).
    """
    if not a <= b <= c:
        raise ValueError(f"triangular parameters must satisfy a <= b <= c, got {(a, b, c)}")
    al = AlphaGrid.coerce(grid).alphas()
    return FuzzyNumber(a + al * (b - a), c - al * (c - b))


def trapezoidal(a: float, b: float, c: float, d: float,
                grid: AlphaGrid | int = DEFAULT_GRID_K) -> FuzzyNumber:
    """Trapezoidal fuzzy number with support [a, d] and plateau [b, c]."""
    if not a <= b <= c <= d:
        raise ValueError(
            f"trapezoidal parameters must satisfy a <= b <= c <= d, got {(a, b, c, d)}")
    al = AlphaGrid.coerce(grid).alphas()
    return FuzzyNumber(a + al * (b - a), d - al * (d - c))


def crisp(a: float, grid: AlphaGrid | int = DEFAULT_GRID_K) -> FuzzyNumber:
    """Degenerate fuzzy number concentrated at the single value a."""
    n = AlphaGrid.coerce(grid).K + 1
    return FuzzyNumber(np.full(n, float(a)), np.full(n, float(a)))


def from_levels(levels) -> FuzzyNumber:
    """Build a fuzzy number from an explicit (K+1, 2) array of levels.

    Row i holds [lo, hi] at alpha = i / K.  Non-nested input beyond the
    repair tolerance is rejected.
    """
    arr = np.asarray(levels, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("levels must be a (K+1, 2) array of [lo, hi] rows")
    return FuzzyNumber(arr[:, 0], arr[:, 1])


def fuzzy_from_json(obj) -> FuzzyNumber:
    """Parse the JSON forms for fuzzy numbers.

    Accepts the full {"K": ..., "levels": [[lo, hi], ...]} form and the
    shorthands {"tri": [a, b, c]}, {"trap": [a, b, c, d]}, {"crisp": a};
    shorthands honor an optional "K" key (default 100).
    """
    if not isinstance(obj, dict):
        raise ValueError(f"expected an object describing a fuzzy number, got {obj!r}")
    grid = obj.get("K", DEFAULT_GRID_K)
    if "tri" in obj:
        return triangular(*obj["tri"], grid=grid)
    if "trap" in obj:
        return trapezoidal(*obj["trap"], grid=grid)
    if "crisp" in obj:
        val = obj["crisp"]
        if isinstance(val, (list, tuple)):
            (val,) = val
        return crisp(val, grid=grid)
    if "levels" in obj:
        fn = from_levels(obj["levels"])
        if "K" in obj and fn.k != obj["K"]:
            raise ValueError(f"levels length {fn.k + 1} does not match K={obj['K']}")
        return fn
    raise ValueError(f"unrecognized fuzzy number object: {obj!r}")

"""Fuzzy numbers stored as nested families of alpha-level intervals.

A fuzzy number A is represented by its level sets [A]^alpha on a uniform
grid alpha_i = i/K, i = 0..K.  Each level is a closed interval, levels
shrink (nest) as alpha grows, and endpoints between grid nodes are read
off by linear interpolation.  The level at alpha = 1 is the closed core.
"""

from __future__ import annotations

import math

import numpy as np

from .interval import Interval

DEFAULT_GRID_K = 100

# Constructors accept this much numerical slack before declaring an input
# non-nested; anything tighter is repaired to an exactly nested family.
NEST_TOL = 1e-12

# ... or this many ulps of the largest |end|, where that is more: rounding can
# leave a + alpha*(b - a) above c - alpha*(c - b) by less than 6 ulps of the
# largest |end|, and NEST_TOL is less than one ulp past 8192.
NEST_ULPS = 8


def _integer(value, what: str) -> int:
    """value as an int; ValueError naming ``what`` unless it is an integer
    (a bool or an integral float is not)."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _grid_size(k) -> int:
    """k, the number of steps of a uniform alpha grid, as an int;
    ValueError unless it is an integer of at least 1."""
    k = _integer(k, "grid size")
    if k < 1:
        raise ValueError(f"grid size must be at least 1, got {k}")
    return k


def _linspace(lo: float, hi: float, n: int) -> np.ndarray:
    """np.linspace(lo, hi, n); over a width past the float range, the
    samples of the halved ends doubled, which is exact at those magnitudes.
    The width is taken on Python floats, which overflow without a warning."""
    if math.isfinite(float(hi) - float(lo)):
        return np.linspace(lo, hi, n)
    return 2.0 * np.linspace(0.5 * lo, 0.5 * hi, n)


class FuzzyNumber:
    """A fuzzy quantity described by K + 1 nested alpha-level intervals.

    It holds nothing but ``los`` and ``his``, the lower and upper ends at
    the grid nodes alpha_i = i / K, as read-only float arrays.  The
    constructor copies the arrays it is given once.  It first checks in
    O(K) comparisons whether they are exactly nested (lower endpoints
    non-decreasing in alpha, upper endpoints non-increasing, the core
    ordered, the support ends finite); such ends are stored as given.  Only
    when that check fails does it validate finiteness, per-level ordering
    and nestedness, repairing violations up to NEST_TOL, or NEST_ULPS ulps
    of the largest |end| where that is more, and rejecting anything larger.
    Two numbers are equal when their arrays are; being array-backed, a
    number is not hashable.
    """

    __slots__ = ("los", "his")

    def __init__(self, los, his) -> None:
        los = np.array(los, dtype=float)
        his = np.array(his, dtype=float)
        if los.ndim != 1 or his.ndim != 1 or los.shape != his.shape:
            raise ValueError("endpoint arrays must be 1-d and of equal length")
        if los.size < 2:
            raise ValueError("need at least two levels (grid size K >= 1)")
        # Exactly nested input, checked in O(K): with neighbours ordered and
        # the core ordered, every end lies between the two support ends, so
        # finite support ends make every end finite (a NaN fails a
        # comparison).  Such a family needs neither checks nor repair, and
        # its running extremes would be the arrays themselves, bit for bit
        # (on a tie np.maximum returns its second argument, so -0.0 after
        # 0.0 stays -0.0).
        if not (los[-1] <= his[-1] and math.isfinite(los[0]) and math.isfinite(his[0])
                and (los[1:] >= los[:-1]).all() and (his[1:] <= his[:-1]).all()):
            los, his = _checked_and_repaired(los, his)
        los.flags.writeable = False
        his.flags.writeable = False
        object.__setattr__(self, "los", los)
        object.__setattr__(self, "his", his)

    def __setattr__(self, name, value=None):
        raise AttributeError("FuzzyNumber instances are immutable")

    __delattr__ = __setattr__

    # -- basic accessors ----------------------------------------------------

    @property
    def k(self) -> int:
        return self.los.size - 1

    @property
    def alphas(self) -> np.ndarray:
        """The grid alphas i / K, i = 0..K."""
        return np.linspace(0.0, 1.0, self.k + 1)

    @property
    def support(self) -> Interval:
        """Closure of the support, the level at alpha = 0."""
        return Interval(self.los[0], self.his[0])

    @property
    def core(self) -> Interval:
        """The closed level at alpha = 1."""
        return Interval(self.los[-1], self.his[-1])

    def level(self, i: int) -> Interval:
        """The stored level at grid node i (alpha = i / K)."""
        return Interval(self.los[i], self.his[i])

    def alpha_cut(self, alpha: float) -> Interval:
        """Level set at an arbitrary alpha in [0, 1], the one-element case
        of alpha_cuts."""
        (lo,), (hi,) = self.alpha_cuts([alpha])
        return Interval(lo, hi)

    def alpha_cuts(self, alphas) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper ends of the level sets at alphas in [0, 1], as two
        arrays of the shape of ``alphas``.

        Where alpha * K is an exact integer i, the ends equal the stored
        level i under == (a stored -0.0 can come back as 0.0); elsewhere
        they are linearly interpolated between the neighbouring nodes.  A
        grid alpha i / K as np.linspace rounds it need not give i back:
        there the ends are interpolated, a few ulps off the stored ones.
        An alpha outside [0, 1] or NaN raises ValueError, as does a level
        whose interpolated ends are not finite or out of order.
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
        los, his = self.los, self.his
        # a step too wide for a float gives a non-finite end, reported below
        with np.errstate(over="ignore", invalid="ignore"):
            lo = np.where(top, los[k], _interpolated(los, i, t))
            hi = np.where(top, his[k], _interpolated(his, i, t))
        bad = ~(np.isfinite(lo) & np.isfinite(hi) & (lo <= hi))
        if bad.any():
            j = int(np.argmax(bad))
            Interval(float(lo.flat[j]), float(hi.flat[j]))  # raises the Interval's own error
        return lo, hi

    def membership(self, x):
        """Degree of membership, sup of the alphas whose cut contains x.

        Accepts a scalar or an array and evaluates elementwise; -inf and
        +inf have membership 0, and a NaN point raises ValueError.  Each
        point is inverted on the one endpoint curve that decides it: the
        lower curve up to the core's upper end, where the upper curve reads
        1, and the upper curve past it, where the lower curve reads 1.  The
        grid step of each point is located among both curves' 2K + 2 nodes
        (by _slot_reader: a merge for long sorted 1-d points, a binary
        search otherwise), its base, step and number are read from tables
        of 2K + 3 slots, and the point is interpolated linearly inside it,
        so the result is exact for the piecewise linear representation.
        """
        arr = np.asarray(x, dtype=float)
        scalar = arr.ndim == 0
        pts = np.atleast_1d(arr)
        los, his, k = self.los, self.his, self.k
        # an offset past the float range below the support, on the core or
        # above the support gives inf / inf, and its alpha is set below
        with np.errstate(over="ignore", invalid="ignore"):
            nodes, base, step, seg = _curve_slots(los, his)
            at = _slot_reader(nodes, pts)
            # at() reads into a fresh array, so each result is worked out in
            # the array it came in, and gap is dropped before the next read
            off = at(base)
            np.subtract(pts, off, out=off)
            gap = at(step)
            if not math.isfinite(float(his[0]) - float(los[0])):
                # a step or offset past the float range: the same ratio from
                # halved operands, which halving keeps exact at these magnitudes
                _, half, half_step, _ = _curve_slots(0.5 * los, 0.5 * his)
                wide = ~(np.isfinite(gap) & np.isfinite(off))
                gap = np.where(wide, at(half_step), gap)
                off = np.where(wide, 0.5 * pts - at(half), off)
            off /= gap
            del gap
            off += at(seg)
            off /= k
        undone = np.isnan(off)
        if undone.any():
            nan = np.isnan(pts)
            if nan.any():
                where = "" if scalar else (
                    "; the first NaN point is x[%s]"
                    % ", ".join(map(str, np.unravel_index(int(np.argmax(nan)), pts.shape))))
                raise ValueError(f"membership of nan is undefined{where}")
            # 1 on the core, 0 off the support
            off[undone] = at(np.arange(nodes.size + 1))[undone] == k + 1
        return float(off[0]) if scalar else off

    # -- derived representations ---------------------------------------------

    def resample(self, grid: int) -> "FuzzyNumber":
        """The same fuzzy number re-sampled onto the alpha grid of K = grid
        steps: its level ends read by alpha_cuts at the new grid's alphas,
        or the number itself when K = grid already."""
        k = _grid_size(grid)
        if k == self.k:
            return self
        return FuzzyNumber(*self.alpha_cuts(np.linspace(0.0, 1.0, k + 1)))

    def to_json(self) -> dict:
        """Plain-object form: {"K": K, "levels": [[lo, hi], ...]}."""
        return {
            "K": self.k,
            "levels": [[float(a), float(b)] for a, b in zip(self.los, self.his)],
        }

    def __eq__(self, other) -> bool:
        if not isinstance(other, FuzzyNumber):
            return NotImplemented
        return np.array_equal(self.los, other.los) and np.array_equal(self.his, other.his)

    def __repr__(self) -> str:
        return (f"FuzzyNumber(K={self.k}, support=[{self.los[0]:g}, {self.his[0]:g}], "
                f"core=[{self.los[-1]:g}, {self.his[-1]:g}])")


def _interpolated(ends: np.ndarray, i: np.ndarray, t: np.ndarray) -> np.ndarray:
    """ends[i] + t * (ends[i + 1] - ends[i]); at a grid node (t = 0) a step
    past the float range makes that increment 0 * inf, and the stored end
    is kept instead."""
    inc = t * (ends[i + 1] - ends[i])
    return np.where(np.isnan(inc), ends[i], ends[i] + inc)


def _checked_and_repaired(los: np.ndarray, his: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """New end arrays for a family that is not exactly nested: ValueError
    unless every end is finite and the family is nested up to the slack,
    else the family repaired to an exactly nested one."""
    if not (np.isfinite(los).all() and np.isfinite(his).all()):
        i = int(np.argmin(np.isfinite(los) & np.isfinite(his)))
        raise ValueError(f"level endpoints must be finite; the level at alpha "
                         f"{i / (los.size - 1):g} is [{los[i]:g}, {his[i]:g}]")
    tol = _scaled_slack(los, his)
    # a sum or difference past the float range is +-inf and still compares right
    with np.errstate(over="ignore"):
        if np.any(los > his + tol):
            raise ValueError("level lower endpoint exceeds upper endpoint")
        if np.any(np.diff(los) < -tol) or np.any(np.diff(his) > tol):
            raise ValueError("levels are not nested")

    # Repair float-scale slack so the stored family is exactly nested.
    los = np.maximum.accumulate(los)
    his = np.minimum.accumulate(his)
    crossed = los > his
    if crossed.any():
        lo, hi = los[crossed], his[crossed]
        with np.errstate(over="ignore"):
            mid = 0.5 * (lo + hi)
        # ends past half the float range can sum past it; halving them
        # first is exact there, and the midpoint is the same
        wide = ~np.isfinite(mid)
        mid[wide] = 0.5 * lo[wide] + 0.5 * hi[wide]
        los[crossed] = mid
        his[crossed] = mid
        # A midpoint can fall below an earlier lower end (or above an
        # earlier upper end); widening the outer levels to it keeps
        # every level ordered and the family nested.
        los = np.minimum.accumulate(los[::-1])[::-1]
        his = np.maximum.accumulate(his[::-1])[::-1]
    return los, his


def _scaled_slack(los: np.ndarray, his: np.ndarray) -> float:
    """The nesting slack at the scale of the ends: NEST_ULPS ulps of the
    largest |end|, or NEST_TOL where that is more.  math.ulp, unlike
    np.spacing, stays finite at the largest float."""
    big = max(float(np.abs(los).max()), float(np.abs(his).max()))
    return max(NEST_TOL, NEST_ULPS * math.ulp(big))


_INF = np.array([math.inf])

# _slot_reader merges sorted points with the nodes once the points are at
# least this many times as many.  The merge has a fixed cost of about 15 us
# and searches every node among the points, so it breaks even with the
# search of every point among the nodes at about 7 points per node at
# K = 100, 3 at K = 300 and 2 to 3 at K = 1000; at 4 it loses up to 8 us
# at K = 100 and gains 50 to 100 us at K = 1000 (numpy 2.4, 2 vCPUs).
MERGE_MIN_RATIO = 4


def _slot_reader(nodes: np.ndarray, pts: np.ndarray):
    """A function that reads a table of len(nodes) + 1 slot values at each
    point's slot, table[np.searchsorted(nodes, pts, side="right")], for
    non-decreasing nodes with no NaN.

    When pts is 1-d, at least MERGE_MIN_RATIO times as long as nodes and
    non-decreasing, the nodes are searched among the points instead: for
    sorted points, nodes[i] <= pts[p] exactly when fewer than p + 1 points
    lie below nodes[i], so slot j holds the run of points from the count
    below nodes[j - 1] to the count below nodes[j], and np.repeat spreads a
    table over those runs in one linear pass: O(n + K log n) time for the
    lookup.  Otherwise every point is searched among the nodes, O(n log K),
    and a table is read with take.
    """
    if (pts.ndim == 1 and pts.size >= MERGE_MIN_RATIO * nodes.size
            and (pts[1:] >= pts[:-1]).all()):  # a NaN fails the order test
        ends = np.concatenate(([0], np.searchsorted(pts, nodes), [pts.size]))
        runs = ends[1:] - ends[:-1]
        return lambda table: np.repeat(table, runs)
    j = np.searchsorted(nodes, pts, side="right")
    return lambda table: table.take(j)


def _curve_slots(los: np.ndarray, his: np.ndarray) -> tuple[np.ndarray, ...]:
    """The 2K + 2 nodes that membership searches, and the base, step and
    grid-step number of the 2K + 3 slots between them; slot j holds the
    points from node j - 1 up to node j.

    The nodes are the lower ends, then the upper ends from the core out,
    each one ulp up so that a point on an upper end stays inside it.  Slot
    j in 1..K is the lower curve's step j - 1, from los[j - 1] to los[j];
    slot K + 1 + t, t in 1..K, is the upper curve's step s = K - t, from
    his[s] to his[s + 1], a negative step, whose ratio is the one the
    negated curve gives.  Below the support (slot 0), on the core (K + 1)
    and above the support (2K + 2) the step is infinite, which turns a
    finite offset into alpha 0, 1 and 0.  A flat step holds no point and
    reads 1 (-1 on the upper curve).
    """
    k = los.size - 1
    rise, fall = los[1:] - los[:-1], (his[1:] - his[:-1])[::-1]
    return (np.concatenate((los, np.nextafter(his[::-1], math.inf))),
            np.concatenate((los[:1], los, his[-2::-1], his[:1])),
            np.concatenate((_INF, np.where(rise > 0.0, rise, 1.0), _INF,
                            np.where(fall < 0.0, fall, -1.0), _INF)),
            np.concatenate(([0.0], np.arange(k + 1.0), np.arange(k - 1.0, -1.0, -1.0), [0.0])))


# -- constructors -------------------------------------------------------------


def _finite(shape: str, **params) -> None:
    """ValueError naming the first of the parameters of ``shape`` that is
    not finite."""
    for name, value in params.items():
        if not math.isfinite(value):
            raise ValueError(f"{shape} parameter {name} must be finite, got {float(value)!r}")


def triangular(a: float, b: float, c: float,
               grid: int = DEFAULT_GRID_K) -> FuzzyNumber:
    """Triangular fuzzy number with support [a, c] and peak b.

    Level endpoints are a + alpha*(b - a) and c - alpha*(c - b).
    """
    _finite("triangular", a=a, b=b, c=c)
    if not a <= b <= c:
        raise ValueError(f"triangular parameters must satisfy a <= b <= c, got {(a, b, c)}")
    return FuzzyNumber(*_sides(a, b, b, c, grid))


def trapezoidal(a: float, b: float, c: float, d: float,
                grid: int = DEFAULT_GRID_K) -> FuzzyNumber:
    """Trapezoidal fuzzy number with support [a, d] and plateau [b, c]."""
    _finite("trapezoidal", a=a, b=b, c=c, d=d)
    if not a <= b <= c <= d:
        raise ValueError(
            f"trapezoidal parameters must satisfy a <= b <= c <= d, got {(a, b, c, d)}")
    return FuzzyNumber(*_sides(a, b, c, d, grid))


_HALF_MAX = 0.5 * float(np.finfo(float).max)


def _sides(a: float, b: float, c: float, d: float,
           grid: int) -> tuple[np.ndarray, np.ndarray]:
    """The side lines a + alpha*(b - a) and d - alpha*(d - c) at the grid
    nodes.  A side wider than the float range is worked out on halved
    operands and doubled, which is exact at those magnitudes; the halved
    side is held to its halved inner end, past which rounding can carry it
    and the doubling overflow.  The parameters are taken as Python floats,
    so that a numpy float32 one is not compared in float32.  The alpha = 1
    ends are b and c themselves, which a + 1*(b - a) and d - 1*(d - c) can
    miss by rounding, and the halved side by far more; the clamps keep a
    halved side within them, so the family stays nested."""
    al = np.linspace(0.0, 1.0, _grid_size(grid) + 1)
    a, b, c, d = float(a), float(b), float(c), float(d)
    if -a <= _HALF_MAX and d <= _HALF_MAX:  # no step can pass the float range
        lo, hi = a + al * (b - a), d - al * (d - c)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            lo, hi = a + al * (b - a), d - al * (d - c)
            if not math.isfinite(lo[0]):
                lo = 2.0 * np.minimum(0.5 * a + al * (0.5 * b - 0.5 * a), 0.5 * b)
            if not math.isfinite(hi[0]):
                hi = 2.0 * np.maximum(0.5 * d - al * (0.5 * d - 0.5 * c), 0.5 * c)
    lo[-1], hi[-1] = b, c
    return lo, hi


def crisp(a: float, grid: int = DEFAULT_GRID_K) -> FuzzyNumber:
    """Degenerate fuzzy number concentrated at the single value a."""
    _finite("crisp", a=a)
    n = _grid_size(grid) + 1
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


# Every fuzzy literal name with its constructor and parameter count, read by
# the JSON reader and the CLI grammar.
SHAPES = {"tri": (triangular, 3), "trap": (trapezoidal, 4), "crisp": (crisp, 1)}


def _parameters(name: str, args, count: int):
    """args, a JSON parameter list for the literal ``name``; ValueError
    unless it is a list of ``count`` numbers (an int, a float or a numpy
    real, not a bool)."""
    if not isinstance(args, (list, tuple)) or len(args) != count:
        raise ValueError(f"{name!r} takes a list of {count} parameters, got {args!r}")
    for arg in args:
        if isinstance(arg, bool) or not isinstance(arg, (int, float, np.integer, np.floating)):
            raise ValueError(f"{name!r} takes numeric parameters, got {arg!r} in {args!r}")
    return args


def fuzzy_from_json(obj) -> FuzzyNumber:
    """Parse the JSON forms for fuzzy numbers.

    Accepts the full {"K": ..., "levels": [[lo, hi], ...]} form and the
    shorthands of SHAPES, {"tri": [a, b, c]}, {"trap": [a, b, c, d]} and
    {"crisp": [a]} or {"crisp": a}; shorthands honor an optional "K" key
    (default 100).  A shorthand with a parameter list of the wrong length
    raises ValueError.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"expected an object describing a fuzzy number, got {obj!r}")
    grid = obj.get("K", DEFAULT_GRID_K)
    for name, (make, count) in SHAPES.items():
        if name in obj:
            args = obj[name]
            if count == 1 and not isinstance(args, (list, tuple)):
                args = [args]
            return make(*_parameters(name, args, count), grid=grid)
    if "levels" in obj:
        fn = from_levels(obj["levels"])
        if "K" in obj and fn.k != _grid_size(obj["K"]):
            raise ValueError(f"levels length {fn.k + 1} does not match K={obj['K']}")
        return fn
    raise ValueError(f"unrecognized fuzzy number object: {obj!r}")

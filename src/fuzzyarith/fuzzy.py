"""Fuzzy numbers stored as nested families of alpha-level intervals.

A fuzzy number A is represented by its level sets [A]^alpha on a uniform
grid alpha_i = i/K, i = 0..K.  Each level is a closed interval, levels
shrink (nest) as alpha grows, and endpoints between grid nodes are read
off by linear interpolation.  The level at alpha = 1 is the closed core.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .interval import Interval, _width_error

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


# The per-K constants below are built on first use and kept for this many
# grid sizes each, the least recently used dropped first.  All three of a K
# hold about 56 (K + 1) bytes: 5.6 MB at K = 100 000.
GRID_CACHE_SIZE = 4


@lru_cache(maxsize=GRID_CACHE_SIZE)
def _grid(k: int) -> np.ndarray:
    """The alphas i / K, i = 0..K, of the grid of k steps, as the read-only
    array np.linspace(0.0, 1.0, k + 1), shared by every caller."""
    al = np.linspace(0.0, 1.0, k + 1)
    al.flags.writeable = False
    return al


@lru_cache(maxsize=GRID_CACHE_SIZE)
def _grid_floats(k: int) -> tuple[float, ...]:
    """_grid(k) as a tuple of Python floats."""
    return tuple(_grid(k).tolist())


@lru_cache(maxsize=GRID_CACHE_SIZE)
def _slot_steps(k: int) -> np.ndarray:
    """The grid-step number of each of _curve_slots' 2K + 3 slots, read-only."""
    seg = np.concatenate(([0.0], np.arange(k + 1.0), np.arange(k - 1.0, -1.0, -1.0), [0.0]))
    seg.flags.writeable = False
    return seg


class FuzzyNumber:
    """A fuzzy quantity described by K + 1 nested alpha-level intervals.

    It holds nothing but ``los`` and ``his``, the lower and upper ends at
    the grid nodes alpha_i = i / K, as read-only float arrays.  The
    constructor copies the arrays a caller gives it once; the results the
    library computes are stored as made (see _made).  It first checks in
    O(K) comparisons whether they are exactly nested (lower endpoints
    non-decreasing in alpha, upper endpoints non-increasing, the core
    ordered, the support of finite width); such ends are stored as given.
    Only when that check fails does it validate finiteness, per-level
    ordering and nestedness, repairing violations up to NEST_TOL, or
    NEST_ULPS ulps of the largest |end| where that is more, and rejecting
    anything larger; a support wider than the float range, whose width
    overflows, is rejected last.
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
        self._hold(*_nested(los, his))

    @classmethod
    def _made(cls, los: np.ndarray, his: np.ndarray, *, nested: bool = False) -> "FuzzyNumber":
        """A number holding los and his themselves, with no copy and no
        shape test: for the fresh 1-d float arrays, of one length of two or
        more, that an operation of the library has just made and no caller
        holds.  They pass the constructor's nest test and repair; with
        ``nested``, for an operation whose levels are exactly nested by
        construction, only the support width is tested, and a support whose
        width is not finite takes the full path, so every error is the
        constructor's."""
        if not (nested and math.isfinite(float(his[0]) - float(los[0]))):
            los, his = _nested(los, his)
        made = object.__new__(cls)
        made._hold(los, his)
        return made

    def _hold(self, los: np.ndarray, his: np.ndarray) -> None:
        """Store los and his, made read-only."""
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
        """The grid alphas i / K, i = 0..K, as a fresh array."""
        return _grid(self.k).copy()

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
        they are linearly interpolated, and each lies between the stored
        ends of the two neighbouring nodes, so every cut is finite and
        ordered.  A grid alpha i / K as np.linspace rounds it need not give
        i back: there the ends are interpolated, a few ulps off the stored
        ones.  An alpha outside [0, 1] or NaN raises ValueError.
        """
        alphas = np.asarray(alphas, dtype=float)
        bad = ~((0.0 <= alphas) & (alphas <= 1.0))
        if bad.any():
            raise ValueError(f"alpha must lie in [0, 1], got {float(alphas[bad][0])!r}")
        k = self.k
        pos = alphas * k
        top = pos >= k
        i = np.where(top, k - 1, pos.astype(np.intp))
        # at alpha = 1, whose end np.where takes from the stored level, the
        # weight is 0, so that the discarded interpolation stays finite
        t = np.where(top, 0.0, pos - i)
        los, his = self.los, self.his
        lo = np.where(top, los[k], los[i] + t * (los[i + 1] - los[i]))
        hi = np.where(top, his[k], his[i] + t * (his[i + 1] - his[i]))
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
        # an infinite point, or an offset past the float range below or above
        # the support, gives inf / inf, and its alpha is set below
        with np.errstate(over="ignore", invalid="ignore"):
            nodes, base, step, seg = _curve_slots(los, his)
            at = _slot_reader(nodes, pts)
            # at() reads into a fresh array, so each result is worked out in
            # the array it came in, and gap is dropped before the next read
            off = at(base)
            np.subtract(pts, off, out=off)
            gap = at(step)
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
            # only points off the support get here: a core point's offset
            # is at most the core's width
            off[undone] = 0.0
        return float(off[0]) if scalar else off

    # -- derived representations ---------------------------------------------

    def resample(self, grid: int) -> "FuzzyNumber":
        """The same fuzzy number re-sampled onto the alpha grid of K = grid
        steps: its level ends read by alpha_cuts at the new grid's alphas,
        or the number itself when K = grid already."""
        k = _grid_size(grid)
        if k == self.k:
            return self
        return FuzzyNumber._made(*self.alpha_cuts(_grid(k)))

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


def _nested(los: np.ndarray, his: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """los and his where they are exactly nested, else the arrays that
    _checked_and_repaired makes of them.

    The test takes O(K) comparisons: with neighbours ordered and the core
    ordered, every end lies between the two support ends, so a finite
    support width makes every end finite (a NaN fails a comparison; the
    width is taken on Python floats, which overflow without a warning).
    Such a family needs neither checks nor repair, and its running extremes
    would be the arrays themselves, bit for bit (on a tie np.maximum
    returns its second argument, so -0.0 after 0.0 stays -0.0)."""
    if (los[-1] <= his[-1] and math.isfinite(float(his[0]) - float(los[0]))
            and (los[1:] >= los[:-1]).all() and (his[1:] <= his[:-1]).all()):
        return los, his
    return _checked_and_repaired(los, his)


def _checked_and_repaired(los: np.ndarray, his: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """New end arrays for a family that is not exactly nested: ValueError
    unless every end is finite and the family is nested up to the slack,
    else the family repaired to an exactly nested one, ValueError unless
    its support is narrower than the float range."""
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
        # every level ordered and the family nested.  They accumulate in
        # place, so the arrays stay contiguous.
        np.minimum.accumulate(los[::-1], out=los[::-1])
        np.maximum.accumulate(his[::-1], out=his[::-1])
    lo, hi = float(los[0]), float(his[0])
    if not math.isfinite(hi - lo):
        raise _width_error("support", lo, hi)
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
    rise, fall = los[1:] - los[:-1], (his[1:] - his[:-1])[::-1]
    return (np.concatenate((los, np.nextafter(his[::-1], math.inf))),
            np.concatenate((los[:1], los, his[-2::-1], his[:1])),
            np.concatenate((_INF, np.where(rise > 0.0, rise, 1.0), _INF,
                            np.where(fall < 0.0, fall, -1.0), _INF)),
            _slot_steps(los.size - 1))


# -- constructors -------------------------------------------------------------


def _shape_parameters(shape: str, **params) -> None:
    """ValueError naming the first of the parameters of ``shape`` that is
    not finite, else unless the parameters are in non-decreasing order,
    else unless the support they span is narrower than the float range."""
    for name, value in params.items():
        if not math.isfinite(value):
            raise ValueError(f"{shape} parameter {name} must be finite, got {float(value)!r}")
    values = tuple(params.values())
    if values != tuple(sorted(values)):
        raise ValueError(f"{shape} parameters must satisfy {' <= '.join(params)}, got {values}")
    lo, hi = float(values[0]), float(values[-1])
    if not math.isfinite(hi - lo):
        raise _width_error(f"{shape} support", lo, hi)


def triangular(a: float, b: float, c: float,
               grid: int = DEFAULT_GRID_K) -> FuzzyNumber:
    """Triangular fuzzy number with support [a, c] and peak b.

    Level endpoints are a + alpha*(b - a) and c - alpha*(c - b).
    """
    _shape_parameters("triangular", a=a, b=b, c=c)
    return FuzzyNumber._made(*_sides(a, b, b, c, grid))


def trapezoidal(a: float, b: float, c: float, d: float,
                grid: int = DEFAULT_GRID_K) -> FuzzyNumber:
    """Trapezoidal fuzzy number with support [a, d] and plateau [b, c]."""
    _shape_parameters("trapezoidal", a=a, b=b, c=c, d=d)
    return FuzzyNumber._made(*_sides(a, b, c, d, grid))


def _sides(a: float, b: float, c: float, d: float,
           grid: int) -> tuple[np.ndarray, np.ndarray]:
    """The side lines a + alpha*(b - a) and d - alpha*(d - c) at the grid
    nodes, for parameters that _shape_parameters has passed.  The
    parameters are taken as Python floats, so that a numpy float32 one is
    not worked in float32.  Only the K nodes below alpha = 1 are shifted:
    the alpha = 1 ends are b and c themselves, which a + 1*(b - a) and
    d - 1*(d - c) can miss by rounding, even past the float range."""
    al = _grid(_grid_size(grid))
    a, b, c, d = float(a), float(b), float(c), float(d)
    lo, hi = al * (b - a), al * (d - c)
    lo[:-1] += a
    hi[:-1] = d - hi[:-1]
    lo[-1], hi[-1] = b, c
    return lo, hi


def crisp(a: float, grid: int = DEFAULT_GRID_K) -> FuzzyNumber:
    """Degenerate fuzzy number concentrated at the single value a."""
    _shape_parameters("crisp", a=a)
    n = _grid_size(grid) + 1
    return FuzzyNumber._made(np.full(n, float(a)), np.full(n, float(a)))


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

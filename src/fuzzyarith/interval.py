"""Closed bounded intervals: the support, the core and single levels of a fuzzy number."""

from __future__ import annotations

import math
from collections import namedtuple


def _width_error(what: str, lo: float, hi: float) -> ValueError:
    """The error for a ``what`` [lo, hi] wider than the float range, one
    whose width hi - lo overflows."""
    return ValueError(f"{what} [{lo!r}, {hi!r}] is wider than the float range")


class Interval(namedtuple("Interval", ("lo", "hi"))):
    """A closed interval [lo, hi] with finite endpoints, lo <= hi and a
    finite width hi - lo.

    Instances are immutable (lo, hi) tuples of Python floats.  Degenerate
    intervals (lo == hi) are allowed, they represent crisp values.  Every
    way to make one from values, _make and _replace included, validates.
    """

    __slots__ = ()

    def __new__(cls, lo: float, hi: float) -> "Interval":
        self = tuple.__new__(cls, (float(lo), float(hi)))
        self.__post_init__()
        return self

    def __post_init__(self) -> None:
        # perfbench/tracing.py patches this hook by name to count validated intervals
        lo, hi = self
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"interval endpoints must be finite, got [{lo}, {hi}]")
        if lo > hi:
            raise ValueError(f"interval endpoints out of order: lo={lo!r} > hi={hi!r}")
        if not math.isfinite(hi - lo):
            raise _width_error("interval", lo, hi)

    @classmethod
    def _make(cls, iterable) -> "Interval":
        return cls(*iterable)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, other: "Interval", tol: float = 0.0) -> bool:
        """True when ``other`` is a subset of this interval, up to ``tol``."""
        return other.lo >= self.lo - tol and other.hi <= self.hi + tol

    def hausdorff(self, other: "Interval") -> float:
        """Hausdorff distance between two closed intervals.

        For intervals this reduces to the larger of the two endpoint gaps.
        """
        return max(abs(self.lo - other.lo), abs(self.hi - other.hi))

    def approx_equal(self, other: "Interval", tol: float = 1e-9) -> bool:
        return self.hausdorff(other) <= tol

    def __repr__(self) -> str:
        return f"Interval({self.lo:g}, {self.hi:g})"

"""Monotone correlation functions tying one operand to the other.

A pair (A, B) is correlated through a continuous strictly monotone
injective f when B carries exactly the values f(x) for x in A, with the
joint possibility concentrated on the graph of f.  Under that coupling
the levels of B are the images of the levels of A, which is what
``induced_number`` computes.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from typing import Callable

import numpy as np

from .errors import DomainError, MonotonicityError
from .fuzzy import FuzzyNumber, _linspace, _parameters
from .interval import Interval, _width_error

INCREASING = "increasing"
DECREASING = "decreasing"

# Sample count used when validating custom evaluators on an interval.
MONOTONE_CHECK_SAMPLES = 257


class CorrelationFunction(namedtuple(
        "CorrelationFunction", ("family", "q", "r", "fn", "direction", "domain", "name"),
        defaults=(0.0, 0.0, None, INCREASING, None, None))):
    """A strictly monotone function of one real variable.

    ``family`` is one of three kinds:

    * ``linear``       q*x + r, q != 0, increasing iff q > 0
    * ``hyperbolic``   q/x + r, q != 0, defined away from zero,
      decreasing iff q > 0
    * ``custom``       arbitrary evaluator ``fn`` with a declared direction

    The named aliases ``identity``, ``negation`` and ``reciprocal`` are
    linear(1, 0), linear(-1, 0) and hyperbolic(1, 0) carrying their
    ``name`` (shown by repr, to_json and domain errors) and an exact
    evaluator ``fn``: x, -x and 1/x keep the signed zeros that q*x + r and
    q/x + r with r = 0 would turn into +0.0.  Equality and hashing take
    ``fn`` too: an alias is not equal to the plain function it aliases,
    and a custom with an unhashable ``fn`` does not hash.

    Instances are built through the factory functions below rather than
    directly.
    """

    __slots__ = ()

    def __call__(self, x):
        """Evaluate pointwise; linear and hyperbolic functions accept arrays too."""
        if self.fn is not None:
            return self.fn(x)
        y = self.q * x if self.family == "linear" else self.q / x
        y += self.r  # the bits of q*x + r, with no second array
        return y

    def values(self, xs: np.ndarray) -> np.ndarray:
        """f at every point of xs as a float array.

        A custom ``fn`` is called once per point, in order, on a Python
        float, and each result is taken with ``float()``.  This is the one
        loop every multi-point evaluation of a custom function goes through:
        the monotonicity check, induced_number, the oracle's samples and the
        correlated engine's level ends and scan.
        """
        xs = np.asarray(xs, dtype=float)
        if self.family == "custom":
            return np.fromiter(map(float, map(self.fn, xs.tolist())), float, xs.size)
        return np.asarray(self(xs), dtype=float)

    def require_on(self, iv: Interval) -> None:
        """Raise DomainError unless the function is defined on all of iv."""
        if self.family == "hyperbolic":
            if iv.lo <= 0.0 <= iv.hi:
                raise DomainError(
                    f"{self.name or self.family} correlation is undefined across zero, "
                    f"got interval [{iv.lo:g}, {iv.hi:g}]")
        elif self.domain is not None and not self.domain.contains(iv):
            raise DomainError(
                f"interval [{iv.lo:g}, {iv.hi:g}] leaves the declared domain "
                f"[{self.domain.lo:g}, {self.domain.hi:g}]")

    def require_finite_on(self, iv: Interval) -> None:
        """Raise DomainError if a built-in f passes the float range on iv, as
        q/x does at a subnormal x or 2x past half the float max; f is monotone,
        so the ends decide.  A custom f is not tested: check_monotone refuses
        its non-finite samples.  Only evaluations of f check it: x * (q/x + r)
        is r*x + q, finite."""
        if self.family != "custom" and not (math.isfinite(self(iv.lo))
                                            and math.isfinite(self(iv.hi))):
            raise DomainError(
                f"{self.name or self.family} correlation leaves the float range "
                f"on [{iv.lo:g}, {iv.hi:g}]")

    def check_on(self, iv: Interval):
        """Raise unless the function may be applied on iv: DomainError
        outside its domain, and for a custom function, sample-checked by
        check_monotone, MonotonicityError unless it is strictly monotone
        in its declared direction.

        Returns the check's samples (xs, f(xs)) for a custom function, None
        for the others and for a point interval: the correlated engine's
        scan takes f at those points from them instead of calling fn again.
        """
        if self.family != "custom":
            self.require_on(iv)
            return None
        found, samples = check_monotone(self, iv, _samples=True)
        if found != self.direction:
            raise MonotonicityError(
                f"custom correlation declared {self.direction} but samples "
                f"{found} on [{iv.lo:g}, {iv.hi:g}]")
        return samples

    def to_json(self):
        """JSON form; the named aliases serialize as bare strings."""
        if self.family == "custom":
            raise ValueError("custom correlation functions have no JSON form")
        return self.name or {self.family: [self.q, self.r]}

    def __repr__(self) -> str:
        if self.family == "custom":
            return self.family
        return self.name or f"{self.family}(q={self.q:g}, r={self.r:g})"


# -- factories ----------------------------------------------------------------


def _coefficients(family: str, q: float, r: float) -> tuple[float, float]:
    """q and r as floats; ValueError naming the family and the coefficient
    unless both are finite and q != 0."""
    q, r = float(q), float(r)
    for name, value in (("q", q), ("r", r)):
        if not math.isfinite(value):
            raise ValueError(f"{family} correlation needs a finite {name}, got {value!r}")
    if q == 0.0:
        raise ValueError(f"{family} correlation needs q != 0 to stay injective")
    return q, r


def linear(q: float, r: float = 0.0) -> CorrelationFunction:
    """f(x) = q*x + r with finite q != 0 and finite r."""
    q, r = _coefficients("linear", q, r)
    return CorrelationFunction("linear", q=q, r=r,
                               direction=INCREASING if q > 0 else DECREASING)


def hyperbolic(q: float, r: float = 0.0) -> CorrelationFunction:
    """f(x) = q/x + r with finite q != 0 and finite r, usable on intervals
    that avoid zero."""
    q, r = _coefficients("hyperbolic", q, r)
    return CorrelationFunction("hyperbolic", q=q, r=r,
                               direction=DECREASING if q > 0 else INCREASING)


def identity() -> CorrelationFunction:
    """x: linear(1, 0) named ``identity``."""
    return linear(1.0)._replace(fn=operator.pos, name="identity")


def negation() -> CorrelationFunction:
    """-x: linear(-1, 0) named ``negation``."""
    return linear(-1.0)._replace(fn=operator.neg, name="negation")


def _reciprocal(x):
    return 1.0 / x


def reciprocal() -> CorrelationFunction:
    """1/x: hyperbolic(1, 0) named ``reciprocal``."""
    return hyperbolic(1.0)._replace(fn=_reciprocal, name="reciprocal")


def custom(fn: Callable[[float], float], direction: str,
           domain: Interval | tuple[float, float] | None = None) -> CorrelationFunction:
    """Wrap an arbitrary evaluator with a declared monotone direction.

    The declaration is trusted until the function is applied to a fuzzy
    number, at which point it is sample-checked on the support.  ``domain``
    is None or an Interval or (lo, hi) pair, stored as an Interval; any
    other value, a pair with a non-finite end or lo > hi included, raises
    ValueError, and so does a pair wider than the float range, saying so.
    """
    if direction not in (INCREASING, DECREASING):
        raise ValueError(f"direction must be '{INCREASING}' or '{DECREASING}', "
                         f"got {direction!r}")
    if not callable(fn):
        raise ValueError("custom correlation needs a callable evaluator")
    if domain is not None:
        lo = hi = math.nan
        try:
            lo, hi = map(float, domain)
            domain = Interval(lo, hi)
        except (TypeError, ValueError):
            if -math.inf < lo <= hi < math.inf:  # finite and ordered: too wide
                raise _width_error("custom correlation domain", lo, hi) from None
            raise ValueError(f"custom correlation domain must be None or a finite (lo, hi) "
                             f"pair with lo <= hi, got {domain!r}") from None
    return CorrelationFunction("custom", fn=fn, direction=direction, domain=domain)


# Every built-in name with its factory and parameter count, read by the JSON
# reader and the CLI grammar; parameterless names are bare JSON strings.
CORRELATIONS = {
    "linear": (linear, 2),
    "hyperbolic": (hyperbolic, 2),
    "identity": (identity, 0),
    "negation": (negation, 0),
    "reciprocal": (reciprocal, 0),
}


def correlation_from_json(obj) -> CorrelationFunction:
    """Parse {"linear": [q, r]}, {"hyperbolic": [q, r]} or a bare alias name."""
    if isinstance(obj, str):
        factory, count = CORRELATIONS.get(obj, (None, None))
        if count == 0:
            return factory()
        raise ValueError(f"unknown correlation function name {obj!r}")
    if isinstance(obj, dict) and len(obj) == 1:
        ((name, args),) = obj.items()
        factory, count = CORRELATIONS.get(name, (None, 0))
        if count:
            return factory(*_parameters(name, args, count))
    raise ValueError(f"unrecognized correlation object: {obj!r}")


# -- checks and application ----------------------------------------------------


def check_monotone(f: CorrelationFunction, iv: Interval, *, _samples: bool = False):
    """Verify strict monotonicity of f on an interval by sampling it at
    MONOTONE_CHECK_SAMPLES equispaced points.

    Returns the detected direction.  Only distinct samples are compared: on
    a support too narrow for MONOTONE_CHECK_SAMPLES distinct floats the
    repeated points are dropped.  Raises MonotonicityError when the
    sampled values are not strictly ordered, and DomainError when the
    interval leaves the function's domain or a sampled value is not finite.
    CorrelationFunction.check_on passes _samples=True and takes the
    direction with the samples (xs, f(xs)), None for a point interval.
    """
    f.require_on(iv)
    if iv.width == 0.0:
        return (f.direction, None) if _samples else f.direction
    xs = _linspace(iv.lo, iv.hi, MONOTONE_CHECK_SAMPLES)
    ys = f.values(xs)
    bad = ~np.isfinite(ys)
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(
            f"{f!r} gives {ys[i]} at x = {xs[i]:.12g}, the first non-finite "
            f"sample on [{iv.lo:g}, {iv.hi:g}]")
    found = _strict_direction(ys)
    if found is None:  # a support too narrow for distinct samples repeats them
        found = _strict_direction(ys[np.concatenate(([True], xs[1:] != xs[:-1]))])
    if found is None:
        raise MonotonicityError(
            f"{f!r} is not strictly monotone on [{iv.lo:g}, {iv.hi:g}] "
            f"({MONOTONE_CHECK_SAMPLES} samples)")
    return (found, (xs, ys)) if _samples else found


def _strict_direction(ys: np.ndarray) -> str | None:
    """INCREASING or DECREASING where ys is strictly ordered that way, else None."""
    # comparing neighbours, not their differences, which can overflow
    if np.all(ys[1:] > ys[:-1]):
        return INCREASING
    if np.all(ys[1:] < ys[:-1]):
        return DECREASING
    return None


def induced_number(a: FuzzyNumber, f: CorrelationFunction) -> FuzzyNumber:
    """The fuzzy number B = f(A) carried by the correlation.

    Each level of B is the monotone image of the matching level of A, so
    B lives on the same alpha grid as A.
    """
    sup = a.support
    f.check_on(sup)
    if f.family == "hyperbolic":
        f.require_finite_on(sup)
    if f.family == "linear" and not (math.isfinite(f.q * sup.lo + f.r)
                                     and math.isfinite(f.q * sup.hi + f.r)):
        # f is monotone, so its ends bound it: past the float range its images
        # are taken with numpy's warning off, and the constructor names the level
        with np.errstate(over="ignore"):
            lo_img, hi_img = f.values(a.los), f.values(a.his)
    else:
        lo_img, hi_img = f.values(a.los), f.values(a.his)
    if f.direction == DECREASING:
        lo_img, hi_img = hi_img, lo_img
    # a built-in f, q*x + r, or q/x + r on a one-signed support, rounds
    # monotonically, so the images of nested levels nest
    return FuzzyNumber._made(lo_img, hi_img, nested=f.family != "custom")

"""Monotone correlation functions tying one operand to the other.

A pair (A, B) is correlated through a continuous strictly monotone
injective f when B carries exactly the values f(x) for x in A, with the
joint possibility concentrated on the graph of f.  Under that coupling
the levels of B are the images of the levels of A, which is what
``induced_number`` computes.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

from .errors import DomainError, MonotonicityError
from .fuzzy import FuzzyNumber
from .interval import Interval

INCREASING = "increasing"
DECREASING = "decreasing"

# Sample count used when validating custom evaluators on an interval.
MONOTONE_CHECK_SAMPLES = 257


@dataclass(frozen=True)
class CorrelationFunction:
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
    q/x + r with r = 0 would turn into +0.0.  An alias is not equal to the
    plain function it aliases.

    Instances are built through the factory functions below rather than
    directly.
    """

    family: str
    q: float = 0.0
    r: float = 0.0
    fn: Callable[[float], float] | None = field(default=None, compare=False)
    direction: str = INCREASING
    domain: Interval | None = None
    name: str | None = None

    def __call__(self, x):
        """Evaluate pointwise; linear and hyperbolic functions accept arrays too."""
        if self.fn is not None:
            return self.fn(x)
        if self.family == "linear":
            return self.q * x + self.r
        return self.q / x + self.r

    def values(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized evaluation; custom evaluators are applied per point."""
        if self.family == "custom":
            return np.fromiter((float(self.fn(float(x))) for x in xs), float, len(xs))
        return np.asarray(self(np.asarray(xs, dtype=float)), dtype=float)

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

    def check_on(self, iv: Interval) -> None:
        """Raise unless the function may be applied on iv: DomainError
        outside its domain, and for a custom function, sample-checked by
        check_monotone, MonotonicityError unless it is strictly monotone
        in its declared direction."""
        if self.family != "custom":
            self.require_on(iv)
            return
        found = check_monotone(self, iv)
        if found != self.direction:
            raise MonotonicityError(
                f"custom correlation declared {self.direction} but samples "
                f"{found} on [{iv.lo:g}, {iv.hi:g}]")

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


def linear(q: float, r: float = 0.0) -> CorrelationFunction:
    """f(x) = q*x + r with q != 0."""
    q = float(q)
    if q == 0.0:
        raise ValueError("linear correlation needs q != 0 to stay injective")
    return CorrelationFunction("linear", q=q, r=float(r),
                               direction=INCREASING if q > 0 else DECREASING)


def hyperbolic(q: float, r: float = 0.0) -> CorrelationFunction:
    """f(x) = q/x + r with q != 0, usable on intervals that avoid zero."""
    q = float(q)
    if q == 0.0:
        raise ValueError("hyperbolic correlation needs q != 0 to stay injective")
    return CorrelationFunction("hyperbolic", q=q, r=float(r),
                               direction=DECREASING if q > 0 else INCREASING)


def identity() -> CorrelationFunction:
    """x: linear(1, 0) named ``identity``."""
    return replace(linear(1.0), fn=operator.pos, name="identity")


def negation() -> CorrelationFunction:
    """-x: linear(-1, 0) named ``negation``."""
    return replace(linear(-1.0), fn=operator.neg, name="negation")


def reciprocal() -> CorrelationFunction:
    """1/x: hyperbolic(1, 0) named ``reciprocal``."""
    return replace(hyperbolic(1.0), fn=partial(operator.truediv, 1.0), name="reciprocal")


def custom(fn: Callable[[float], float], direction: str,
           domain: Interval | None = None) -> CorrelationFunction:
    """Wrap an arbitrary evaluator with a declared monotone direction.

    The declaration is trusted until the function is applied to a fuzzy
    number, at which point it is sample-checked on the support.
    """
    if direction not in (INCREASING, DECREASING):
        raise ValueError(f"direction must be '{INCREASING}' or '{DECREASING}', "
                         f"got {direction!r}")
    if not callable(fn):
        raise ValueError("custom correlation needs a callable evaluator")
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
            return factory(*args)
    raise ValueError(f"unrecognized correlation object: {obj!r}")


# -- checks and application ----------------------------------------------------


def check_monotone(f: CorrelationFunction, iv: Interval,
                   samples: int = MONOTONE_CHECK_SAMPLES) -> str:
    """Verify strict monotonicity of f on an interval by dense sampling.

    Returns the detected direction.  Raises MonotonicityError when the
    sampled values are not strictly ordered, and DomainError when the
    interval leaves the function's domain or a sampled value is not finite.
    """
    if samples < 3:
        raise ValueError(f"monotonicity check needs at least 3 samples, got {samples}")
    f.require_on(iv)
    if iv.width == 0.0:
        return f.direction
    xs = np.linspace(iv.lo, iv.hi, samples)
    ys = f.values(xs)
    bad = ~np.isfinite(ys)
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(
            f"{f!r} gives {ys[i]} at x = {xs[i]:.12g}, the first non-finite "
            f"sample on [{iv.lo:g}, {iv.hi:g}]")
    d = np.diff(ys)
    if np.all(d > 0):
        return INCREASING
    if np.all(d < 0):
        return DECREASING
    raise MonotonicityError(
        f"{f!r} is not strictly monotone on [{iv.lo:g}, {iv.hi:g}] "
        f"({samples} samples)")


def induced_number(a: FuzzyNumber, f: CorrelationFunction) -> FuzzyNumber:
    """The fuzzy number B = f(A) carried by the correlation.

    Each level of B is the monotone image of the matching level of A, so
    B lives on the same alpha grid as A.
    """
    f.check_on(a.support)
    lo_img = f.values(a.los)
    hi_img = f.values(a.his)
    if f.direction == DECREASING:
        lo_img, hi_img = hi_img, lo_img
    return FuzzyNumber(lo_img, hi_img)

"""Monotone correlation functions tying one operand to the other.

A pair (A, B) is correlated through a continuous strictly monotone
injective f when B carries exactly the values f(x) for x in A, with the
joint possibility concentrated on the graph of f.  Under that coupling
the levels of B are the images of the levels of A, which is what
``induced_number`` computes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, MonotonicityError
from .fuzzy import FuzzyNumber
from .interval import Interval

INCREASING = "increasing"
DECREASING = "decreasing"

# Sample count used when validating custom evaluators on an interval.
MONOTONE_CHECK_SAMPLES = 257

_BUILTIN_FAMILIES = ("linear", "hyperbolic", "identity", "negation", "reciprocal")


@dataclass(frozen=True)
class CorrelationFunction:
    """A strictly monotone function of one real variable.

    Built-in families:

    * ``linear``       q*x + r, q != 0, increasing iff q > 0
    * ``hyperbolic``   q/x + r, q != 0, defined away from zero,
      decreasing iff q > 0
    * ``identity``     x
    * ``negation``     -x
    * ``reciprocal``   1/x, defined away from zero
    * ``custom``       arbitrary evaluator with a declared direction

    Instances are built through the factory functions below rather than
    directly.
    """

    family: str
    q: float = 0.0
    r: float = 0.0
    fn: Callable[[float], float] | None = field(default=None, compare=False)
    direction: str = INCREASING
    domain: Interval | None = None

    def __call__(self, x):
        """Evaluate pointwise; built-in families accept arrays too."""
        if self.family == "linear":
            return self.q * x + self.r
        if self.family == "hyperbolic":
            return self.q / x + self.r
        if self.family == "identity":
            return x
        if self.family == "negation":
            return -x
        if self.family == "reciprocal":
            return 1.0 / x
        return self.fn(x)

    def values(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized evaluation; custom evaluators are applied per point."""
        if self.family == "custom":
            return np.fromiter((float(self.fn(float(x))) for x in xs), float, len(xs))
        return np.asarray(self(np.asarray(xs, dtype=float)), dtype=float)

    @property
    def linear_coeffs(self) -> tuple[float, float] | None:
        """(q, r) when the function is q*x + r, else None."""
        if self.family == "linear":
            return (self.q, self.r)
        if self.family == "identity":
            return (1.0, 0.0)
        if self.family == "negation":
            return (-1.0, 0.0)
        return None

    @property
    def hyperbolic_coeffs(self) -> tuple[float, float] | None:
        """(q, r) when the function is q/x + r, else None."""
        if self.family == "hyperbolic":
            return (self.q, self.r)
        if self.family == "reciprocal":
            return (1.0, 0.0)
        return None

    def require_on(self, iv: Interval) -> None:
        """Raise DomainError unless the function is defined on all of iv."""
        if self.hyperbolic_coeffs is not None:
            if iv.lo <= 0.0 <= iv.hi:
                raise DomainError(
                    f"{self.family} correlation is undefined across zero, "
                    f"got interval [{iv.lo:g}, {iv.hi:g}]")
        elif self.domain is not None and not self.domain.contains(iv):
            raise DomainError(
                f"interval [{iv.lo:g}, {iv.hi:g}] leaves the declared domain "
                f"[{self.domain.lo:g}, {self.domain.hi:g}]")

    def to_json(self):
        """JSON form; zero-parameter families serialize as bare strings."""
        if self.family == "linear":
            return {"linear": [self.q, self.r]}
        if self.family == "hyperbolic":
            return {"hyperbolic": [self.q, self.r]}
        if self.family == "custom":
            raise ValueError("custom correlation functions have no JSON form")
        return self.family

    def __repr__(self) -> str:
        if self.family in ("linear", "hyperbolic"):
            return f"{self.family}(q={self.q:g}, r={self.r:g})"
        return self.family


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
    return CorrelationFunction("identity", direction=INCREASING)


def negation() -> CorrelationFunction:
    return CorrelationFunction("negation", direction=DECREASING)


def reciprocal() -> CorrelationFunction:
    return CorrelationFunction("reciprocal", direction=DECREASING)


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


def correlation_from_json(obj) -> CorrelationFunction:
    """Parse {"linear": [q, r]}, {"hyperbolic": [q, r]} or a bare family name."""
    if isinstance(obj, str):
        factories = {"identity": identity, "negation": negation, "reciprocal": reciprocal}
        if obj in factories:
            return factories[obj]()
        raise ValueError(f"unknown correlation function name {obj!r}")
    if isinstance(obj, dict) and len(obj) == 1:
        if "linear" in obj:
            return linear(*obj["linear"])
        if "hyperbolic" in obj:
            return hyperbolic(*obj["hyperbolic"])
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


def _validate_custom(f: CorrelationFunction, iv: Interval) -> None:
    if f.family != "custom":
        return
    found = check_monotone(f, iv)
    if found != f.direction:
        raise MonotonicityError(
            f"custom correlation declared {f.direction} but samples "
            f"{found} on [{iv.lo:g}, {iv.hi:g}]")


def induced_number(a: FuzzyNumber, f: CorrelationFunction) -> FuzzyNumber:
    """The fuzzy number B = f(A) carried by the correlation.

    Each level of B is the monotone image of the matching level of A, so
    B lives on the same alpha grid as A.
    """
    f.require_on(a.support)
    _validate_custom(f, a.support)
    lo_img = f.values(a.los)
    hi_img = f.values(a.his)
    if f.direction == DECREASING:
        lo_img, hi_img = hi_img, lo_img
    return FuzzyNumber(lo_img, hi_img)

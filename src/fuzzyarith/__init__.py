"""Alpha-cut arithmetic for fuzzy numbers.

The package computes sums and products of fuzzy numbers in two regimes:
the standard levelwise interval arithmetic, and the correlated regime
where the second operand is a monotone function of the first and every
level is the exact range of x + f(x) or x * f(x).  A sampling oracle
built straight from the sup-min extension provides independent reference
values for both.
"""

from .arithmetic import (CLOSED_FORM_KINDS, LevelResult, RangeMethod,
                         closed_form, compare_levels, correlated_product,
                         correlated_sum, range_over_interval,
                         standard_product, standard_sum)
from .correlation import (CorrelationFunction, check_monotone,
                          correlation_from_json, custom, hyperbolic, identity,
                          induced_number, linear, negation, reciprocal)
from .errors import DomainError, MonotonicityError
from .fuzzy import (DEFAULT_GRID_K, FuzzyNumber, crisp,
                    from_levels, fuzzy_from_json, trapezoidal, triangular)
from .interval import Interval
from .oracle import (JointDistribution, OracleReport, SampledMembership,
                     build_joint, extend, levels_from_membership, oracle_check)

__version__ = "0.1.0"

__all__ = [
    "CLOSED_FORM_KINDS",
    "CorrelationFunction",
    "DEFAULT_GRID_K",
    "DomainError",
    "FuzzyNumber",
    "Interval",
    "JointDistribution",
    "LevelResult",
    "MonotonicityError",
    "OracleReport",
    "RangeMethod",
    "SampledMembership",
    "build_joint",
    "check_monotone",
    "closed_form",
    "compare_levels",
    "correlated_product",
    "correlated_sum",
    "correlation_from_json",
    "crisp",
    "custom",
    "extend",
    "from_levels",
    "fuzzy_from_json",
    "hyperbolic",
    "identity",
    "induced_number",
    "levels_from_membership",
    "linear",
    "negation",
    "oracle_check",
    "range_over_interval",
    "reciprocal",
    "standard_product",
    "standard_sum",
    "trapezoidal",
    "triangular",
]

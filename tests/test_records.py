"""The library's records are named tuples: every way to make one from values
validates it, as Interval's constructor does, and none of them can be changed
once made.  A fuzzy number, and a report that holds two, copies and pickles
through the validating constructor."""

import copy
import pickle

import numpy as np
import pytest

from fuzzyarith import (FuzzyNumber, JointDistribution, OracleReport, RangeMethod,
                        SampledMembership, hyperbolic, linear, oracle_check, triangular)
from fuzzyarith.arithmetic import compare_levels

COPIES = {"pickle": lambda v: pickle.loads(pickle.dumps(v)), "copy": copy.copy,
          "deepcopy": copy.deepcopy}

# (a valid record, a field change that its checks refuse, the same change as
# an unchecked tuple, the refusal)
VALIDATING = {
    "RangeMethod": (RangeMethod(100), {"samples": 64}, tuple.__new__(RangeMethod, (64,)),
                    "at least 65 samples"),
    "JointDistribution": (
        JointDistribution([0, 1, 2], [0.5, 1, 0], [1, 3, 5]), {"xs": [0.0, 1.0, 1.0]},
        tuple.__new__(JointDistribution, (np.array([0.0, 1.0, 1.0]), np.ones(3), np.ones(3))),
        "xs must be strictly increasing"),
    "SampledMembership": (
        SampledMembership([0, 1], [1, 0.5]), {"mus": [1.0]},
        tuple.__new__(SampledMembership, (np.zeros(2), np.zeros(1))),
        "zs and mus must be 1-d arrays of one length"),
}


def _same(x, y):
    return type(x) is type(y) and all(np.array_equal(a, b) for a, b in zip(x, y, strict=True))


@pytest.mark.parametrize("good, change, raw, refusal", VALIDATING.values(), ids=VALIDATING)
def test_every_construction_from_values_validates(good, change, raw, refusal):
    with pytest.raises(ValueError, match=refusal):
        good._replace(**change)
    with pytest.raises(ValueError, match=refusal):
        type(good)._make(raw)
    assert _same(good._replace(), good) and _same(type(good)._make(good), good)
    # pickle and copy rebuild through __new__, so an unchecked tuple does not survive them
    for rebuild in COPIES.values():
        assert _same(rebuild(good), good)
        with pytest.raises(ValueError, match=refusal):
            rebuild(raw)


def test_every_construction_converts_the_fields():
    method = RangeMethod(100)._replace(samples=np.int64(200))
    assert type(method.samples) is int and method.samples == 200
    s = SampledMembership._make(([0, 1], [True, False]))
    joint = JointDistribution([0, 1], [0, 1], [2, 3])._replace(ys=[5, 4])
    for array in (*s, *joint):
        assert type(array) is np.ndarray and array.dtype == float


REPORT = oracle_check(triangular(1.0, 2.0, 3.0, grid=4), linear(2.0, 1.0), "sum", 101)
RECORDS = {
    "RangeMethod": RangeMethod(),
    "CorrelationFunction": linear(2.0, 1.0),
    "JointDistribution": VALIDATING["JointDistribution"][0],
    "SampledMembership": VALIDATING["SampledMembership"][0],
    "OracleReport": REPORT,
}


@pytest.mark.parametrize("record", RECORDS.values(), ids=RECORDS)
def test_records_are_immutable(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], record[0])
    with pytest.raises(AttributeError):
        record.note = 1
    assert not hasattr(record, "note")


def test_report_rows_are_built_once_and_cannot_be_replaced():
    rows = REPORT.levels
    assert rows is REPORT.levels and rows == compare_levels(REPORT.engine, REPORT.oracle, 0.0)
    with pytest.raises(AttributeError):
        REPORT.levels = []
    assert REPORT.levels is rows


TERMWISE_REPORT = oracle_check(triangular(1.0, 2.0, 3.0, grid=4), hyperbolic(4.0), "sum", 101)


def _equal(x, y):
    """x == y, read through the tuples and arrays that a report holds."""
    if isinstance(x, np.ndarray):
        return type(y) is np.ndarray and x.tobytes() == y.tobytes()
    if type(x) is tuple:
        return type(y) is tuple and len(x) == len(y) and all(map(_equal, x, y))
    return type(x) is type(y) and x == y


def _read_only(*arrays):
    return not any(array.flags.writeable for array in arrays)


def _arrays(report):
    """The arrays that a report with a termwise reading holds."""
    e, o = report.engine, report.oracle
    return e.los, e.his, o.los, o.his, report.hausdorff, *report.termwise


@pytest.mark.parametrize("rebuild", COPIES.values(), ids=COPIES)
def test_a_number_and_a_report_copy_and_pickle_through_the_constructor(rebuild):
    number = triangular(1.0, 2.0, 3.0, grid=4)
    got = rebuild(number)
    assert type(got) is FuzzyNumber and got == number and _read_only(got.los, got.his)
    rows = TERMWISE_REPORT.levels  # cached before the copy, and copied with it
    got = rebuild(TERMWISE_REPORT)
    assert type(got) is OracleReport and all(map(_equal, got, TERMWISE_REPORT))
    assert got.__dict__ == {"levels": rows}
    assert _read_only(*_arrays(got))
    k = TERMWISE_REPORT.engine.k
    got = TERMWISE_REPORT._replace(hausdorff=np.zeros(k + 1),
                                   termwise=(np.zeros(k + 1), np.ones(k + 1)))
    assert _read_only(*_arrays(got))


def test_every_array_of_an_oracle_report_is_read_only():
    for array in _arrays(TERMWISE_REPORT):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 99.0


def test_records_are_tuples():
    xs, mu, ys = joint = VALIDATING["JointDistribution"][0]
    assert xs is joint[0] is joint.xs and mu is joint.mu and ys is joint[-1]
    assert RangeMethod() == (1025,) and RangeMethod()._asdict() == {"samples": 1025}
    assert linear(2.0, 1.0)[:3] == ("linear", 2.0, 1.0)
    assert hash(linear(2.0, 1.0)) == hash(tuple(linear(2.0, 1.0)))

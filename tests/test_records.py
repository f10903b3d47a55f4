"""The library's records are named tuples, and none of them can be changed
once made.  Every way to make a RangeMethod from values validates it, as
Interval's constructor does; the oracle's internal sample records are plain
named tuples.  A fuzzy number, and a report that holds two, copies and
pickles through the validating constructor."""

import copy
import pickle

import numpy as np
import pytest

from fuzzyarith import (FuzzyNumber, OracleReport, RangeMethod, hyperbolic, linear,
                        oracle_check, triangular)
from fuzzyarith.arithmetic import compare_levels
from fuzzyarith.oracle import JointDistribution, SampledMembership

COPIES = {"pickle": lambda v: pickle.loads(pickle.dumps(v)), "copy": copy.copy,
          "deepcopy": copy.deepcopy}

# (a valid record, a field change that its checks refuse, the same change as
# an unchecked tuple, the refusal)
VALIDATING = {
    "RangeMethod": (RangeMethod(100), {"samples": 64}, tuple.__new__(RangeMethod, (64,)),
                    "at least 65 samples"),
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


REPORT = oracle_check(triangular(1.0, 2.0, 3.0, grid=4), linear(2.0, 1.0), "sum", 101)
RECORDS = {
    "RangeMethod": RangeMethod(),
    "CorrelationFunction": linear(2.0, 1.0),
    "JointDistribution": JointDistribution(np.array([0.0, 1.0, 2.0]), np.array([0.5, 1.0, 0.0]),
                                           np.array([1.0, 3.0, 5.0])),
    "SampledMembership": SampledMembership(np.array([0.0, 1.0]), np.array([1.0, 0.5])),
    "OracleReport": REPORT,
}


@pytest.mark.parametrize("name", ["JointDistribution", "SampledMembership"])
def test_the_oracle_sample_records_are_plain_named_tuples(name):
    # their one maker is an oracle stage, so nothing checks or converts their fields
    record = RECORDS[name]
    cls = type(record)
    assert "__new__" not in vars(cls) and "_make" not in vars(cls)
    assert cls.__new__ is cls.__bases__[0].__new__ and cls._make.__func__ is (
        cls.__bases__[0]._make.__func__)
    assert vars(cls).get("__slots__") == ()
    fields = [[2.0, 1.0]] * len(record)
    for made in (cls(*fields), cls._make(fields), record._replace(**dict(zip(cls._fields,
                                                                          fields)))):
        assert all(v is fields[0] for v in made)


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
    xs, mu, ys = joint = RECORDS["JointDistribution"]
    assert xs is joint[0] is joint.xs and mu is joint.mu and ys is joint[-1]
    assert RangeMethod() == (1025,) and RangeMethod()._asdict() == {"samples": 1025}
    assert linear(2.0, 1.0)[:3] == ("linear", 2.0, 1.0)
    assert hash(linear(2.0, 1.0)) == hash(tuple(linear(2.0, 1.0)))

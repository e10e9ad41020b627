"""The frozen parameter and report records: construction, immutability,
equality, hash and text.  The repr and `cli._text` strings were recorded
from the `dataclasses` records these replace, so a report or an error
record that prints a record prints the same bytes."""

from fractions import Fraction as F

import pytest

from qaskey import families as fam, identities as ids, numerics as num
from qaskey.cli import _text

QP = fam.QParams(F(1, 2), F(2, 3))
WITNESS = ids.Witness("k=1", "1/2", "1/3")

# (class, field names, field values, other values, required field count,
#  repr, cli text)
RECORDS = [
    (fam.QParams, ("t", "s"), (F(1, 2), F(2, 3)), (F(1, 2), F(1, 3)), 2,
     "QParams(t=Fraction(1, 2), s=Fraction(2, 3))", "t=1/2,s=2/3"),
    (fam.JacobiParams, ("alpha", "beta"), (F(1, 2), F(-1, 3)), (F(1, 2), F(1, 3)), 2,
     "JacobiParams(alpha=Fraction(1, 2), beta=Fraction(-1, 3))", "alpha=1/2,beta=-1/3"),
    (fam.KrawtchoukParams, ("p", "N"), (F(1, 3), 5), (F(1, 3), 4), 2,
     "KrawtchoukParams(p=Fraction(1, 3), N=5)", "p=1/3,N=5"),
    (fam.HahnParams, ("alpha", "beta", "N"), (F(1, 2), F(1, 3), 4), (F(1, 2), F(1, 3), 3), 3,
     "HahnParams(alpha=Fraction(1, 2), beta=Fraction(1, 3), N=4)", "alpha=1/2,beta=1/3,N=4"),
    (fam.RacahParams, ("alpha", "beta", "N", "delta"), (F(1, 2), F(1, 3), 4, F(1, 5)),
     (F(1, 2), F(1, 3), 4, F(1, 7)), 4,
     "RacahParams(alpha=Fraction(1, 2), beta=Fraction(1, 3), N=4, delta=Fraction(1, 5))",
     "alpha=1/2,beta=1/3,N=4,delta=1/5"),
    (fam.WilsonParams, ("a", "b", "c", "d"), (F(1), F(3, 2), F(2), F(5, 2)),
     (F(1), F(3, 2), F(2), F(7, 2)), 4,
     "WilsonParams(a=Fraction(1, 1), b=Fraction(3, 2), c=Fraction(2, 1), d=Fraction(5, 2))",
     "a=1,b=3/2,c=2,d=5/2"),
    (fam.AWParams, ("a", "b", "c", "d", "qbase"), (F(1, 2), F(1, 3), F(1, 5), F(1, 7), F(1, 2)),
     (F(1, 2), F(1, 3), F(1, 5), F(1, 7), F(1, 3)), 5,
     "AWParams(a=Fraction(1, 2), b=Fraction(1, 3), c=Fraction(1, 5), d=Fraction(1, 7), "
     "qbase=Fraction(1, 2))", "a=1/2,b=1/3,c=1/5,d=1/7,qbase=1/2"),
    (fam.QRacahParams, ("alpha", "beta", "delta", "N", "qp"), (F(1, 2), F(1, 3), F(1, 5), 4, QP),
     (F(1, 2), F(1, 3), F(1, 5), 3, QP), 5,
     "QRacahParams(alpha=Fraction(1, 2), beta=Fraction(1, 3), delta=Fraction(1, 5), N=4, "
     "qp=QParams(t=Fraction(1, 2), s=Fraction(2, 3)))",
     "alpha=1/2,beta=1/3,delta=1/5,N=4,qp=t=1/2,s=2/3"),
    (ids.Witness, ("location", "lhs", "rhs"), ("k=1", "1/2", "1/3"), ("k=2", "1/2", "1/3"), 3,
     "Witness(location='k=1', lhs='1/2', rhs='1/3')", "location=k=1,lhs=1/2,rhs=1/3"),
    (ids.CheckReport, ("check_id", "params", "verdict", "witness", "residual"),
     ("c", {"l": 1}, "fail", WITNESS, "1/6"), ("c", {"l": 2}, "fail", WITNESS, "1/6"), 3,
     "CheckReport(check_id='c', params={'l': 1}, verdict='fail', "
     "witness=Witness(location='k=1', lhs='1/2', rhs='1/3'), residual='1/6')",
     "check_id=c,params={'l': 1},verdict=fail,witness=location=k=1,lhs=1/2,rhs=1/3,residual=1/6"),
    (ids.Mutation, ("index", "delta"), (0, F(1)), (1, F(1)), 0,
     "Mutation(index=0, delta=Fraction(1, 1))", "index=0,delta=1"),
    (ids.ParamGrid, ("lmax", "mmax", "qparams", "alphas"), (5, 5, ids.DEFAULT_QPARAMS,
     ids.DEFAULT_ALPHAS), (5, 4, ids.DEFAULT_QPARAMS, ids.DEFAULT_ALPHAS), 0,
     "ParamGrid(lmax=5, mmax=5, qparams=(QParams(t=Fraction(1, 2), s=Fraction(2, 3)), "
     "QParams(t=Fraction(2, 3), s=Fraction(1, 2)), QParams(t=Fraction(1, 2), s=Fraction(1, 3))), "
     "alphas=(Fraction(0, 1), Fraction(1, 2), Fraction(1, 1), Fraction(3, 2), Fraction(1, 4)))",
     "lmax=5,mmax=5,qparams=(t=1/2,s=2/3,t=2/3,s=1/2,t=1/2,s=1/3),alphas=(0,1/2,1,3/2,1/4)"),
    (num.LimitReport, ("kind", "schedule", "errors", "ratios", "verdict"),
     ("hahn-to-jacobi", (10, 20), (0.5, 0.25), (2.0,), "pass"),
     ("hahn-to-jacobi", (10, 20), (0.5, 0.25), (2.0,), "fail"), 5,
     "LimitReport(kind='hahn-to-jacobi', schedule=(10, 20), errors=(0.5, 0.25), ratios=(2.0,), "
     "verdict='pass')",
     "kind=hahn-to-jacobi,schedule=(10,20),errors=(0.5,0.25),ratios=(2.0),verdict=pass"),
]
IDS = [spec[0].__name__ for spec in RECORDS]


@pytest.mark.parametrize("spec", RECORDS, ids=IDS)
def test_construction_by_position_keyword_and_default(spec):
    cls, names, values, other, required, text_repr, text = spec
    record = cls(*values)
    assert tuple(getattr(record, name) for name in names) == values
    assert cls(**dict(zip(names, values))) == record
    assert cls(*values[:1], **dict(zip(names[1:], values[1:]))) == record


def test_defaults_are_those_of_the_class():
    assert ids.Mutation() == ids.Mutation(0, F(1)) == ids.Mutation(delta=F(1))
    assert ids.Mutation(index=3).delta == F(1)
    grid = ids.ParamGrid()
    assert (grid.lmax, grid.mmax, grid.qparams, grid.alphas) == (
        5, 5, ids.DEFAULT_QPARAMS, ids.DEFAULT_ALPHAS)
    assert ids.ParamGrid(mmax=2) == ids.ParamGrid(5, 2)
    report = ids.CheckReport("c", {}, "pass")
    assert report.witness is None and report.residual is None


@pytest.mark.parametrize("spec", RECORDS, ids=IDS)
def test_a_missing_or_extra_argument_is_a_type_error(spec):
    cls, names, values, other, required, text_repr, text = spec
    if required:
        with pytest.raises(TypeError):
            cls(*values[:required - 1])
    with pytest.raises(TypeError):
        cls(*values, values[0])
    with pytest.raises(TypeError):
        cls(*values, nosuch=1)
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})


@pytest.mark.parametrize("spec", RECORDS, ids=IDS)
def test_assignment_raises(spec):
    cls, names, values, other, required, text_repr, text = spec
    record = cls(*values)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.nosuch = 1
    assert tuple(getattr(record, name) for name in names) == values


@pytest.mark.parametrize("spec", RECORDS, ids=IDS)
def test_equality_and_hash_go_by_class_and_fields(spec):
    cls, names, values, other, required, text_repr, text = spec
    record = cls(*values)
    assert record == cls(*values) and not record != cls(*values)
    assert record != cls(*other)
    assert record != values and values != record
    subclass = type("Sub" + cls.__name__, (cls,), {})
    assert subclass(*values) != record and record != subclass(*values)
    try:
        expected = hash(values)
    except TypeError:  # a dict field: the record is unhashable too
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(cls(*values)) == expected
        assert {record: 1}[cls(*values)] == 1


@pytest.mark.parametrize("spec", RECORDS, ids=IDS)
def test_repr_and_report_text_are_the_recorded_strings(spec):
    cls, names, values, other, required, text_repr, text = spec
    record = cls(*values)
    assert repr(record) == text_repr
    assert _text(record) == text

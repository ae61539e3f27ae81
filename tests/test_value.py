"""The package's twelve immutable value classes, through one table: call
forms, validation, immutability, equality and hashing, and the repr that
error messages quote."""

import pytest

from mdsrepair._value import Value
from mdsrepair.clique import CliquePartition, CliqueRepair
from mdsrepair.codes import CodeSpec, Codeword
from mdsrepair.errors import IncompatibleSubfield, LengthMismatch
from mdsrepair.gf import FieldSpec
from mdsrepair.repair import (
    MatrixScheme,
    RecoveryPlan,
    RecoveryResult,
    RepairReport,
    RepairScheme,
    SubpacketizationSpec,
    gamma_ranks_matrix,
)
from mdsrepair.search import SearchConfig, SearchResult

NAMES = ["CodeSpec", "Codeword", "SubpacketizationSpec", "RepairScheme",
         "RepairReport", "MatrixScheme", "RecoveryResult", "RecoveryPlan",
         "CliquePartition", "CliqueRepair", "SearchConfig", "SearchResult"]

# a field change each class accepts, where the last field set to None is not
GF16 = FieldSpec(2, [1, 1, 0, 0, 1])  # the field of rs53
VALID_CHANGE = {"Codeword": {"symbols": (GF16.zero(),) * 5},
                "SubpacketizationSpec": {"s": 2}, "RepairScheme": {"failed": 2},
                "SearchConfig": {"seed": 4}}


def table(rs53):
    """Per class: the class, its fields in order with a valid value each,
    its defaults, and one invalid keyword change with the error it raises
    (None for a class that validates nothing).  Values are hashable, and no
    NumPy array appears, so that the table builds without NumPy."""
    f = rs53.field
    one, z = f.one(), f.element(1)
    sub = SubpacketizationSpec(rs53, 1)
    scheme = RepairScheme(sub, 1, ((f.element(10), f.element(11)),
                                   (f.element(7), f.element(13))))
    report = RepairReport(sub, 1, (4, 3, 3))
    symbols = (one, z, one, z, z)
    rows = {
        CodeSpec: ([("n", 5), ("k", 3), ("field", f), ("parity", rs53.parity),
                    ("name", "t")], {"name": None}, ({"k": 5}, ValueError)),
        Codeword: ([("code", rs53), ("symbols", symbols)], {},
                   ({"symbols": symbols[:-1]}, LengthMismatch)),
        SubpacketizationSpec: ([("code", rs53), ("s", 1)], {},
                               ({"s": 3}, IncompatibleSubfield)),
        RepairScheme: ([("sub", sub), ("failed", 1), ("elements", scheme.elements)],
                       {}, ({"failed": 4}, ValueError)),
        RepairReport: ([("sub", sub), ("failed", 1), ("gammas", (4, 3, 3))], {}, None),
        MatrixScheme: ([("sub", sub), ("failed", 1), ("reference", (1, 0, 0, 0)),
                        ("matrices", ((1, 0), (0, 1)))], {}, None),
        RecoveryResult: ([("element", z), ("symbols", (z,)),
                          ("downloads", ((2, 3), (4, 2))), ("total_symbols", 5),
                          ("total_bits", 5)], {}, None),
        RecoveryPlan: ([("sent", ((3, (5, 6)), (1, (3,)))), ("solve", (5, 9)),
                        ("downloads", ((4, 2), (2, 1)))], {}, None),
        CliquePartition: ([("sub", sub), ("cliques", ((1, 2), (3,)))], {}, None),
        CliqueRepair: ([("scheme", scheme), ("mu", z), ("bound", 10),
                        ("degenerate", False), ("chosen_clique", (1, 2))], {}, None),
        SearchConfig: ([("sub", sub), ("failed", 2), ("mode", "random"),
                        ("samples", 10), ("seed", 3)],
                       {"mode": "exhaustive", "samples": 100_000, "seed": 0},
                       ({"mode": "climb"}, ValueError)),
        SearchResult: ([("best", scheme), ("best_report", report), ("evaluated", 7),
                        ("feasible", 5), ("proven_optimal", True)], {}, None),
    }
    return {cls.__name__: (cls, *row) for cls, row in rows.items()}


@pytest.fixture(params=NAMES)
def case(request, rs53):
    return table(rs53)[request.param]


def test_table_covers_every_value_class(rs53):
    package = {cls.__name__ for cls in Value.__subclasses__()
               if cls.__module__.startswith("mdsrepair.")}
    assert sorted(table(rs53)) == sorted(NAMES) == sorted(package)


def test_construction(case):
    cls, fields, defaults, _ = case
    names = [name for name, _ in fields]
    values = [value for _, value in fields]
    obj = cls(*values)
    assert [getattr(obj, name) for name in names] == values
    assert cls(**dict(fields)) == obj
    assert cls(*values[:1], **dict(fields[1:])) == obj
    required = [value for name, value in fields if name not in defaults]
    assert cls(*required) == cls(*required, **defaults)
    for name, value in defaults.items():
        assert getattr(cls(*required), name) == value


def test_bad_calls_raise_type_error(case):
    cls, fields, defaults, _ = case
    values = [value for _, value in fields]
    with pytest.raises(TypeError, match="positional arguments"):
        cls(*values, None)
    with pytest.raises(TypeError, match="missing required argument"):
        cls(*values[:-1 - len(defaults)])
    with pytest.raises(TypeError, match="unexpected keyword argument 'nope'"):
        cls(*values, nope=1)
    with pytest.raises(TypeError, match="multiple values"):
        cls(*values, **{fields[0][0]: values[0]})


@pytest.mark.parametrize("name", ["CodeSpec", "Codeword", "SubpacketizationSpec",
                                  "RepairScheme", "SearchConfig"])
def test_post_init_validation_still_raises(rs53, name):
    cls, fields, _, (change, error) = table(rs53)[name]
    kwargs = {**dict(fields), **change}
    with pytest.raises(error):
        cls(**kwargs)
    with pytest.raises(error):
        cls(*kwargs.values())


def test_assignment_and_deletion_raise(case):
    cls, fields, _, _ = case
    obj = cls(**dict(fields))
    for name, value in fields + [("extra", 1)]:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(obj, name, 0)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(obj, name)
    assert [getattr(obj, name) for name, _ in fields] == [v for _, v in fields]
    assert not hasattr(obj, "extra")


def test_equality_and_hash(case):
    cls, fields, _, _ = case
    values = tuple(value for _, value in fields)
    a, b = cls(*values), cls(*values)
    assert a == b and not a != b and a is not b
    assert hash(a) == hash(b) == hash(values)
    # a record of another class with the same fields and values is unequal
    twin = type(cls.__name__, (Value,),
                {"__annotations__": {name: "object" for name, _ in fields}})
    other = twin(*values)
    assert a != other and other != a and not a == other
    assert a != values
    # one field changed, to a value the class accepts
    change = VALID_CHANGE.get(cls.__name__, {fields[-1][0]: None})
    assert a != cls(**{**dict(fields), **change})


def test_derived_attributes_are_no_fields(rs53):
    # SubpacketizationSpec builds its tables after construction; they take
    # no part in equality, hashing or repr
    sub = SubpacketizationSpec(rs53, 1)
    sub.subfield, sub.slot_shifts
    fresh = SubpacketizationSpec(rs53, 1)
    assert sub == fresh and hash(sub) == hash(fresh) and repr(sub) == repr(fresh)


def test_repr(case):
    cls, fields, _, _ = case
    obj = cls(*(value for _, value in fields))
    if cls is CodeSpec:
        assert repr(obj) == "CodeSpec(t over GF(2^4))"
    else:
        inner = ", ".join(f"{name}={value!r}" for name, value in fields)
        assert repr(obj) == f"{cls.__name__}({inner})"


def test_repr_literal(rs53):
    sub = SubpacketizationSpec(rs53, 1)
    spec = "SubpacketizationSpec(code=CodeSpec(rs53 over GF(2^4)), s=1)"
    assert repr(sub) == spec
    assert repr(SearchConfig(sub, 1)) == (
        f"SearchConfig(sub={spec}, failed=1, mode='exhaustive', samples=100000, "
        "seed=0)")
    assert repr(RepairReport(sub, 1, (4, 3, 3))) == (
        f"RepairReport(sub={spec}, failed=1, gammas=(4, 3, 3))")
    # the mismatch error of the matrix oracle quotes both specs
    mat = MatrixScheme(sub, 1, (1, 0, 0, 0), ())
    with pytest.raises(ValueError) as info:
        gamma_ranks_matrix(sub, 2, mat)
    assert str(info.value) == f"matrices realize node 1 of {spec}, not node 2 of {spec}"

"""The value records against their dataclass twins (`oracles.dataclass_twin`):
equality, hash, repr and ordering agree on random instances, fields are
frozen, equality is strict about the class, each constructor takes the
fields in slot order, and `replace` and pickling run the checks again."""

import copy
import inspect
import pickle
import random

import pytest

from oracles import dataclass_twin
from polydepth.abelian import FgAbelianGroup, from_cyclic_factors
from polydepth.catalog import catalog_group
from polydepth.depth import DepthBoundReport, NoBoundApplicable, WedgeDepthResult, wedge_exact_depth
from polydepth.errors import Record
from polydepth.finitegroup import Prop32Report, SeriesResult, Subgroup, n1, verify_prop32
from polydepth.intlinalg import IntMatrix, SnfResult, smith_normal_form
from polydepth.pi1 import ElementaryAmenable, FgAbelian, Finite, Free, Trivial
from polydepth.topology import ChainComplex, Explicit, Product, Sphere, Wedge

GROUPS = [catalog_group(name) for name in ("Z2", "Z6", "S3", "Z2xZ2", "Q8")]


def _abelian(rng):
    return from_cyclic_factors(rng.randrange(3), [rng.randrange(1, 13) for _ in range(2)])


def _matrix(rng):
    rows, cols = rng.randrange(3), rng.randrange(3)
    entries = [[rng.randrange(-2, 3) for _ in range(cols)] for _ in range(rows)]
    return IntMatrix.from_rows(entries, cols)


def _complex(rng):
    if rng.random() < 0.5:
        return ChainComplex(0, (), (rng.randrange(3),))
    cells = (rng.randrange(1, 3), rng.randrange(3))
    return ChainComplex(1, (IntMatrix.zeros(*cells),), cells)


def _sphere(rng):
    return Sphere(rng.randrange(1, 4))


def _report(rng):
    dim = rng.randrange(1, 5)
    terms = {k: 1 for k in range(2, dim + 1) if rng.random() < 0.5}
    sl_pi1 = rng.randrange(2)
    bound = sl_pi1 + sum(terms.values())
    exact = rng.choice([None, bound])
    return DepthBoundReport("Cor-simply", bound, sl_pi1, dim, terms, ("a",), exact, None)


# one random instance of each record class; a small range of values, so
# that two draws are often equal
MAKE = {
    FgAbelianGroup: _abelian,
    Trivial: lambda rng: Trivial(),
    Finite: lambda rng: Finite(rng.choice(GROUPS)),
    FgAbelian: lambda rng: FgAbelian(_abelian(rng)),
    Free: lambda rng: Free(rng.randrange(1, 4)),
    ElementaryAmenable: lambda rng: ElementaryAmenable(rng.randrange(3), rng.random() < 0.5),
    IntMatrix: _matrix,
    SnfResult: lambda rng: smith_normal_form(_matrix(rng)),
    Subgroup: lambda rng: Subgroup(2 * rng.randrange(8) + 1),
    SeriesResult: lambda rng: n1(rng.choice(GROUPS)),
    Prop32Report: lambda rng: verify_prop32(rng.choice(GROUPS)),
    ChainComplex: _complex,
    Sphere: _sphere,
    Wedge: lambda rng: Wedge(tuple(_sphere(rng) for _ in range(rng.randrange(1, 3)))),
    Product: lambda rng: Product(tuple(_sphere(rng) for _ in range(rng.randrange(1, 3)))),
    Explicit: lambda rng: Explicit(_complex(rng), Trivial(), rng.choice([None, _complex(rng)])),
    DepthBoundReport: _report,
    NoBoundApplicable: lambda rng: NoBoundApplicable((("general", str(rng.randrange(2))),)),
    WedgeDepthResult: lambda rng: wedge_exact_depth({2: rng.randrange(1, 3)}),
}
RECORDS = pytest.mark.parametrize("cls", list(MAKE), ids=lambda cls: cls.__name__)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _draws(cls, count=40):
    """`count` pairs (record, its twin): draw i is rebuilt from seed i // 2,
    so neighbours are equal and distinct objects."""
    twin = dataclass_twin(cls)
    out = []
    for i in range(count):
        record = MAKE[cls](random.Random(i // 2))
        out.append((record, twin(*(getattr(record, name) for name in cls.__slots__))))
    return out


def _hash(x):
    try:
        return hash(x)
    except TypeError:
        return TypeError


def test_every_record_class_is_drawn():
    assert set(_subclasses(Record)) == set(MAKE)


@RECORDS
def test_record_agrees_with_its_dataclass_twin(cls):
    draws = _draws(cls)
    assert any(a == b and a is not b for (a, _), (b, _) in zip(draws, draws[1:]))
    for a, ta in draws:
        assert _hash(a) == _hash(ta)
        if cls is not IntMatrix:
            assert repr(a) == repr(ta)
        for b, tb in draws:
            assert ((a == b), (a != b)) == ((ta == tb), (ta != tb))
            if cls is Subgroup:
                assert (a < b, a <= b, a > b, a >= b) == (ta < tb, ta <= tb, ta > tb, ta >= tb)


@RECORDS
def test_record_never_equals_another_class(cls):
    record, twin = _draws(cls, 1)[0]
    assert record != twin and twin != record
    values = [getattr(record, name) for name in cls.__slots__]
    for other in MAKE:
        if other is cls or len(other.__slots__) != len(values):
            continue
        # the same field values in a record of another class, past its checks
        stranger = object.__new__(other)
        for name, value in zip(other.__slots__, values):
            object.__setattr__(stranger, name, value)
        assert record != stranger and stranger != record


@RECORDS
def test_record_refuses_assignment_and_deletion(cls):
    record = _draws(cls, 1)[0][0]
    before = repr(record)
    for name in (*cls.__slots__, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == before


@RECORDS
def test_constructor_takes_the_fields_in_slot_order(cls):
    # __slots__ and __init__ are the one place a record lists its fields
    # twice; IntMatrix alone takes dense entries and stores sparse rows
    assert "__init__" in cls.__dict__
    params = list(inspect.signature(cls.__init__).parameters)[1:]
    if cls is IntMatrix:
        assert params == ["rows", "cols", "entries"]
    else:
        assert params == list(cls.__slots__)


@RECORDS
def test_record_survives_replace_pickle_and_copy(cls):
    for record, _ in _draws(cls, 6):
        assert pickle.loads(pickle.dumps(record)) == record
        assert copy.copy(record) == record and copy.deepcopy(record) == record
        if cls is not IntMatrix:
            assert record.replace() == record


def test_replace_runs_the_checks_again():
    report = DepthBoundReport("Cor-simply", 2, 1, 2, {2: 1}, ())
    assert report.replace(exact_depth=2).exact_depth == 2
    with pytest.raises(ValueError, match="exceeds the bound"):
        report.replace(exact_depth=3)
    with pytest.raises(ValueError):
        Sphere(2).replace(n=0)
    with pytest.raises(TypeError):
        Sphere(2).replace(m=1)
    assert Wedge((Sphere(1),)).replace(parts=(Wedge((Sphere(2), Sphere(3))),)).parts == (
        Sphere(2),
        Sphere(3),
    )

"""Property: the paged store's record codec round-trips every value kind.

Records are generated over the company schema plus a subtype that holds
every other kind of slot EXTRA allows: the integer and float sizes,
char, text, boolean, enumeration and ADT values, NULL, own tuples, sets
of values and of tuples, fixed and variable arrays, and ``ref`` /
``own ref`` sets. ``decode(encode(r))`` must give back ``r`` slot by
slot — OID, owner fields and container kinds included — and every type
a decoded value names must be the catalog's own type object.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.adt.builtin import Complex, Date
from repro.core.identity import StoredObject
from repro.core.types import (
    AdtType,
    ArrayType,
    BooleanType,
    CharType,
    EnumType,
    FloatType,
    IntegerType,
    Semantics,
    SetType,
    TextType,
    TupleType,
)
from repro.core.values import NULL, ArrayInstance, Ref, SetInstance, TupleInstance
from repro.util.workload import CompanyWorkload, build_company_database

SAMPLE = """
define type Sample as (n1: int1, n2: int2, f4: float4, note: text,
    flag: boolean, hue: enum (red, green, blue), z: Complex,
    addr: (street: char(20), no: int2), tags: {char(8)},
    scores: [] float8, top: [3] int4, fans: {ref Person},
    mine: {own ref Person}, boss: ref Employee,
    pairs: {(k: int4, v: text)}, grid: [2] [] int4) inherits Employee
"""


@pytest.fixture(scope="module")
def db():
    database = build_company_database(
        CompanyWorkload(departments=2, employees=4, seed=5, storage="paged")
    )
    database.execute(SAMPLE)
    return database


refs = st.integers(min_value=1, max_value=2**40).map(Ref)
floats = st.floats(allow_nan=False)
dates = st.dates().map(lambda d: Date(d.year, d.month, d.day))


def scalar(kind) -> st.SearchStrategy:
    if isinstance(kind, IntegerType):
        return st.integers(kind.min_value, kind.max_value)
    if isinstance(kind, FloatType):
        return floats
    if isinstance(kind, CharType):
        return st.text(max_size=kind.length)
    if isinstance(kind, TextType):
        return st.text(max_size=30)
    if isinstance(kind, BooleanType):
        return st.booleans()
    if isinstance(kind, EnumType):
        return st.sampled_from(kind.labels)
    assert isinstance(kind, AdtType), kind
    if kind.py_class is Date:
        return dates
    return st.builds(Complex, floats, floats)


def member(spec) -> st.SearchStrategy:
    """A non-null value for a set or array element of ``spec``."""
    if spec.semantics is not Semantics.OWN:
        return refs
    return value_of(spec.type)


def slot(spec) -> st.SearchStrategy:
    """A stored slot value for ``spec``: NULL or a conforming value."""
    if spec.semantics is not Semantics.OWN:
        return st.one_of(st.just(NULL), refs)
    if isinstance(spec.type, (SetType, ArrayType)):
        return value_of(spec.type)  # own collections are never null
    return st.one_of(st.just(NULL), value_of(spec.type))


def value_of(kind) -> st.SearchStrategy:
    if isinstance(kind, TupleType):
        return st.fixed_dictionaries(
            {name: slot(spec) for name, spec in kind}
        ).map(lambda values: _tuple(kind, values))
    if isinstance(kind, SetType):
        return st.lists(member(kind.element), max_size=4).map(
            lambda members: _set(kind, members)
        )
    if isinstance(kind, ArrayType):
        size = st.just(kind.length) if kind.is_fixed else st.integers(0, 4)
        return size.flatmap(
            lambda n: st.lists(slot(kind.element), min_size=n, max_size=n)
        ).map(lambda values: _array(kind, values))
    return scalar(kind)


def _tuple(kind, values: dict) -> TupleInstance:
    instance = TupleInstance(kind)
    for name, value in values.items():
        instance.set(name, value)
    return instance


def _set(kind, members: list) -> SetInstance:
    result = SetInstance(kind)
    for value in members:
        result.insert(value)
    return result


def _array(kind, values: list) -> ArrayInstance:
    array = ArrayInstance(kind)
    for index, value in enumerate(values, start=1):
        if kind.is_fixed:
            array.set(index, value)
        else:
            array.append(value)
    return array


@st.composite
def records(draw, sample_type):
    oid = draw(st.integers(min_value=1, max_value=2**40))
    value = draw(value_of(sample_type))
    value.oid = oid
    owner, owner_name = draw(st.sampled_from([
        (None, None),
        (draw(st.integers(min_value=1, max_value=2**40)), None),
        (None, draw(st.text(min_size=1, max_size=12))),
    ]))
    return StoredObject(oid, value, owner, owner_name)


def assert_same(decoded, original) -> None:
    """Slot-by-slot equality that also demands the identical type object
    and the same Python class at every level."""
    assert decoded.__class__ is original.__class__
    if isinstance(original, TupleInstance):
        assert decoded.type is original.type
        assert decoded.oid == original.oid
        assert list(decoded._slots) == list(original._slots)
        for name, value in original._slots.items():
            assert_same(decoded._slots[name], value)
    elif isinstance(original, SetInstance):
        assert decoded.type is original.type
        assert decoded.key == original.key
        assert decoded._members.__class__ is original._members.__class__
        if isinstance(original._members, dict):
            assert decoded._members == original._members
        for got, want in zip(decoded.members(), original.members(), strict=True):
            assert_same(got, want)
    elif isinstance(original, ArrayInstance):
        assert decoded.type is original.type
        for got, want in zip(decoded.slots(), original.slots(), strict=True):
            assert_same(got, want)
    elif original is NULL:
        assert decoded is NULL
    else:
        assert decoded == original


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_decode_of_encode_is_the_record(db, data):
    sample = db.catalog.schema_type("Sample")
    record = data.draw(records(sample))
    store = db.store
    decoded = store._deserialize(store._serialize(record))
    assert (decoded.oid, decoded.owner, decoded.owner_name) == (
        record.oid, record.owner, record.owner_name
    )
    assert decoded.value.type is db.catalog.schema_type("Sample")
    assert_same(decoded.value, record.value)

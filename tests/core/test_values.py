"""Unit tests for runtime values: instances, nulls, refs, value semantics."""

import pytest

from repro.core.types import (
    ArrayType,
    INT4,
    SetType,
    TupleType,
    char,
    own,
    own_ref,
    ref,
)
from repro.core.values import (
    NULL,
    ArrayInstance,
    NullValue,
    Ref,
    SetInstance,
    TupleInstance,
    check_slot,
    copy_value,
    is_null,
    value_equal,
)
from repro.errors import EvaluationError, TypeSystemError


def person_type() -> TupleType:
    return TupleType([("name", own(char(20))), ("age", own(INT4))])


class TestNull:
    def test_singleton(self):
        assert NullValue() is NULL
        assert is_null(NULL)
        assert not is_null(0)
        assert not is_null(None)

    def test_falsy(self):
        assert not NULL

    def test_copy_preserves_identity(self):
        import copy

        assert copy.copy(NULL) is NULL
        assert copy.deepcopy(NULL) is NULL


class TestRef:
    def test_positive_oid_required(self):
        with pytest.raises(TypeSystemError):
            Ref(0)
        with pytest.raises(TypeSystemError):
            Ref(-1)

    def test_equality_by_oid(self):
        assert Ref(3) == Ref(3)
        assert Ref(3) != Ref(4)
        assert hash(Ref(3)) == hash(Ref(3))
        assert Ref(3) != 3

    def test_immutable(self):
        r = Ref(3)
        with pytest.raises(AttributeError):
            r.oid = 4
        with pytest.raises(AttributeError):
            del r.oid
        assert not hasattr(r, "__dict__")

    def test_pickles_as_the_older_dict_state(self):
        import pickle

        assert Ref(5).__getstate__() == {"oid": 5}
        assert pickle.loads(pickle.dumps(Ref(5))) == Ref(5)
        loaded = Ref.__new__(Ref)
        loaded.__setstate__({"oid": 5})  # the dataclass-era pickle state
        assert loaded.oid == 5 and loaded == Ref(5)


class TestCheckSlot:
    def test_null_conforms_everywhere(self):
        assert check_slot(own(INT4), NULL) is NULL
        assert check_slot(ref(person_type()), NULL) is NULL

    def test_own_slot_rejects_ref(self):
        with pytest.raises(TypeSystemError):
            check_slot(own(INT4), Ref(1))

    def test_ref_slot_requires_ref(self):
        with pytest.raises(TypeSystemError):
            check_slot(ref(person_type()), 42)

    def test_own_coerces(self):
        spec = own(INT4)
        assert check_slot(spec, 5) == 5
        with pytest.raises(TypeSystemError):
            check_slot(spec, "five")


class TestTupleInstance:
    def test_slots_start_null(self):
        t = TupleInstance(person_type())
        assert t.get("name") is NULL
        assert t.get("age") is NULL

    def test_own_collections_start_empty(self):
        family = TupleType(
            [("name", own(char(10))), ("kids", own(SetType(own(INT4))))]
        )
        t = TupleInstance(family)
        kids = t.get("kids")
        assert isinstance(kids, SetInstance)
        assert len(kids) == 0

    def test_set_and_get(self):
        t = TupleInstance(person_type(), {"name": "Sue", "age": 40})
        assert t.get("name") == "Sue"
        assert t.get("age") == 40

    def test_type_checked_writes(self):
        t = TupleInstance(person_type())
        with pytest.raises(TypeSystemError):
            t.set("age", "forty")
        with pytest.raises(TypeSystemError):
            t.set("name", "x" * 100)

    def test_unknown_attribute(self):
        t = TupleInstance(person_type())
        with pytest.raises(TypeSystemError):
            t.get("salary")
        with pytest.raises(TypeSystemError):
            t.set("salary", 1)

    def test_own_writes_copy(self):
        inner_type = TupleType([("x", own(INT4))])
        outer_type = TupleType([("inner", own(inner_type))])
        source = TupleInstance(inner_type, {"x": 1})
        outer = TupleInstance(outer_type)
        outer.set("inner", source)
        source.set("x", 99)
        assert outer.get("inner").get("x") == 1  # value semantics

    def test_no_identity_by_default(self):
        t = TupleInstance(person_type())
        assert t.oid is None


class TestSetInstance:
    def test_insert_and_contains_own_values(self):
        s = SetInstance(SetType(own(INT4)))
        assert s.insert(1)
        assert s.insert(2)
        assert not s.insert(1)  # duplicate
        assert s.contains(1)
        assert len(s) == 2

    def test_ref_members_dedupe_by_oid(self):
        t = person_type()
        s = SetInstance(SetType(own_ref(t)))
        assert s.insert(Ref(1))
        assert not s.insert(Ref(1))
        assert s.insert(Ref(2))
        assert len(s) == 2

    def test_insert_returns_the_stored_member(self):
        refs = SetInstance(SetType(ref(person_type())))
        member = Ref(4)
        assert refs.insert(member) is member
        assert refs.insert(Ref(4)) is None
        zeros = SetInstance(SetType(own(INT4)))
        assert zeros.insert(0) == 0  # falsy, yet stored
        assert zeros.insert(0) is None
        inner_type = TupleType([("x", own(INT4))])
        tuples = SetInstance(SetType(own(inner_type)))
        source = TupleInstance(inner_type, {"x": 1})
        stored = tuples.insert(source)
        assert stored is not source and stored is tuples.members()[0]

    def test_reference_sets_keep_insertion_order(self):
        s = SetInstance(SetType(ref(person_type())))
        for oid in (5, 2, 9, 1):
            s.insert(Ref(oid))
        s.remove(Ref(2))
        s.insert(Ref(2))
        assert s.members() == [Ref(5), Ref(9), Ref(1), Ref(2)]
        assert not s.remove(2)  # a bare int is never a reference member

    def test_remove(self):
        s = SetInstance(SetType(own(INT4)))
        s.insert(1)
        assert s.remove(1)
        assert not s.remove(1)
        assert len(s) == 0

    def test_null_members_rejected(self):
        s = SetInstance(SetType(own(INT4)))
        with pytest.raises(TypeSystemError):
            s.insert(NULL)

    def test_own_members_copied(self):
        inner_type = TupleType([("x", own(INT4))])
        s = SetInstance(SetType(own(inner_type)))
        source = TupleInstance(inner_type, {"x": 1})
        s.insert(source)
        source.set("x", 99)
        assert s.members()[0].get("x") == 1

    def test_value_equality_dedupe_for_tuples(self):
        inner_type = TupleType([("x", own(INT4))])
        s = SetInstance(SetType(own(inner_type)))
        s.insert(TupleInstance(inner_type, {"x": 1}))
        assert not s.insert(TupleInstance(inner_type, {"x": 1}))
        assert s.insert(TupleInstance(inner_type, {"x": 2}))

    def test_key_recorded(self):
        s = SetInstance(SetType(own(INT4)), key=("x",))
        assert s.key == ("x",)

    def test_clear(self):
        s = SetInstance(SetType(own(INT4)))
        s.insert(1)
        s.clear()
        assert len(s) == 0


class TestArrayInstance:
    def test_fixed_array_starts_full_of_nulls(self):
        a = ArrayInstance(ArrayType(own(INT4), length=3))
        assert len(a) == 3
        assert all(slot is NULL for slot in a)

    def test_one_based_indexing(self):
        a = ArrayInstance(ArrayType(own(INT4), length=3))
        a.set(1, 10)
        a.set(3, 30)
        assert a.get(1) == 10
        assert a.get(3) == 30

    def test_bounds_checking(self):
        a = ArrayInstance(ArrayType(own(INT4), length=3))
        with pytest.raises(EvaluationError):
            a.get(0)
        with pytest.raises(EvaluationError):
            a.get(4)
        with pytest.raises(EvaluationError):
            a.set(4, 1)

    def test_fixed_array_cannot_grow(self):
        a = ArrayInstance(ArrayType(own(INT4), length=3))
        with pytest.raises(TypeSystemError):
            a.append(1)
        with pytest.raises(TypeSystemError):
            a.insert(1, 1)

    def test_variable_array_grows(self):
        a = ArrayInstance(ArrayType(own(INT4)))
        assert len(a) == 0
        a.append(1)
        a.append(2)
        a.insert(1, 0)
        assert a.slots() == [0, 1, 2]

    def test_variable_array_remove(self):
        a = ArrayInstance(ArrayType(own(INT4)))
        for value in (1, 2, 3):
            a.append(value)
        assert a.remove_at(2) == 2
        assert a.slots() == [1, 3]

    def test_type_checked_slots(self):
        a = ArrayInstance(ArrayType(own(INT4), length=2))
        with pytest.raises(TypeSystemError):
            a.set(1, "nope")


class TestCopyValue:
    def test_scalars(self):
        assert copy_value(5) == 5
        assert copy_value("x") == "x"
        assert copy_value(NULL) is NULL

    def test_refs_not_followed(self):
        r = Ref(7)
        assert copy_value(r) is r

    def test_deep_copy_of_structures(self):
        t = TupleInstance(person_type(), {"name": "Sue", "age": 40})
        clone = copy_value(t)
        clone.set("age", 41)
        assert t.get("age") == 40

    def test_copy_drops_identity(self):
        t = TupleInstance(person_type())
        t.oid = 12
        clone = copy_value(t)
        assert clone.oid is None


class TestValueEqual:
    def test_scalars(self):
        assert value_equal(1, 1)
        assert not value_equal(1, 2)
        assert value_equal("a", "a")

    def test_null_only_equals_null(self):
        assert value_equal(NULL, NULL)
        assert not value_equal(NULL, 0)
        assert not value_equal(0, NULL)

    def test_refs_by_oid(self):
        assert value_equal(Ref(1), Ref(1))
        assert not value_equal(Ref(1), Ref(2))
        assert not value_equal(Ref(1), 1)

    def test_recursive_tuples(self):
        a = TupleInstance(person_type(), {"name": "Sue", "age": 40})
        b = TupleInstance(person_type(), {"name": "Sue", "age": 40})
        c = TupleInstance(person_type(), {"name": "Sue", "age": 41})
        assert value_equal(a, b)
        assert not value_equal(a, c)

    def test_sets_order_insensitive(self):
        s1 = SetInstance(SetType(own(INT4)))
        s2 = SetInstance(SetType(own(INT4)))
        for v in (1, 2, 3):
            s1.insert(v)
        for v in (3, 1, 2):
            s2.insert(v)
        assert value_equal(s1, s2)

    def test_arrays_order_sensitive(self):
        a1 = ArrayInstance(ArrayType(own(INT4)))
        a2 = ArrayInstance(ArrayType(own(INT4)))
        for v in (1, 2):
            a1.append(v)
        for v in (2, 1):
            a2.append(v)
        assert not value_equal(a1, a2)

    def test_bool_not_equal_int(self):
        assert not value_equal(True, 1)
        assert value_equal(True, True)

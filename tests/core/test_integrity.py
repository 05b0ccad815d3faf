"""Unit tests for integrity semantics: referential integrity, own-ref
exclusivity and cascades, keys, vacuum (paper §2.2)."""

import pytest

from repro import Database
from repro.core.types import FLOAT8, INT4, SetType, char, own, own_ref, ref
from repro.core.values import NULL, Ref
from repro.errors import IntegrityError, OwnershipError, TypeSystemError


@pytest.fixture
def db_with_schema():
    db = Database()
    dept = db.define_type(
        "Department", {"dname": own(char(20)), "floor": own(INT4)}
    )
    person = db.define_type("Person", {"name": own(char(30)), "age": own(INT4)})
    db.define_type(
        "Employee",
        {
            "salary": own(FLOAT8),
            "dept": ref(dept),
            "kids": own(SetType(own_ref(person))),
        },
        parents=["Person"],
    )
    db.create_named("Departments", own(SetType(own_ref(dept))))
    db.create_named("Employees", own(SetType(own_ref(db.type("Employee")))))
    return db


class TestCreation:
    def test_create_object_returns_ref(self, db_with_schema):
        db = db_with_schema
        r = db.integrity.create_object(db.type("Person"), {"name": "A", "age": 1})
        assert isinstance(r, Ref)
        assert db.objects.is_live(r.oid)

    def test_ref_slot_validates_target_type(self, db_with_schema):
        db = db_with_schema
        person = db.integrity.create_object(db.type("Person"), {"name": "A"})
        with pytest.raises(IntegrityError):
            # a Person is not a Department
            db.integrity.create_object(
                db.type("Employee"), {"name": "B", "dept": person}
            )

    def test_ref_slot_accepts_subtype(self, db_with_schema):
        db = db_with_schema
        # kids holds Persons; an Employee is a Person
        emp1 = db.insert("Employees", name="E1", age=30, salary=1.0)
        emp2 = db.integrity.create_object(
            db.type("Employee"), {"name": "E2", "age": 31}
        )
        kids = db.objects.fetch(emp1.oid).get("kids")
        db.integrity.check_ref_target(kids.element, emp2)  # no raise

    def test_ref_to_dead_object_rejected(self, db_with_schema):
        db = db_with_schema
        d = db.insert("Departments", dname="Toys", floor=2)
        db.delete(d)
        with pytest.raises(IntegrityError):
            db.integrity.create_object(
                db.type("Employee"), {"name": "B", "dept": d}
            )

    def test_inline_kids_become_owned_objects(self, db_with_schema):
        db = db_with_schema
        e = db.insert(
            "Employees",
            name="Sue", age=40, salary=1.0,
            kids=[{"name": "Tim", "age": 10}],
        )
        kids = db.objects.fetch(e.oid).get("kids")
        kid_ref = kids.members()[0]
        assert db.objects.owner_of(kid_ref.oid) == (e.oid, None)

    def test_inline_construction_rejected_for_ref_slots(self, db_with_schema):
        db = db_with_schema
        with pytest.raises(IntegrityError):
            db.integrity.create_object(
                db.type("Employee"),
                {"name": "B", "dept": {"dname": "X", "floor": 1}},
            )

    def test_failed_creation_rolls_back(self, db_with_schema):
        db = db_with_schema
        before = len(db.objects)
        with pytest.raises(TypeSystemError):
            db.integrity.create_object(
                db.type("Employee"),
                {"name": "B", "kids": [{"name": "K"}], "salary": "not a number"},
            )
        assert len(db.objects) == before  # kid object was rolled back too


class TestExclusivity:
    def test_kid_cannot_have_two_parents(self, db_with_schema):
        db = db_with_schema
        e1 = db.insert("Employees", name="A", age=30, salary=1.0,
                       kids=[{"name": "K", "age": 3}])
        db.insert("Employees", name="B", age=31, salary=1.0)
        kid = db.objects.fetch(e1.oid).get("kids").members()[0]
        with pytest.raises(OwnershipError):
            db.integrity.create_object(
                db.type("Employee"), {"name": "C", "kids": [kid]}
            )

    def test_set_member_cannot_join_second_owned_set(self, db_with_schema):
        db = db_with_schema
        db.create_named(
            "Contractors", own(SetType(own_ref(db.type("Employee"))))
        )
        e = db.insert("Employees", name="A", age=30, salary=1.0)
        with pytest.raises(OwnershipError):
            db.insert("Contractors", e)


class TestDeletion:
    def test_cascade_deletes_kids(self, db_with_schema):
        db = db_with_schema
        e = db.insert(
            "Employees", name="Sue", age=40, salary=1.0,
            kids=[{"name": "Tim", "age": 10}, {"name": "Zoe", "age": 7}],
        )
        kids = [m.oid for m in db.objects.fetch(e.oid).get("kids")]
        deleted = db.delete(e)
        assert deleted == 3
        for oid in kids:
            assert not db.objects.is_live(oid)

    def test_refs_to_deleted_read_null(self, db_with_schema):
        db = db_with_schema
        d = db.insert("Departments", dname="Toys", floor=2)
        e = db.insert("Employees", name="A", age=30, salary=1.0, dept=d)
        db.delete(d)
        dept_ref = db.objects.fetch(e.oid).get("dept")
        assert isinstance(dept_ref, Ref)
        assert db.objects.deref(dept_ref.oid) is None

    def test_delete_kid_removes_it_from_parents_set(self, db_with_schema):
        db = db_with_schema
        e = db.insert(
            "Employees", name="Sue", age=40, salary=1.0,
            kids=[{"name": "Tim", "age": 10}],
        )
        kid = db.objects.fetch(e.oid).get("kids").members()[0]
        db.integrity.delete_object(kid.oid)
        assert len(db.objects.fetch(e.oid).get("kids")) == 0

    def test_remove_member_from_owned_set_deletes_it(self, db_with_schema):
        db = db_with_schema
        e = db.insert("Employees", name="A", age=30, salary=1.0)
        assert db.remove("Employees", e)
        assert not db.objects.is_live(e.oid)

    def test_remove_member_can_release_instead(self, db_with_schema):
        db = db_with_schema
        e = db.insert("Employees", name="A", age=30, salary=1.0)
        assert db.remove("Employees", e, delete_owned=False)
        assert db.objects.is_live(e.oid)
        assert not db.objects.is_owned(e.oid)

    def test_delete_nonexistent_returns_zero(self, db_with_schema):
        db = db_with_schema
        e = db.insert("Employees", name="A", age=30, salary=1.0)
        db.delete(e)
        assert db.delete(e) == 0


class TestKeys:
    def test_duplicate_key_rejected(self, db_with_schema):
        db = db_with_schema
        db.create_named(
            "Staff", own(SetType(own_ref(db.type("Employee")))), key=("name",)
        )
        db.insert("Staff", name="Sue", age=40, salary=1.0)
        with pytest.raises(IntegrityError):
            db.insert("Staff", name="Sue", age=41, salary=2.0)

    def test_distinct_keys_accepted(self, db_with_schema):
        db = db_with_schema
        db.create_named(
            "Staff", own(SetType(own_ref(db.type("Employee")))), key=("name",)
        )
        db.insert("Staff", name="Sue", age=40, salary=1.0)
        db.insert("Staff", name="Ann", age=41, salary=2.0)
        assert len(db.named("Staff").value) == 2

    def test_composite_key(self, db_with_schema):
        db = db_with_schema
        db.create_named(
            "Staff", own(SetType(own_ref(db.type("Employee")))),
            key=("name", "age"),
        )
        db.insert("Staff", name="Sue", age=40, salary=1.0)
        db.insert("Staff", name="Sue", age=41, salary=2.0)  # different age OK
        with pytest.raises(IntegrityError):
            db.insert("Staff", name="Sue", age=40, salary=3.0)

    def test_null_key_never_collides(self, db_with_schema):
        db = db_with_schema
        db.create_named(
            "Staff", own(SetType(own_ref(db.type("Employee")))), key=("name",)
        )
        db.insert("Staff", age=40, salary=1.0)
        db.insert("Staff", age=41, salary=2.0)  # both names null: allowed
        assert len(db.named("Staff").value) == 2

    def test_key_on_unknown_attribute_rejected(self, db_with_schema):
        db = db_with_schema
        with pytest.raises(TypeSystemError):
            db.create_named(
                "Bad", own(SetType(own_ref(db.type("Employee")))),
                key=("shoe_size",),
            )


class TestVacuum:
    def test_vacuum_scrubs_dangling_attribute_refs(self, db_with_schema):
        db = db_with_schema
        d = db.insert("Departments", dname="Toys", floor=2)
        e = db.insert("Employees", name="A", age=30, salary=1.0, dept=d)
        db.delete(d)
        assert db.vacuum() == 1
        assert db.objects.fetch(e.oid).get("dept") is NULL

    def test_vacuum_scrubs_dangling_set_members(self, db_with_schema):
        db = db_with_schema
        db.create_named("Team", own(SetType(ref(db.type("Employee")))))
        e = db.insert("Employees", name="A", age=30, salary=1.0)
        db.insert("Team", e)
        db.integrity.delete_object(e.oid)
        assert db.vacuum() >= 1
        assert len(db.named("Team").value) == 0

    def test_vacuum_idempotent(self, db_with_schema):
        db = db_with_schema
        d = db.insert("Departments", dname="Toys", floor=2)
        db.insert("Employees", name="A", age=30, salary=1.0, dept=d)
        db.delete(d)
        db.vacuum()
        assert db.vacuum() == 0


class TestRefSets:
    def test_ref_set_membership_does_not_own(self, db_with_schema):
        db = db_with_schema
        db.create_named("Team", own(SetType(ref(db.type("Employee")))))
        e = db.insert("Employees", name="A", age=30, salary=1.0)
        db.insert("Team", e)
        # still owned only by Employees
        assert db.objects.owner_of(e.oid) == (None, "Employees")

    def test_removing_from_ref_set_preserves_object(self, db_with_schema):
        db = db_with_schema
        db.create_named("Team", own(SetType(ref(db.type("Employee")))))
        e = db.insert("Employees", name="A", age=30, salary=1.0)
        db.insert("Team", e)
        db.named("Team").value.remove(e)
        assert db.objects.is_live(e.oid)

    def test_inline_construction_rejected_for_ref_sets(self, db_with_schema):
        db = db_with_schema
        db.create_named("Team", own(SetType(ref(db.type("Employee")))))
        with pytest.raises(IntegrityError):
            db.insert("Team", name="A", age=30, salary=1.0)


class TestSlotForms:
    """Every raw form ``_build_slot`` and ``_element_value`` accept or
    reject, on a type with a single ``own ref`` slot, an ``own`` tuple
    holding a ``ref``, a fixed array and reference sets."""

    @pytest.fixture
    def db(self, db_with_schema):
        from repro.core.types import ArrayType, TupleType

        db = db_with_schema
        person = db.type("Person")
        db.define_type(
            "Holder",
            {
                "name": own(char(10)),
                "item": own_ref(person),
                "pal": ref(person),
                "spot": own(TupleType([("label", own(char(5))), ("who", ref(person))])),
                "top": own(ArrayType(own(INT4), 2)),
                "crew": own(SetType(ref(person))),
                "gang": own(SetType(own_ref(person))),
            },
        )
        db.create_named("Holders", own(SetType(own_ref(db.type("Holder")))))
        return db

    def test_null_and_owned_forms(self, db):
        person = db.type("Person")
        kept = db.integrity.create_object(person, {"name": "K"})
        pal = db.integrity.create_object(person, {"name": "P"})
        holder = db.insert(
            "Holders",
            name="h",
            item=kept,
            pal=None,
            spot={"label": "x", "who": pal},
            top=[1, 2],
            crew=[pal],
            gang=[{"name": "G"}],
        )
        value = db.objects.fetch(holder.oid)
        assert value.get("pal") is NULL
        assert db.objects.owner_of(kept.oid)[0] == holder.oid
        assert value.get("spot").get("who") == pal
        assert list(value.get("top")) == [1, 2]
        inline = db.insert("Holders", name="i", item={"name": "new"})
        child = db.objects.fetch(inline.oid).get("item")
        assert db.objects.owner_of(child.oid)[0] == inline.oid

    def test_rejected_forms(self, db):
        person = db.type("Person")
        with pytest.raises(TypeSystemError, match="too many initializers"):
            db.insert("Holders", name="a", top=[1, 2, 3])
        with pytest.raises(IntegrityError, match="existing objects"):
            db.insert("Holders", name="b", crew=[{"name": "x"}])
        with pytest.raises(IntegrityError, match="must be references"):
            db.insert("Holders", name="c", gang=[7])
        with pytest.raises(TypeSystemError):
            db.insert("Holders", name="d", item=7)
        assert db.integrity.create_object(person, {"name": "ok"})

    def test_vacuum_scrubs_own_tuples_and_arrays(self, db):
        from repro.core.types import ArrayType

        person = db.type("Person")
        db.create_named("Board", own(ArrayType(ref(person), 3)))
        pal = db.integrity.create_object(person, {"name": "P"})
        holder = db.insert("Holders", name="h", spot={"label": "x", "who": pal})
        db.execute('set Board[2] = H.spot.who from H in Holders where H.name = "h"')
        db.integrity.delete_object(pal.oid)
        assert db.vacuum() >= 2
        assert db.objects.fetch(holder.oid).get("spot").get("who") is NULL
        assert db.named("Board").value.get(2) is NULL

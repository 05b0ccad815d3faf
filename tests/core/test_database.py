"""Unit tests for the Database facade (Python-level API)."""

import os

import pytest

from repro import Database
from repro.adt.builtin import Date
from repro.core.types import (
    ArrayType,
    FLOAT8,
    INT4,
    SetType,
    char,
    own,
    own_ref,
    ref,
)
from repro.core.values import NULL, ArrayInstance, Ref
from repro.errors import CatalogError, IntegrityError, TypeSystemError
from repro.excess.plan import plan_ops


@pytest.fixture
def db():
    db = Database()
    dept = db.define_type("Department", {"dname": own(char(20)), "floor": own(INT4)})
    db.define_type(
        "Employee",
        {"name": own(char(30)), "salary": own(FLOAT8), "dept": ref(dept)},
    )
    db.create_named("Departments", own(SetType(own_ref(dept))))
    db.create_named("Employees", own(SetType(own_ref(db.type("Employee")))))
    return db


class TestConstruction:
    def test_memory_default(self):
        assert Database().stats()["objects"] == 0

    def test_paged_storage(self):
        db = Database(storage="paged")
        assert "buffer" in db.stats() or db.stats()["objects"] == 0

    def test_unknown_storage_rejected(self):
        with pytest.raises(CatalogError):
            Database(storage="quantum")

    def test_builtin_adts_preregistered(self):
        db = Database()
        assert db.catalog.adts.has_adt("Date")
        assert db.catalog.adts.has_adt("Complex")


class TestNamedObjects:
    def test_set_starts_empty(self, db):
        assert len(db.named("Employees").value) == 0

    def test_array_named_object(self, db):
        db.create_named("Top", own(ArrayType(ref(db.type("Employee")), length=3)))
        value = db.named("Top").value
        assert isinstance(value, ArrayInstance)
        assert len(value) == 3

    def test_scalar_named_object_starts_null(self, db):
        date_t = db.catalog.adts.adt("Date")
        db.create_named("Today", own(date_t))
        assert db.named("Today").value is NULL

    def test_ref_singleton_starts_null(self, db):
        db.create_named("Star", ref(db.type("Employee")))
        assert db.named("Star").value is NULL

    def test_key_requires_set(self, db):
        with pytest.raises(TypeSystemError):
            db.create_named("X", own(INT4), key=("a",))

    def test_destroy_cascades_owned_members(self, db):
        db.insert("Departments", dname="Toys", floor=1)
        db.insert("Departments", dname="Shoes", floor=2)
        deleted = db.destroy_named("Departments")
        assert deleted == 2
        assert not db.catalog.has_named("Departments")

    def test_destroy_drops_indexes(self, db):
        db.create_index("Employees", "salary")
        db.destroy_named("Employees")
        assert db.catalog.indexes.all_indexes() == []


class TestInsertAndDelete:
    def test_insert_returns_ref(self, db):
        member = db.insert("Departments", dname="Toys", floor=2)
        assert isinstance(member, Ref)
        assert db.objects.fetch(member.oid).get("dname") == "Toys"

    def test_insert_into_non_set_rejected(self, db):
        db.create_named("Star", ref(db.type("Employee")))
        with pytest.raises(TypeSystemError):
            db.insert("Star", dname="X")

    def test_insert_value_and_attributes_mutually_exclusive(self, db):
        d = db.insert("Departments", dname="Toys", floor=2)
        with pytest.raises(TypeSystemError):
            db.insert("Departments", d, dname="Y")

    def test_delete_scrubs_all_named_sets(self, db):
        db.create_named("Team", own(SetType(ref(db.type("Employee")))))
        e = db.insert("Employees", name="A", salary=1.0)
        db.insert("Team", e)
        db.delete(e)
        assert len(db.named("Team").value) == 0
        assert len(db.named("Employees").value) == 0


class TestUpdateMember:
    def test_update_changes_attributes(self, db):
        e = db.insert("Employees", name="A", salary=1.0)
        db.update_member("Employees", e, {"salary": 2.0})
        assert db.objects.fetch(e.oid).get("salary") == 2.0

    def test_update_dead_object_rejected(self, db):
        e = db.insert("Employees", name="A", salary=1.0)
        db.delete(e)
        with pytest.raises(IntegrityError):
            db.update_member("Employees", e, {"salary": 2.0})

    def test_update_maintains_indexes(self, db):
        db.create_index("Employees", "salary", kind="btree")
        e = db.insert("Employees", name="A", salary=1.0)
        index = db.catalog.indexes.find("Employees", "salary", ["btree"]).index
        assert index.search(1.0) == [e.oid]
        db.update_member("Employees", e, {"salary": 2.0})
        assert index.search(1.0) == []
        assert index.search(2.0) == [e.oid]


class TestIndexes:
    def test_backfill_on_create(self, db):
        refs = [
            db.insert("Employees", name=f"E{i}", salary=float(i))
            for i in range(5)
        ]
        db.create_index("Employees", "salary", kind="hash")
        index = db.catalog.indexes.find("Employees", "salary", ["hash"]).index
        assert index.search(3.0) == [refs[3].oid]

    def test_index_maintained_on_insert_and_delete(self, db):
        db.create_index("Employees", "salary", kind="btree")
        e = db.insert("Employees", name="A", salary=9.0)
        index = db.catalog.indexes.find("Employees", "salary", ["btree"]).index
        assert index.search(9.0) == [e.oid]
        db.delete(e)
        assert index.search(9.0) == []

    def test_index_requires_existing_attribute(self, db):
        with pytest.raises(TypeSystemError):
            db.create_index("Employees", "shoe_size")

    def test_index_on_non_set_rejected(self, db):
        db.create_named("Star", ref(db.type("Employee")))
        with pytest.raises(TypeSystemError):
            db.create_index("Star", "salary")

    def test_null_keys_not_indexed(self, db):
        db.create_index("Employees", "salary", kind="hash")
        db.insert("Employees", name="A")  # salary null
        index = db.catalog.indexes.find("Employees", "salary", ["hash"]).index
        assert len(index) == 0

    def test_date_keys_indexable(self, db):
        date_t = db.catalog.adts.adt("Date")
        db.define_type("Event", {"when": own(date_t)})
        db.create_named("Events", own(SetType(own_ref(db.type("Event")))))
        db.create_index("Events", "when", kind="btree")
        e = db.insert("Events", when=Date(1988, 7, 4))
        index = db.catalog.indexes.find("Events", "when", ["btree"]).index
        assert index.search(Date(1988, 7, 4)) == [e.oid]


class TestSnapshots:
    def test_round_trip(self, db, tmp_path):
        db.insert("Departments", dname="Toys", floor=2)
        db.insert("Employees", name="Sue", salary=50.0)
        path = os.path.join(tmp_path, "db.snapshot")
        size = db.save(path)
        assert size > 0
        restored = Database.load(path)
        rows = restored.execute("retrieve (E.name) from E in Employees").rows
        assert rows == [("Sue",)]

    def test_restored_database_accepts_updates(self, db, tmp_path):
        db.insert("Employees", name="Sue", salary=50.0)
        path = os.path.join(tmp_path, "db.snapshot")
        db.save(path)
        restored = Database.load(path)
        restored.insert("Employees", name="Ann", salary=60.0)
        assert len(restored.named("Employees").value) == 2

    def test_bad_snapshot_rejected(self, tmp_path):
        from repro.errors import StorageError

        path = os.path.join(tmp_path, "junk")
        with open(path, "wb") as f:
            f.write(b"not a snapshot")
        with pytest.raises(StorageError):
            Database.load(path)

    def test_missing_snapshot_rejected(self, tmp_path):
        from repro.errors import StorageError

        with pytest.raises(StorageError):
            Database.load(os.path.join(tmp_path, "nope"))


class TestStats:
    def test_counts(self, db):
        db.insert("Departments", dname="Toys", floor=2)
        stats = db.stats()
        assert stats["objects"] == 1
        assert stats["types"] == 2
        assert stats["named_objects"] == 2


class TestCloseFreesByReferenceCounting:
    """``close()`` unlinks the interpreter, transaction manager and
    sessions, which point back at the database, so a database dropped
    after it is freed at once rather than by the cyclic collector."""

    @staticmethod
    def _company(storage):
        from repro.util.workload import CompanyWorkload, build_company_database

        db = build_company_database(
            CompanyWorkload(departments=3, employees=40, seed=3, storage=storage)
        )
        db.interpreter.parallel_mode = "off"
        # plans, a hash join, a connected session and a transaction
        db.execute(
            "retrieve (E.name, D.dname) from E in Employees, D in Departments "
            "where E.dept is D"
        )
        db.execute("retrieve (E.name) from E in Employees where E.age > 30")
        session = db.connect()
        session.begin()
        session.execute("retrieve (E.name) from E in Employees")
        session.commit()
        session.close()
        return db

    @pytest.mark.parametrize("storage", ["memory", "paged"])
    def test_dropped_after_close_without_a_collection(self, storage):
        import gc
        import weakref

        gc.collect()
        gc.disable()
        try:
            db = self._company(storage)
            plans = [
                weakref.ref(op)
                for entry in db.interpreter.plan_cache._entries.values()
                for op in plan_ops(entry.plan_root)
            ]
            db.interpreter.shutdown_parallel()
            db.close()
            dropped = weakref.ref(db)
            catalog = weakref.ref(db.catalog)
            del db
            assert dropped() is None
            assert catalog() is None
            # the operators of a fused hash join among them
            assert plans and all(plan() is None for plan in plans)
        finally:
            gc.enable()

    def test_closed_database_stays_usable(self):
        db = self._company("memory")
        db.execute("range of X is Employees")
        db.default_session.set_flag("exec_mode", "row")
        db.close()
        assert db.interpreter.parallel_mode == "off"
        assert db.default_session.resolved_flags().exec_mode == "row"
        rows = db.execute("retrieve (X.name) where X.age > 30").rows
        assert rows == db.execute(
            "retrieve (E.name) from E in Employees where E.age > 30"
        ).rows
        session = db.connect()
        assert session.execute("retrieve (E.name) from E in Employees").rows
        db.begin()
        db.execute('delete E from E in Employees where E.age > 30')
        db.abort()
        assert db.execute(
            "retrieve (E.name) from E in Employees where E.age > 30"
        ).rows == rows
        db.close()
        db.close()  # idempotent
        assert db.execute("retrieve (E.name) from E in Employees").rows

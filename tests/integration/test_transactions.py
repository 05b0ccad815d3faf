"""Tests for transactions: begin / commit / abort."""

import pytest

from repro import Database
from repro.core.values import NULL
from repro.errors import IntegrityError


class TestTransactionApi:
    def test_commit_keeps_changes(self, small_company):
        db = small_company
        db.begin()
        db.execute('delete E from E in Employees where E.name = "Bob"')
        db.commit()
        assert db.execute(
            "retrieve (count(E.age)) from E in Employees"
        ).scalar() == 2

    def test_abort_restores_data(self, small_company):
        db = small_company
        db.begin()
        db.execute("delete E from E in Employees")
        db.execute('append to Departments (dname = "New", floor = 9, '
                   "budget = 1.0)")
        assert db.execute(
            "retrieve (count(E.age)) from E in Employees"
        ).scalar() == 0
        db.abort()
        assert db.execute(
            "retrieve (count(E.age)) from E in Employees"
        ).scalar() == 3
        assert db.execute(
            "retrieve (count(D.floor)) from D in Departments"
        ).scalar() == 2

    def test_abort_restores_schema_and_indexes(self, small_company):
        db = small_company
        db.begin()
        db.execute("define type Extra as (x: int4)")
        db.execute("create index on Employees (salary) using btree")
        db.abort()
        assert not db.catalog.has_type("Extra")
        assert db.catalog.indexes.all_indexes() == []

    def test_abort_restores_grants(self, small_company):
        db = small_company
        db.begin()
        db.execute("grant select on Employees to bob")
        db.abort()
        assert db.authz.grants_for("Employees") == []

    def test_nested_begin_rejected(self, db):
        db.begin()
        with pytest.raises(IntegrityError):
            db.begin()
        db.abort()

    def test_commit_without_begin_rejected(self, db):
        with pytest.raises(IntegrityError):
            db.commit()
        with pytest.raises(IntegrityError):
            db.abort()

    def test_in_transaction_flag(self, db):
        assert not db.in_transaction
        db.begin()
        assert db.in_transaction
        db.commit()
        assert not db.in_transaction


class TestTransactionStatements:
    def test_excess_syntax(self, small_company):
        db = small_company
        db.execute("begin transaction")
        db.execute("delete E from E in Employees")
        db.execute("abort")
        assert db.execute(
            "retrieve (count(E.age)) from E in Employees"
        ).scalar() == 3
        db.execute("begin")
        db.execute('replace E (age = 1) from E in Employees')
        db.execute("commit")
        assert db.execute(
            "retrieve unique (E.age) from E in Employees"
        ).rows == [(1,)]

    def test_session_ranges_survive_abort(self, small_company):
        db = small_company
        db.execute("range of Z is Employees")
        db.execute("begin")
        db.execute("delete Z")
        db.execute("abort")
        # the session-level range declaration is still usable
        assert db.execute("retrieve (count(Z.age))").scalar() == 3

    def test_aborted_oids_not_reused(self, small_company):
        db = small_company
        db.begin()
        db.insert("Employees", name="Temp", age=1, salary=1.0)
        db.abort()
        fresh = db.insert("Employees", name="After", age=2, salary=2.0)
        # the undo log never rewinds the allocator; whatever oid the
        # fresh object gets, it must be fully consistent
        assert db.objects.fetch(fresh.oid).get("name") == "After"

    def test_abort_restores_nested_owned_set(self, small_company):
        db = small_company
        db.begin()
        db.execute('append to E.kids (name = "New", age = 1) '
                   'from E in Employees where E.name = "Bob"')
        db.abort()
        assert db.execute(
            'retrieve (count(E.kids)) from E in Employees where E.name = "Bob"'
        ).scalar() == 0

    def test_abort_restores_array_slot(self, small_company):
        db = small_company
        db.begin()
        db.execute('set TopTen[3] = E from E in Employees where E.name = "Bob"')
        db.abort()
        assert db.named("TopTen").value.get(3) is NULL

    def test_abort_restores_ownership(self, small_company):
        db = small_company
        bob = db.execute(
            'retrieve (E) from E in Employees where E.name = "Bob"').scalar()
        before = db.objects.owner_of(bob.oid)
        db.begin()
        db.objects.release(bob.oid)
        assert db.objects.owner_of(bob.oid) == (None, None)
        db.abort()
        assert db.objects.owner_of(bob.oid) == before

    def test_snapshot_excludes_open_transaction(self, small_company, tmp_path):
        db = small_company
        db.begin()
        path = str(tmp_path / "t.snap")
        db.save(path)
        restored = Database.load(path)
        assert not restored.in_transaction
        db.abort()

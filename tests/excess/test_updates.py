"""Functional tests for update statements: append, delete, replace, set
(paper §3.5) and their interaction with the integrity rules."""

import pytest

from repro import Database
from repro.core.values import NULL
from repro.errors import BindError, IntegrityError, TypeSystemError


class TestAppend:
    def test_append_constants(self, small_company):
        small_company.execute(
            'append to Departments (dname = "Books", floor = 3, '
            "budget = 50000.0)"
        )
        result = small_company.execute(
            'retrieve (D.floor) from D in Departments where D.dname = "Books"'
        )
        assert result.rows == [(3,)]

    def test_append_with_from_where(self, small_company):
        small_company.execute(
            'append to Employees (name = "New", age = 20, salary = 1.0, '
            'dept = D) from D in Departments where D.dname = "Shoes"'
        )
        result = small_company.execute(
            'retrieve (E.dept.dname) from E in Employees where E.name = "New"'
        )
        assert result.rows == [("Shoes",)]

    def test_append_computed_values(self, small_company):
        small_company.execute(
            'append to Employees (name = "Clone", age = E.age + 1, '
            'salary = E.salary * 2.0) from E in Employees '
            'where E.name = "Bob"'
        )
        result = small_company.execute(
            'retrieve (E.age, E.salary) from E in Employees '
            'where E.name = "Clone"'
        )
        assert result.rows == [(31, 80000.0)]

    def test_append_to_nested_set(self, small_company):
        small_company.execute(
            'append to E.kids (name = "Kid", age = 1) from E in Employees '
            'where E.name = "Bob"'
        )
        result = small_company.execute(
            'retrieve (C.name) from C in Employees.kids '
            'where Employees.name = "Bob"'
        )
        assert result.rows == [("Kid",)]

    def test_appended_kid_is_owned(self, small_company):
        db = small_company
        db.execute(
            'append to E.kids (name = "Kid", age = 1) from E in Employees '
            'where E.name = "Bob"'
        )
        bob = db.execute(
            'retrieve (E) from E in Employees where E.name = "Bob"'
        ).rows[0][0]
        kid = db.objects.fetch(bob.oid).get("kids").members()[0]
        assert db.objects.owner_of(kid.oid) == (bob.oid, None)

    def test_append_ref_expression_form(self, small_company):
        db = small_company
        db.execute("create {ref Employee} Team")
        db.execute('append to Team (E) from E in Employees '
                   "where E.salary > 45000.0")
        result = db.execute("retrieve (T.name) from T in Team")
        assert sorted(r[0] for r in result.rows) == ["Ann", "Sue"]

    def test_append_duplicate_ref_is_noop(self, small_company):
        db = small_company
        db.execute("create {ref Employee} Team")
        db.execute('append to Team (E) from E in Employees where E.name = "Sue"')
        result = db.execute(
            'append to Team (E) from E in Employees where E.name = "Sue"'
        )
        assert result.count == 0

    def test_append_to_variable_array(self, db):
        db.execute(
            """
            define type Point as (x: int4, y: int4)
            define type Shape as (sname: char(10), pts: [] own Point)
            create {own ref Shape} Shapes
            append to Shapes (sname = "tri")
            append to S.pts (x = 0, y = 0) from S in Shapes
            append to S.pts (x = 1, y = 1) from S in Shapes
            """
        )
        result = db.execute("retrieve (n = count(S.pts)) from S in Shapes")
        assert result.rows == [(2,)]

    def test_append_unknown_attribute_rejected(self, small_company):
        with pytest.raises(BindError):
            small_company.execute("append to Departments (shoe_size = 1)")

    def test_append_respects_key(self, db):
        db.execute(
            """
            define type T as (k: int4)
            create {own ref T} S key (k)
            append to S (k = 1)
            """
        )
        with pytest.raises(IntegrityError):
            db.execute("append to S (k = 1)")


class TestDelete:
    def test_delete_all(self, small_company):
        result = small_company.execute("delete E from E in Employees")
        assert result.count == 3
        assert len(small_company.named("Employees").value) == 0

    def test_delete_with_filter(self, small_company):
        small_company.execute(
            'delete E from E in Employees where E.name = "Bob"'
        )
        result = small_company.execute(
            "retrieve (E.name) from E in Employees"
        )
        assert sorted(r[0] for r in result.rows) == ["Ann", "Sue"]

    def test_delete_cascades_to_kids(self, small_company):
        small_company.execute(
            'delete E from E in Employees where E.name = "Sue"'
        )
        result = small_company.execute(
            "retrieve (C.name) from C in Employees.kids"
        )
        assert sorted(r[0] for r in result.rows) == ["Rex"]

    def test_delete_leaves_dangling_named_refs(self, small_company):
        small_company.execute(
            'delete E from E in Employees where E.name = "Ann"'
        )
        result = small_company.execute("retrieve (StarEmployee.name)")
        assert result.rows == [(NULL,)]

    def test_delete_filter_through_path(self, small_company):
        small_company.execute(
            "delete E from E in Employees where E.dept.floor = 2"
        )
        result = small_company.execute("retrieve (E.name) from E in Employees")
        assert result.rows == [("Bob",)]

    def test_delete_from_nested_set(self, small_company):
        result = small_company.execute(
            "delete C from C in Employees.kids where C.age < 10"
        )
        assert result.count == 1
        result = small_company.execute(
            "retrieve (C.name) from C in Employees.kids"
        )
        assert sorted(r[0] for r in result.rows) == ["Rex", "Tim"]

    def test_delete_session_range_variable(self, small_company):
        small_company.execute("range of Victim is Employees")
        small_company.execute('delete Victim where Victim.age = 30')
        assert len(small_company.named("Employees").value) == 2


class TestReplace:
    def test_replace_constant(self, small_company):
        small_company.execute(
            'replace E (age = 99) from E in Employees where E.name = "Bob"'
        )
        result = small_company.execute(
            'retrieve (E.age) from E in Employees where E.name = "Bob"'
        )
        assert result.rows == [(99,)]

    def test_replace_computed(self, small_company):
        small_company.execute(
            "replace E (salary = E.salary * 1.1) from E in Employees "
            "where E.dept.floor = 2"
        )
        result = small_company.execute(
            "retrieve (E.name, E.salary) from E in Employees"
        )
        rows = dict(result.rows)
        assert rows["Sue"] == pytest.approx(55000.0)
        assert rows["Ann"] == pytest.approx(66000.0)
        assert rows["Bob"] == 40000.0

    def test_replace_sees_snapshot(self, small_company):
        # all employees get the CURRENT max salary, not a moving target
        small_company.execute(
            "replace E (salary = max(F.salary)) from E in Employees, "
            "F in Employees"
        )
        result = small_company.execute(
            "retrieve unique (E.salary) from E in Employees"
        )
        assert result.rows == [(60000.0,)]

    def test_replace_reference_attribute(self, small_company):
        small_company.execute(
            'replace E (dept = D) from E in Employees, D in Departments '
            'where E.name = "Bob" and D.dname = "Toys"'
        )
        result = small_company.execute(
            'retrieve (E.dept.dname) from E in Employees where E.name = "Bob"'
        )
        assert result.rows == [("Toys",)]

    def test_replace_through_path_target(self, small_company):
        # replace the DEPARTMENT of second-floor employees via the path
        small_company.execute(
            'replace E.dept (budget = 1.0) from E in Employees '
            'where E.name = "Sue"'
        )
        result = small_company.execute(
            'retrieve (D.budget) from D in Departments where D.dname = "Toys"'
        )
        assert result.rows == [(1.0,)]

    def test_replace_unknown_attribute_rejected(self, small_company):
        with pytest.raises(BindError):
            small_company.execute(
                "replace E (shoe_size = 9) from E in Employees"
            )

    def test_replace_type_mismatch_rejected(self, small_company):
        with pytest.raises(BindError):
            small_company.execute(
                'replace E (age = "old") from E in Employees'
            )

    def test_replace_ref_with_value_rejected(self, small_company):
        with pytest.raises(BindError):
            small_company.execute(
                "replace E (dept = 5) from E in Employees"
            )


class TestReplaceCharLiteral:
    """A text literal assigns to a ``char(n)`` attribute; its length is
    checked when the value is stored, as ``append`` checks it."""

    @pytest.fixture
    def accts(self):
        db = Database()
        db.interpreter.parallel_mode = "off"
        db.execute("define type Acct as (id: int4, note: char(8))")
        db.execute("create {own ref Acct} Accts")
        db.execute('append to Accts (id = 1, note = "a")')
        db.execute('append to Accts (id = 2, note = "b")')
        return db

    @staticmethod
    def notes(db):
        return sorted(db.execute("retrieve (A.id, A.note) from A in Accts").rows)

    def test_text_literal_assigns(self, accts):
        accts.execute('replace A (note = "x") from A in Accts')
        assert self.notes(accts) == [(1, "x"), (2, "x")]

    def test_overlong_literal_fails_ad_hoc(self, accts):
        with pytest.raises(TypeSystemError, match="char\\(8\\)"):
            accts.execute('replace A (note = "123456789") from A in Accts')
        assert self.notes(accts) == [(1, "a"), (2, "b")]

    def test_overlong_literal_fails_on_shape_hit(self, accts):
        accts.execute('replace A (note = "x") from A in Accts where A.id = 1')
        hits = accts.interpreter.plan_cache.stats()["hits"]
        with pytest.raises(TypeSystemError, match="char\\(8\\)"):
            accts.execute(
                'replace A (note = "abcdefghij") from A in Accts where A.id = 2'
            )
        assert accts.interpreter.plan_cache.stats()["hits"] == hits + 1
        assert self.notes(accts) == [(1, "x"), (2, "b")]


class TestSetStatement:
    def test_set_named_scalar(self, small_company):
        small_company.execute('set Today = Date("1/1/2000")')
        result = small_company.execute("retrieve (Today)")
        assert str(result.rows[0][0]) == "1/1/2000"

    def test_set_named_ref(self, small_company):
        small_company.execute(
            'set StarEmployee = E from E in Employees where E.name = "Bob"'
        )
        result = small_company.execute("retrieve (StarEmployee.name)")
        assert result.rows == [("Bob",)]

    def test_set_array_slot(self, small_company):
        small_company.execute(
            'set TopTen[3] = E from E in Employees where E.name = "Bob"'
        )
        result = small_company.execute("retrieve (TopTen[3].name)")
        assert result.rows == [("Bob",)]

    def test_set_attribute_slot(self, small_company):
        small_company.execute(
            'set StarEmployee.age = 51'
        )
        result = small_company.execute(
            'retrieve (E.age) from E in Employees where E.name = "Ann"'
        )
        assert result.rows == [(51,)]

    def test_set_to_null(self, small_company):
        small_company.execute("set StarEmployee = null")
        result = small_company.execute("retrieve (StarEmployee.name)")
        assert result.rows == [(NULL,)]

    def test_set_unknown_target_rejected(self, small_company):
        with pytest.raises(BindError):
            small_company.execute("set Nothing = 1")


class TestUpdateIndexMaintenance:
    def test_replace_updates_index(self, small_company):
        db = small_company
        db.execute("create index on Employees (salary) using btree")
        db.execute(
            'replace E (salary = 99999.0) from E in Employees '
            'where E.name = "Bob"'
        )
        result = db.execute(
            "retrieve (E.name) from E in Employees where E.salary = 99999.0"
        )
        assert result.rows == [("Bob",)]
        assert result.plan.index_scans  # the lookup used the index

    def test_append_updates_index(self, small_company):
        db = small_company
        db.execute("create index on Employees (age) using hash")
        db.execute(
            'append to Employees (name = "Kid", age = 18, salary = 1.0)'
        )
        result = db.execute(
            "retrieve (E.name) from E in Employees where E.age = 18"
        )
        assert result.rows == [("Kid",)]
        assert result.plan.index_scans

    def test_delete_updates_index(self, small_company):
        db = small_company
        db.execute("create index on Employees (age) using hash")
        db.execute("delete E from E in Employees where E.age = 30")
        result = db.execute(
            "retrieve (E.name) from E in Employees where E.age = 30"
        )
        assert result.rows == []

    def test_slot_set_updates_index(self, small_company):
        # a slot `set` maintains indexes exactly like `replace`: before,
        # it wrote the attribute and left the old index entry in place
        db = small_company
        db.execute("create index on Employees (salary) using btree")
        db.execute('set E.salary = 1.0 from E in Employees where E.name = "Sue"')
        moved = db.execute(
            "retrieve (E.name) from E in Employees where E.salary = 1.0"
        )
        assert moved.rows == [("Sue",)] and moved.plan.index_scans
        assert db.execute(
            "retrieve (E.name) from E in Employees where E.salary = 50000.0"
        ).rows == []

    def test_replace_maintains_every_indexed_set(self, small_company):
        db = small_company
        db.execute("create {ref Employee} Stars")
        db.execute('append to Stars (E) from E in Employees where E.name = "Ann"')
        db.execute("create index on Stars (age) using hash")
        db.execute('replace E (age = 51) from E in Employees where E.name = "Ann"')
        result = db.execute("retrieve (S.name) from S in Stars where S.age = 51")
        assert result.rows == [("Ann",)] and result.plan.index_scans
        assert db.execute(
            "retrieve (S.name) from S in Stars where S.age = 50"
        ).rows == []

"""Functional tests for EXCESS procedures: IDM stored commands with
where-clause parameter binding (paper §4.2.2)."""

import pytest

from repro.errors import BindError, ProcedureError


@pytest.fixture
def db_with_raise(small_company):
    small_company.execute(
        "define procedure Raise (E in Employee, amt: float8) as "
        "replace E (salary = E.salary + amt)"
    )
    return small_company


class TestDefinition:
    def test_body_validated_at_definition(self, small_company):
        with pytest.raises(BindError):
            small_company.execute(
                "define procedure Bad (E in Employee) as "
                "replace E (shoe_size = 1)"
            )

    def test_duplicate_name_rejected(self, db_with_raise):
        from repro.errors import CatalogError

        with pytest.raises(CatalogError):
            db_with_raise.execute(
                "define procedure Raise (E in Employee) as "
                "replace E (salary = 0.0)"
            )

    def test_unknown_parameter_type_rejected(self, small_company):
        from repro.errors import CatalogError

        with pytest.raises(CatalogError):
            small_company.execute(
                "define procedure P (X in Nothing) as replace X (a = 1)"
            )


class TestExecution:
    def test_repeat_execute_generates_no_expression_code(
        self, db_with_raise, generated
    ):
        """Arguments run once per binding through the tree-walker, and
        the body's payload is compiled once, on its cached plan: a
        second execute generates no expression code, and one without a
        from clause no code at all."""
        db = db_with_raise
        db.interpreter.parallel_mode = "off"
        with_from = 'execute Raise (E, 100.0) from E in Employees where E.name = "Sue"'
        db.execute(with_from)
        db.execute("execute Raise (StarEmployee, 1.0 + 2.0)")
        assert "<expression>" in [name for name, _ in generated]
        generated.clear()
        db.execute(with_from)
        # the invocation query is bound afresh per execute: only its
        # fused region is generated again
        assert [name for name, _ in generated] == ["<fused pipeline>"]
        generated.clear()
        db.execute("execute Raise (StarEmployee, 1.0 + 2.0)")
        assert generated == []
        salaries = dict(db.execute("retrieve (E.name, E.salary) from E in Employees").rows)
        assert salaries["Sue"] == 50200.0 and salaries["Ann"] == 60006.0

    def test_all_bindings_invoked(self, db_with_raise):
        # the paper's generalization over IDM: run once per binding
        result = db_with_raise.execute(
            "execute Raise (E, 1000.0) from E in Employees "
            "where E.dept.floor = 2"
        )
        assert "2 binding(s)" in result.message
        rows = dict(db_with_raise.execute(
            "retrieve (E.name, E.salary) from E in Employees"
        ).rows)
        assert rows == {"Sue": 51000.0, "Ann": 61000.0, "Bob": 40000.0}

    def test_constant_binding(self, db_with_raise):
        db = db_with_raise
        db.execute(
            'execute Raise (E, 5.0) from E in Employees where E.name = "Bob"'
        )
        rows = dict(db.execute(
            "retrieve (E.name, E.salary) from E in Employees"
        ).rows)
        assert rows["Bob"] == 40005.0

    def test_no_qualifying_bindings(self, db_with_raise):
        result = db_with_raise.execute(
            "execute Raise (E, 1.0) from E in Employees where E.age > 200"
        )
        assert "0 binding(s)" in result.message

    def test_computed_argument(self, db_with_raise):
        db = db_with_raise
        db.execute(
            "execute Raise (E, E.salary * 0.1) from E in Employees "
            'where E.name = "Bob"'
        )
        rows = dict(db.execute(
            "retrieve (E.name, E.salary) from E in Employees").rows)
        assert rows["Bob"] == 44000.0

    def test_body_rebinds_after_schema_change(self, small_company):
        """A body bound before ``alter type`` is rebound, so it fails the
        way the same text typed ad hoc does, not with a stale plan."""
        db = small_company
        db.execute("alter type Employee add (bonus: float8)")
        db.execute("define procedure Bonus (E in Employee) as "
                   "replace E (bonus = 1.0)")
        db.execute('execute Bonus (E) from E in Employees where E.name = "Bob"')
        db.execute("alter type Employee drop (bonus)")
        with pytest.raises(BindError):
            db.execute('replace E (bonus = 1.0) from E in Employees '
                       'where E.name = "Bob"')
        with pytest.raises(BindError):
            db.execute('execute Bonus (E) from E in Employees '
                       'where E.name = "Bob"')

    def test_arity_checked(self, db_with_raise):
        with pytest.raises(ProcedureError):
            db_with_raise.execute("execute Raise (E) from E in Employees")

    def test_unknown_procedure(self, small_company):
        from repro.errors import CatalogError

        with pytest.raises(CatalogError):
            small_company.execute("execute Nothing ()")


class TestBodyKinds:
    def test_append_body(self, small_company):
        small_company.execute(
            "define procedure Hire (nm: char(30), a: int4) as "
            "append to Employees (name = nm, age = a, salary = 30000.0)"
        )
        small_company.execute('execute Hire ("Ned", 22)')
        result = small_company.execute(
            'retrieve (E.age) from E in Employees where E.name = "Ned"'
        )
        assert result.rows == [(22,)]

    def test_set_body(self, small_company):
        small_company.execute(
            "define procedure Crown (E in Employee) as set StarEmployee = E"
        )
        small_company.execute(
            'execute Crown (E) from E in Employees where E.name = "Bob"'
        )
        result = small_company.execute("retrieve (StarEmployee.name)")
        assert result.rows == [("Bob",)]

    def test_retrieve_body(self, small_company):
        small_company.execute(
            "define procedure PayOf (E in Employee) as retrieve (E.salary)"
        )
        result = small_company.execute(
            'execute PayOf (E) from E in Employees where E.dept.floor = 2'
        )
        assert sorted(r[0] for r in result.rows) == [50000.0, 60000.0]

    def test_procedure_body_uses_parameter_in_where(self, small_company):
        small_company.execute(
            "define procedure CutAbove (lim: float8) as "
            "replace E (salary = lim) from E in Employees "
            "where E.salary > lim"
        )
        small_company.execute("execute CutAbove (45000.0)")
        result = small_company.execute(
            "retrieve (m = max(E.salary)) from E in Employees"
        )
        assert result.rows == [(45000.0,)]


class TestDefinerRights:
    def test_encapsulation(self, small_company):
        db = small_company
        db.execute(
            "define procedure Raise2 (E in Employee, amt: float8) as "
            "replace E (salary = E.salary + amt)"
        )
        db.authz.enabled = True
        db.execute("create user clerk")
        db.execute("grant execute on Raise2 to clerk")
        session = db.session("clerk")
        # direct access denied
        from repro.errors import AuthorizationError

        with pytest.raises(AuthorizationError):
            session.execute("retrieve (E.salary) from E in Employees")
        with pytest.raises(AuthorizationError):
            session.execute(
                "replace E (salary = 0.0) from E in Employees"
            )
        # but the granted procedure works (definer rights)
        result = session.execute(
            'execute Raise2 (E, 1.0) from E in Employees where E.name = "Bob"'
        )
        assert "1 binding(s)" in result.message

    def test_execute_without_grant_denied(self, small_company):
        db = small_company
        db.execute(
            "define procedure Raise3 (E in Employee) as "
            "replace E (salary = 0.0)"
        )
        db.authz.enabled = True
        session = db.session("intruder")
        from repro.errors import AuthorizationError

        with pytest.raises(AuthorizationError):
            session.execute("execute Raise3 (E) from E in Employees")

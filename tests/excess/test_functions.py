"""Functional tests for EXCESS functions: derived data, inheritance
through the lattice, virtual vs fixed dispatch (paper §4.2.1)."""

import pytest

from repro.core.values import NULL
from repro.errors import BindError, EvaluationError, FunctionError


@pytest.fixture
def db_with_functions(small_company):
    db = small_company
    db.execute(
        "define function Pay (E in Employee) returns float8 as "
        "retrieve (E.salary * 1.5)"
    )
    return db


class TestBasicFunctions:
    def test_call_syntax(self, db_with_functions):
        result = db_with_functions.execute(
            'retrieve (Pay(E)) from E in Employees where E.name = "Bob"'
        )
        assert result.rows == [(60000.0,)]

    def test_function_in_where_clause(self, db_with_functions):
        result = db_with_functions.execute(
            "retrieve (E.name) from E in Employees where Pay(E) > 80000.0"
        )
        assert result.rows == [("Ann",)]

    def test_function_with_value_parameters(self, small_company):
        small_company.execute(
            "define function Scaled (E in Employee, factor: float8) "
            "returns float8 as retrieve (E.salary * factor)"
        )
        result = small_company.execute(
            'retrieve (Scaled(E, 2.0)) from E in Employees '
            'where E.name = "Bob"'
        )
        assert result.rows == [(80000.0,)]

    def test_function_with_internal_query(self, small_company):
        # derived attribute computed from a correlated aggregate
        small_company.execute(
            "define function KidCount (P in Person) returns int4 as "
            "retrieve (count(P.kids))"
        )
        result = small_company.execute(
            "retrieve (E.name, KidCount(E)) from E in Employees"
        )
        assert dict(result.rows) == {"Sue": 2, "Bob": 0, "Ann": 1}

    def test_function_returning_object(self, small_company):
        small_company.execute(
            "define function Workplace (E in Employee) returns ref Department "
            "as retrieve (E.dept)"
        )
        result = small_company.execute(
            'retrieve (Workplace(E).dname) from E in Employees '
            'where E.name = "Sue"'
        )
        # path steps after a call are not supported; use nested call result
        assert result.rows == [("Toys",)]

    def test_null_receiver_yields_null(self, db_with_functions):
        db = db_with_functions
        db.execute("set StarEmployee = null")
        result = db.execute("retrieve (x = Pay(StarEmployee))")
        assert result.rows == [(NULL,)]

    def test_body_validated_at_definition(self, small_company):
        with pytest.raises(BindError):
            small_company.execute(
                "define function Bad (E in Employee) returns float8 as "
                "retrieve (E.shoe_size)"
            )

    def test_first_param_must_be_object(self, small_company):
        with pytest.raises(FunctionError):
            small_company.execute(
                "define function Bad (x: float8) returns float8 as "
                "retrieve (x)"
            )

    def test_single_target_required(self, small_company):
        with pytest.raises(FunctionError):
            small_company.execute(
                "define function Bad (E in Employee) returns float8 as "
                "retrieve (E.salary, E.age)"
            )


    def test_body_rebinds_after_schema_change(self, small_company):
        """A body bound before ``alter type`` is rebound, so it fails the
        way the same text typed ad hoc does, not with a stale plan."""
        db = small_company
        db.execute("alter type Employee add (bonus: float8)")
        db.execute("define function Bonus (E in Employee) returns float8 as "
                   "retrieve (E.bonus)")
        db.execute("retrieve (Bonus(E)) from E in Employees")
        db.execute("alter type Employee drop (bonus)")
        with pytest.raises(BindError):
            db.execute("retrieve (E.bonus) from E in Employees")
        with pytest.raises(BindError):
            db.execute("retrieve (Bonus(E)) from E in Employees")


class TestInheritanceAndDispatch:
    def make_lattice(self, db):
        db.execute(
            """
            define type Animal as (aname: char(20), mass: float8)
            define type Dog as (breed: char(20)) inherits Animal
            create {own ref Animal} Zoo
            create {own ref Dog} Kennel
            define function Noise (A in Animal) returns text as
                retrieve ("generic noise")
            """
        )
        db.execute('append to Zoo (aname = "Rex", mass = 30.0)')
        db.execute('append to Kennel (aname = "Fido", mass = 20.0, '
                   'breed = "lab")')

    def test_inherited_function(self, db):
        self.make_lattice(db)
        result = db.execute("retrieve (Noise(D)) from D in Kennel")
        assert result.rows == [("generic noise",)]

    def test_subtype_override_dispatches_dynamically(self, db):
        self.make_lattice(db)
        db.execute(
            'define function Noise (D in Dog) returns text as '
            'retrieve ("woof")'
        )
        assert db.execute(
            "retrieve (Noise(D)) from D in Kennel"
        ).rows == [("woof",)]
        assert db.execute(
            "retrieve (Noise(A)) from A in Zoo"
        ).rows == [("generic noise",)]

    def test_dynamic_dispatch_through_supertype_set(self, db):
        self.make_lattice(db)
        db.execute(
            'define function Noise (D in Dog) returns text as '
            'retrieve ("woof")'
        )
        # put a Dog into the Animal set: dispatch follows the runtime type
        db.execute("create {ref Animal} Mixed")
        db.execute("append to Mixed (A) from A in Zoo")
        db.execute("append to Mixed (D) from D in Kennel")
        result = db.execute("retrieve (M.aname, Noise(M)) from M in Mixed")
        assert sorted(result.rows) == [
            ("Fido", "woof"), ("Rex", "generic noise"),
        ]

    def test_fixed_function_binds_statically(self, db):
        self.make_lattice(db)
        db.execute(
            'define fixed function Label (A in Animal) returns text as '
            'retrieve ("animal")'
        )
        db.execute(
            'define fixed function Label (D in Dog) returns text as '
            'retrieve ("dog")'
        )
        db.execute("create {ref Animal} Mixed2")
        db.execute("append to Mixed2 (D) from D in Kennel")
        # static type of M is Animal, so the fixed function is Animal's
        result = db.execute("retrieve (Label(M)) from M in Mixed2")
        assert result.rows == [("animal",)]
        # but through the Dog-typed variable, Dog's fixed version is used
        result = db.execute("retrieve (Label(D)) from D in Kennel")
        assert result.rows == [("dog",)]

    def test_redefinition_same_type_rejected(self, db):
        self.make_lattice(db)
        with pytest.raises(Exception):
            db.execute(
                'define function Noise (A in Animal) returns text as '
                'retrieve ("again")'
            )


class TestRecursionGuard:
    def test_runaway_recursion_detected(self, db):
        db.execute(
            """
            define type Node as (label: char(10), next: ref Node)
            create {own ref Node} Nodes
            append to Nodes (label = "a")
            """
        )
        db.execute(
            'replace N (next = N) from N in Nodes where N.label = "a"'
        )
        db.execute(
            "define function Depth (N in Node) returns int4 as "
            "retrieve (Depth(N.next) + 1)"
        )
        with pytest.raises(EvaluationError):
            db.execute("retrieve (Depth(N)) from N in Nodes")

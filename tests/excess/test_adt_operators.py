"""Functional tests for the ADT facility in queries: the Date and Complex
ADTs, operator registration/overloading, new operators with explicit
precedence (paper §4.1, Figure 7)."""

import pytest

from repro import Complex, Date
from repro.core.types import FLOAT8
from repro.errors import BindError, CatalogError, EvaluationError


class TestDateAdt:
    def test_constructor_literal(self, db):
        result = db.execute('retrieve (d = Date("7/4/1988"))')
        assert result.rows == [(Date(1988, 7, 4),)]

    def test_accessors(self, db):
        result = db.execute(
            'retrieve (y = Year(Date("7/4/1988")), m = Month(Date("7/4/1988")),'
            ' d = Day(Date("7/4/1988")))'
        )
        assert result.rows == [(1988, 7, 4)]

    def test_date_diff(self, db):
        result = db.execute(
            'retrieve (n = DateDiff(Date("7/14/1988"), Date("7/4/1988")))'
        )
        assert result.rows == [(10,)]

    def test_add_days(self, db):
        result = db.execute(
            'retrieve (d = AddDays(Date("12/30/1999"), 3))'
        )
        assert result.rows == [(Date(2000, 1, 2),)]

    def test_date_comparisons_in_where(self, small_company):
        result = small_company.execute(
            'retrieve (E.name) from E in Employees '
            'where E.birthday < Date("1/1/1950")'
        )
        assert result.rows == [("Sue",)]

    def test_bad_date_literal(self, db):
        with pytest.raises(EvaluationError):
            db.execute('retrieve (d = Date("13/45/1"))')


class TestComplexAdt:
    def test_figure7_add_both_syntaxes(self, db):
        result = db.execute(
            "retrieve (a = Complex(1.0, 2.0) + Complex(3.0, 4.0), "
            "b = Add(Complex(1.0, 2.0), Complex(3.0, 4.0)))"
        )
        assert result.rows[0][0] == Complex(4.0, 6.0)
        assert result.rows[0][0] == result.rows[0][1]

    def test_overloaded_minus_and_times(self, db):
        result = db.execute(
            "retrieve (d = Complex(5.0, 5.0) - Complex(1.0, 2.0), "
            "p = Complex(0.0, 1.0) * Complex(0.0, 1.0))"
        )
        assert result.rows[0][0] == Complex(4.0, 3.0)
        assert result.rows[0][1] == Complex(-1.0, 0.0)

    def test_magnitude(self, db):
        result = db.execute("retrieve (m = Magnitude(Complex(3.0, 4.0)))")
        assert result.rows == [(5.0,)]

    def test_plus_still_numeric_for_numbers(self, db):
        result = db.execute("retrieve (x = 1 + 2)")
        assert result.rows == [(3,)]

    def test_complex_attribute_round_trip(self, db):
        db.execute(
            """
            define type Measurement as (label: char(10), val: Complex)
            create {own ref Measurement} Measurements
            append to Measurements (label = "m1", val = Complex(1.0, 1.0))
            """
        )
        result = db.execute(
            "retrieve (M.label, s = M.val + M.val) from M in Measurements"
        )
        assert result.rows == [("m1", Complex(2.0, 2.0))]


class TestNewAdtRegistration:
    def register_money(self, db):
        """Register a Money ADT with a new `~+~` operator at explicit
        precedence, exercising the paper's new-operator path."""

        class Money:
            def __init__(self, cents: int):
                self.cents = int(cents)

            def __eq__(self, other):
                return isinstance(other, Money) and other.cents == self.cents

            def __hash__(self):
                return hash(("Money", self.cents))

        money_t = db.catalog.adts.define_adt("Money", Money)
        db.catalog.adts.define_function(
            "Money", "Money", lambda c: Money(c), [db_int4()], money_t
        )
        db.catalog.adts.define_function(
            "Money", "MAdd",
            lambda a, b: Money(a.cents + b.cents), [money_t, money_t], money_t,
        )
        db.catalog.adts.define_function(
            "Money", "Cents", lambda m: m.cents, [money_t], db_int4()
        )
        db.catalog.adts.register_operator(
            "~+~", "Money", "MAdd", precedence=55
        )
        return Money

    def test_new_operator_usable_immediately(self, db):
        self.register_money(db)
        result = db.execute(
            "retrieve (c = Cents(Money(100) ~+~ Money(250)))"
        )
        assert result.rows == [(350,)]

    def test_operator_table_is_rebuilt_only_when_the_registry_grows(self, db):
        interpreter = db.interpreter
        db.execute("retrieve (x = 1 + 2)")
        table = interpreter._operator_table()
        db.execute("retrieve (x = 3 + 4)")
        assert interpreter._operator_table() is table  # memoized
        assert table.infix("~+~") is None
        self.register_money(db)  # mid-session: the next statement sees it
        result = db.execute("retrieve (c = Cents(Money(1) ~+~ Money(2)))")
        assert result.rows == [(3,)]
        rebuilt = interpreter._operator_table()
        assert rebuilt is not table and rebuilt.infix("~+~").precedence == 55
        # same shape, other literals: the ADT arguments are slots too
        again = db.execute("retrieve (c = Cents(Money(10) ~+~ Money(20)))")
        assert again.rows == [(30,)] and again.metrics["cache"] == "hit"

    def test_new_operator_precedence(self, db):
        # ~+~ at 55 binds tighter than + (50): parses as a + (b ~+~ c)
        # which then fails to bind (+ over Money) — proving precedence.
        self.register_money(db)
        with pytest.raises(BindError):
            db.execute(
                "retrieve (x = Cents(Money(1)) + Money(2) ~+~ Money(3))"
            )

    def test_adt_columns_in_named_objects(self, db):
        self.register_money(db)
        db.execute("create Money Budget")
        db.execute("set Budget = Money(5000)")
        result = db.execute("retrieve (c = Cents(Budget))")
        assert result.rows == [(5000,)]


class TestOperatorRules:
    def test_overloaded_function_cannot_be_operator(self, db):
        adts = db.catalog.adts
        t = adts.define_adt("Pair", tuple)
        adts.define_function("Pair", "Mk", lambda a: (a,), [FLOAT8], t)
        adts.define_function(
            "Pair", "Mk", lambda a, b: (a, b), [FLOAT8, FLOAT8], t
        )
        with pytest.raises(CatalogError):
            adts.register_operator("##", "Pair", "Mk")

    def test_infix_operator_needs_two_args(self, db):
        adts = db.catalog.adts
        t = adts.define_adt("Single", int)
        adts.define_function("Single", "Neg", lambda a: -a, [t], t)
        with pytest.raises(CatalogError):
            adts.register_operator("!!", "Single", "Neg", fixity="infix")
        # but prefix is fine
        adts.register_operator("!!", "Single", "Neg", fixity="prefix")

    def test_illegal_symbol_rejected(self, db):
        adts = db.catalog.adts
        t = adts.define_adt("S2", int)
        adts.define_function("S2", "F", lambda a, b: a, [t, t], t)
        with pytest.raises(CatalogError):
            adts.register_operator("a b", "S2", "F")

    def test_conflicting_reregistration_rejected(self, db):
        adts = db.catalog.adts
        t = adts.define_adt("S3", int)
        adts.define_function("S3", "F", lambda a, b: a, [t, t], t)
        adts.register_operator("@@", "S3", "F", precedence=55)
        t2 = adts.define_adt("S4", str)
        adts.define_function("S4", "G", lambda a, b: a, [t2, t2], t2)
        with pytest.raises(CatalogError):
            adts.register_operator("@@", "S4", "G", precedence=60)


def db_int4():
    from repro.core.types import INT4

    return INT4

"""Compiled ≡ interpreted parity over the paper-figure query corpus.

Every query family the walkthrough exercises (F1–F13) is executed under
every ``exec_mode`` (``fused`` / ``row``) ×
``compile_mode`` (``closure`` / ``off``) combination against the same
database, and must return identical row multisets (or raise the
identical error). This pins the closure compiler and the fused
executor to the recursive row-at-a-time interpreter's semantics on
exactly the queries the paper defines, plus the null-semantics edge
cases where the implementations could plausibly diverge.
"""

from __future__ import annotations

import pytest

from repro import Database
from repro.core.values import NULL
from repro.errors import EvaluationError

#: (figure, query) — everything here runs against the prepared
#: small_company database of conftest.py (plus the setup below)
PAPER_QUERIES = [
    # F1: ADT attributes in queries
    ("F1", "retrieve (E.name, E.birthday) from E in Employees"),
    ("F1", 'retrieve (E.name) from E in Employees '
           'where E.birthday = Date("7/4/1948")'),
    # F5: named singletons, refs, array slots
    ("F5", "retrieve (Today)"),
    ("F5", "retrieve (StarEmployee.name, StarEmployee.salary)"),
    ("F5", "retrieve (TopTen[1].name, TopTen[1].salary)"),
    ("F5", "retrieve (TopTen[2].name)"),
    # F6: implicit joins through refs and nested sets
    ("F6", "retrieve (E.name) from E in Employees where E.dept.floor = 2"),
    ("F6", "retrieve (C.name) from C in Employees.kids "
           "where Employees.dept.floor = 2"),
    ("F6", "retrieve (E.name, E.dept.dname) from E in Employees"),
    # F7: aggregates — global, partitioned, correlated, aggregate where
    ("F7", "retrieve (count(Employees))"),
    ("F7", "retrieve unique (E.dept.dname, p = avg(E.salary over E.dept)) "
           "from E in Employees"),
    ("F7", "retrieve (E.name, a = avg(E.kids.age)) from E in Employees"),
    ("F7", "retrieve (E.name, c = count(E.kids)) from E in Employees"),
    ("F7", "retrieve (s = sum(E.salary where E.age > 35)) "
           "from E in Employees"),
    # F8: quantification and object identity
    ("F8", "retrieve (D.dname) from D in Departments, E in every Employees "
           "where E.dept isnot D or E.salary > 45000.0"),
    ("F8", "retrieve (D.dname) from D in Departments, D2 in Departments "
           "where D.floor = D2.floor and D isnot D2"),
    ("F8", "retrieve (E.name) from E in Employees, D in Departments "
           "where E.dept is D and D.dname = \"Toys\""),
    # F9: expression shapes used by updates (query side)
    ("F9", "retrieve (E.name, E.salary * 1.1) from E in Employees "
           "where E.salary < 55000.0"),
    ("F9", "retrieve (E.name, E.age + 1, E.age - 1, E.age * 2, E.age % 7) "
           "from E in Employees"),
    # F10: ADT function calls (fallback path inside compiled trees)
    ("F10", 'retrieve (E.name) from E in Employees '
            'where Year(E.birthday) < 1950'),
    # F11: EXCESS function calls
    ("F11", "retrieve (E.name, Pay(E)) from E in Employees"),
    ("F11", "retrieve (E.name) from E in Employees where Pay(E) > 45000.0"),
    # membership / semi-joins
    ("F8", "retrieve (E.name) from E in Employees where E in Employees"),
    # sort keys and unique
    ("F5", "retrieve unique (E.dept.dname) from E in Employees "
           "sort by E.dept.dname"),
    ("F5", "retrieve (E.name, E.salary) from E in Employees "
           "sort by E.salary desc, E.name"),
    # boolean connectives (Kleene over real rows)
    ("F6", "retrieve (E.name) from E in Employees "
           "where E.age > 25 and E.salary < 55000.0 or E.name = \"Ann\""),
    ("F6", "retrieve (E.name) from E in Employees where not (E.age > 35)"),
]

NULL_EDGE_QUERIES = [
    # NULL propagation through AttrStep chains (Bob has no birthday)
    "retrieve (E.name, E.birthday) from E in Employees "
    'where E.name = "Bob"',
    "retrieve (E.name) from E in Employees "
    "where Year(E.birthday) > 1900",  # NULL argument → NULL → dropped
    # out-of-range array reads return NULL (slot 9 was never set)
    "retrieve (TopTen[9].name)",
    "retrieve (TopTen[9])",
    # null comparisons are unknown, never true
    "retrieve (E.name) from E in Employees where E.birthday = E.birthday",
    # is null / isnot null
    "retrieve (E.name) from E in Employees where E.dept isnot null",
]


@pytest.fixture(scope="module")
def corpus_db():
    """small_company (module-scoped copy) plus F10/F11 definitions."""
    from tests.conftest import build_small_company

    db = build_small_company()
    db.execute(
        "define function Pay (E in Employee) returns float8 as "
        "retrieve (E.salary)"
    )
    return db


#: the full ablation grid: execution strategy × expression compilation
MODE_MATRIX = [
    (exec_mode, compile_mode)
    for exec_mode in ("fused", "row")
    for compile_mode in ("closure", "off")
]


def all_modes(db: Database, query: str) -> dict[tuple[str, str], list[tuple]]:
    """Row lists per (exec_mode, compile_mode) combination, with the
    session flags restored afterwards."""
    interpreter = db.interpreter
    results = {}
    try:
        for exec_mode, compile_mode in MODE_MATRIX:
            interpreter.exec_mode = exec_mode
            interpreter.compile_mode = compile_mode
            results[(exec_mode, compile_mode)] = db.execute(query).rows
    finally:
        interpreter.exec_mode = "fused"
        interpreter.compile_mode = "closure"
    return results


def _assert_all_agree(results: dict[tuple[str, str], list[tuple]]) -> None:
    baseline = sorted(map(repr, results[("row", "off")]))
    for combo, rows in results.items():
        assert sorted(map(repr, rows)) == baseline, combo


@pytest.mark.parametrize(
    "figure,query", PAPER_QUERIES, ids=[f"{f}-{i}" for i, (f, _q) in enumerate(PAPER_QUERIES)]
)
def test_paper_figure_parity(corpus_db, figure, query):
    _assert_all_agree(all_modes(corpus_db, query))


@pytest.mark.parametrize("query", NULL_EDGE_QUERIES)
def test_null_semantics_parity(corpus_db, query):
    _assert_all_agree(all_modes(corpus_db, query))


def test_out_of_range_read_is_null_in_both_modes(corpus_db):
    for mode in ("closure", "off"):
        corpus_db.interpreter.compile_mode = mode
        assert corpus_db.execute("retrieve (TopTen[9].name)").rows == [(NULL,)]
    corpus_db.interpreter.compile_mode = "closure"


def test_errors_agree_across_modes(corpus_db):
    """Runtime errors must carry the same message in every exec_mode ×
    compile_mode combination."""
    cases = [
        'retrieve (TopTen["x"].name)',
        "retrieve (E.age / (E.age - E.age)) from E in Employees",
        "retrieve (E.age % (E.age - E.age)) from E in Employees",
    ]
    interpreter = corpus_db.interpreter
    for query in cases:
        messages = set()
        try:
            for exec_mode, compile_mode in MODE_MATRIX:
                interpreter.exec_mode = exec_mode
                interpreter.compile_mode = compile_mode
                with pytest.raises(EvaluationError) as excinfo:
                    corpus_db.execute(query)
                messages.add(str(excinfo.value))
        finally:
            interpreter.exec_mode = "fused"
            interpreter.compile_mode = "closure"
        assert len(messages) == 1, messages


def test_update_statements_parity():
    """Updates share the compiled binding pipeline; a full update cycle
    must leave identical databases in both modes."""
    from tests.conftest import build_small_company

    snapshots = []
    for mode in ("closure", "off"):
        db = build_small_company()
        db.interpreter.compile_mode = mode
        db.execute(
            "replace E (salary = E.salary * 1.1) from E in Employees "
            "where E.dept.floor = 2"
        )
        db.execute('delete E from E in Employees where E.name = "Bob"')
        db.execute(
            'append to Departments (dname = "Games", floor = 3, '
            "budget = 5000.0)"
        )
        rows = db.execute(
            "retrieve (E.name, E.salary) from E in Employees "
            "sort by E.name"
        ).rows
        depts = db.execute(
            "retrieve (D.dname) from D in Departments sort by D.dname"
        ).rows
        snapshots.append((rows, depts))
    assert snapshots[0] == snapshots[1]

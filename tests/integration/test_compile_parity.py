"""Compiled ≡ interpreted parity over the paper-figure query corpus.

Every query family the walkthrough exercises (F1–F13) is executed under
every ``exec_mode`` (``fused`` / ``row``) ×
``compile_mode`` (``closure`` / ``off``) combination against the same
database, and must return identical row multisets (or raise the
identical error). This pins the generated expression code and the fused
executor to the recursive row-at-a-time interpreter's semantics on
exactly the queries the paper defines, plus the null-semantics edge
cases where the implementations could plausibly diverge. The corpus
runs on the memory store and on a paged store whose 2-object cache
evicts while a row is evaluated (generated code reads records through
the store's ``record``, the tree-walker through ``ObjectTable.deref``).
"""

from __future__ import annotations

import pytest

from repro import Database
from repro.core.values import NULL
from repro.errors import AuthorizationError, EvaluationError

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

#: node kinds that lower inline or as a single callback: array index,
#: enum ordering, function calls, ADT calls, ``in``, correlated
#: aggregates — in targets, filters and join predicates
LOWERED_KIND_QUERIES = [
    # array index: the last slot, unset slots, both ends out of range,
    # a computed index (Sue 2, Bob 1, Ann 3)
    "retrieve (TopTen[1].name, TopTen[2].name, TopTen[3].name)",
    "retrieve (TopTen[10].name, TopTen[11], TopTen[0], TopTen[-1])",
    "retrieve (E.name, TopTen[E.age / 10 - 2].name) from E in Employees",
    "retrieve (E.name) from E in Employees where TopTen[1] is E",
    "retrieve (E.name) from E in Employees where TopTen[10].age < E.age",
    # enum ordering by declaration order, against constants and values
    'retrieve (J.title) from J in Jobs where J.grade > "low"',
    'retrieve (J.title, J.grade) from J in Jobs where J.grade <= "mid"',
    'retrieve (J.title) from J in Jobs where J.grade = "high"',
    "retrieve (J.title, K.title) from J in Jobs, K in Jobs "
    "where J.grade < K.grade",
    'retrieve (J.title) from J in Jobs where J.title = "high" '
    "and J.grade >= J.title",
    # an inlined body, a body that iterates, both with null arguments
    "retrieve (E.name, Pay(E) + 1.0) from E in Employees",
    "retrieve (E.name, Mates(E)) from E in Employees",
    "retrieve (K.name, Pay(K)) from E in Employees, K in E.kids",
    "retrieve (Pay(StarEmployee), Pay(TopTen[3]))",
    # ADT calls, membership, correlated aggregates
    "retrieve (E.name, Year(E.birthday) + 1) from E in Employees",
    "retrieve (E.name) from E in Employees where E.dept in Departments",
    "retrieve (E.name) from E in Employees "
    "where E.dept in Departments and E.age > 35",
    "retrieve (E.name, c = count(E.kids where E.kids.age > 8)) "
    "from E in Employees",
    "retrieve (E.name) from E in Employees where count(E.kids) > 0",
]

#: runtime errors each node kind raises: a non-integer index, a value
#: that is not a label of the enumeration, unbounded recursion
LOWERED_KIND_ERRORS = [
    "retrieve (TopTen[1.5].name)",
    "retrieve (E.name, TopTen[E.salary].name) from E in Employees",
    "retrieve (J.title) from J in Jobs where J.grade > J.title",
    "retrieve (Loop(E)) from E in Employees",
]

#: a paged store whose cache holds two objects
STORES = {"memory": {}, "paged-tiny-cache": {"storage": "paged", "cache_capacity": 2}}


def extend_corpus(db: Database) -> Database:
    """The F10/F11 definitions plus what :data:`LOWERED_KIND_QUERIES`
    reads: a full ``TopTen`` tail slot, functions, enum-graded jobs."""
    db.execute(
        "define function Pay (E in Person) returns float8 as "
        "retrieve (E.age * 1000.0)"
    )
    db.execute(
        "define function Pay (E in Employee) returns float8 as "
        "retrieve (E.salary)"
    )
    db.execute(
        "define function Mates (E in Employee) returns {text} as "
        "retrieve (C.name) from C in Employees where C.dept is E.dept"
    )
    db.execute(
        "define function Loop (E in Employee) returns float8 as "
        "retrieve (Loop(E))"
    )
    db.execute('set TopTen[10] = E from E in Employees where E.name = "Bob"')
    db.execute(
        "define type Job as (title: char(10), grade: enum (low, mid, high)) "
        "create {own ref Job} Jobs"
    )
    for title, grade in [("a", "low"), ("high", "high"), ("c", "mid")]:
        db.insert("Jobs", title=title, grade=grade)
    return db


@pytest.fixture(scope="module", params=list(STORES))
def corpus_db(request):
    """small_company (module-scoped copy, on each store) plus the
    definitions of :func:`extend_corpus`."""
    from tests.conftest import build_small_company

    return extend_corpus(build_small_company(**STORES[request.param]))


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


@pytest.mark.parametrize("query", LOWERED_KIND_QUERIES)
def test_lowered_kind_parity(corpus_db, query):
    _assert_all_agree(all_modes(corpus_db, query))


def test_array_tail_and_computed_index_values(corpus_db):
    """The parity above is not vacuous: the last slot and a computed
    index read real objects."""
    for combo, rows in all_modes(corpus_db, LOWERED_KIND_QUERIES[1]).items():
        assert rows == [("Bob", NULL, NULL, NULL)], combo
    for combo, rows in all_modes(corpus_db, LOWERED_KIND_QUERIES[2]).items():
        assert sorted(rows) == [("Ann", NULL), ("Bob", "Ann"), ("Sue", "Sue")], combo


@pytest.mark.parametrize("query", LOWERED_KIND_ERRORS)
def test_lowered_kind_errors_agree(corpus_db, query):
    messages = set()
    interpreter = corpus_db.interpreter
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


def test_revoked_execute_agrees(corpus_db):
    """A revoked EXECUTE stops an inlined body and an iterating one with
    the same error in every mode; the grant makes both run again."""
    db = corpus_db
    db.authz.enabled = True
    try:
        db.execute("create user clerk")
        db.execute("grant select on Employees to clerk")
        session = db.session("clerk")
        queries = [
            "retrieve (E.name, Pay(E)) from E in Employees",
            'retrieve (E.name) from E in Employees where Pay(E) > 45000.0',
            "retrieve (E.name, Mates(E)) from E in Employees",
        ]
        for grant in ("grant", "revoke", "grant"):
            for function in ("Pay", "Mates"):
                to = "from" if grant == "revoke" else "to"
                db.execute(f"{grant} execute on {function} {to} clerk")
            for query in queries:
                outcomes = set()
                for exec_mode, compile_mode in MODE_MATRIX:
                    db.interpreter.exec_mode = exec_mode
                    db.interpreter.compile_mode = compile_mode
                    try:
                        outcomes.add(repr(sorted(session.execute(query).rows)))
                    except AuthorizationError as exc:
                        outcomes.add(str(exc))
                assert len(outcomes) == 1, (grant, query, outcomes)
                assert ("lacks 'execute'" in outcomes.pop()) == (grant == "revoke")
    finally:
        db.authz.enabled = False
        db.interpreter.exec_mode = "fused"
        db.interpreter.compile_mode = "closure"


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


#: write payloads holding each lowered node kind
PAYLOAD_UPDATES = [
    "replace E (age = E.age + count(E.kids)) from E in Employees "
    "where E.dept in Departments",
    "replace E (salary = Pay(E) + TopTen[1].salary / 100.0) "
    "from E in Employees where E.age > 35",
    "replace K (age = K.age + TopTen[K.age - 9].age) "
    "from E in Employees, K in E.kids where K.age > 9",
    "replace E (age = Year(E.birthday) - 1900) from E in Employees "
    "where E.birthday isnot null",
    'replace J (title = "up") from J in Jobs where J.grade > "low"',
    'append to Jobs (title = TopTen[10].name, grade = "mid")',
    "set TopTen[3] = E from E in Employees where E.age = TopTen[1].age",
]


@pytest.mark.parametrize("store", list(STORES))
def test_write_payload_parity(store):
    """Payloads are generated code under ``closure``: every mode leaves
    the same database."""
    from tests.conftest import build_small_company

    states = {}
    for exec_mode, compile_mode in MODE_MATRIX:
        db = extend_corpus(build_small_company(**STORES[store]))
        db.interpreter.exec_mode = exec_mode
        db.interpreter.compile_mode = compile_mode
        for statement in PAYLOAD_UPDATES:
            db.execute(statement)
        states[exec_mode, compile_mode] = [
            sorted(db.execute(query).rows, key=repr)
            for query in (
                "retrieve (E.name, E.age, E.salary) from E in Employees",
                "retrieve (K.name, K.age) from E in Employees, K in E.kids",
                "retrieve (J.title, J.grade) from J in Jobs",
                "retrieve (TopTen[3].name)",
            )
        ]
    baseline = states["row", "off"]
    assert baseline[2].count(("up", "mid")) == 1  # the payloads did run
    for combo, state in states.items():
        assert state == baseline, combo


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


def test_explain_generates_no_function(monkeypatch):
    """EXPLAIN reads each operator's ``compiled=`` label off the
    lowering: rendering the corpus's plans in every mode generates and
    ``exec``s no function."""
    from repro.excess import compile as compile_module
    from tests.conftest import build_small_company

    db = extend_corpus(build_small_company())
    db.interpreter.parallel_mode = "off"
    defined = []
    original = compile_module._define

    def spy(source, ns, filename):
        defined.append(filename)
        original(source, ns, filename)

    monkeypatch.setattr(compile_module, "_define", spy)
    interpreter = db.interpreter
    corpus = [query for _figure, query in PAPER_QUERIES]
    corpus += NULL_EDGE_QUERIES + LOWERED_KIND_QUERIES
    rendered = 0
    try:
        for exec_mode, compile_mode in MODE_MATRIX:
            interpreter.exec_mode = exec_mode
            interpreter.compile_mode = compile_mode
            for query in corpus:
                tree = db.execute("explain " + query).plan_tree
                rendered += tree is not None and "compiled=" in tree
    finally:
        interpreter.exec_mode = "fused"
        interpreter.compile_mode = "closure"
    assert rendered
    assert defined == []

"""Property-based tests of engine equivalences:

* optimized and unoptimized execution return the same rows;
* cost-based and heuristic join orders return the same rows;
* indexed and unindexed execution return the same rows;
* the memory and paged stores answer identically;
* compiled-closure and interpreted expression execution agree;
* fused and row-at-a-time execution agree, including on the aggregate,
  nested-path and hash-join-probe regions the fused executor compiles.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.util.workload import CompanyWorkload, build_company_database

ages = st.integers(min_value=20, max_value=66)
salaries = st.sampled_from([20000.0, 40000.0, 60000.0, 80000.0, 100000.0])
operators = st.sampled_from(["=", "<", "<=", ">", ">="])


@st.composite
def predicates(draw):
    attribute = draw(st.sampled_from(["age", "salary"]))
    op = draw(operators)
    value = draw(ages) if attribute == "age" else draw(salaries)
    return f"E.{attribute} {op} {value}"


@st.composite
def equi_join_queries(draw):
    """Random two-binding equi-join retrieves (value or object joins),
    optionally with an extra single-variable filter on either side."""
    join = draw(
        st.sampled_from(
            [
                "E.age = M.age",
                "E.salary = M.salary",
                "E.dept is M.dept",
                "E.dept is D",
            ]
        )
    )
    second = "D in Departments" if "is D" in join else "M in Employees"
    where = join
    if draw(st.booleans()):
        where += f" and {draw(predicates())}"
    other_var = "D" if "is D" in join else "M"
    targets = f"E.name, {other_var}.name" if other_var == "M" else "E.name, D.dname"
    return (
        f"retrieve ({targets}) from E in Employees, {second} where {where}"
    )


@pytest.fixture(scope="module")
def analyzed_company():
    """An indexed + analyzed database, so the cost model runs with real
    statistics (not just the System R defaults)."""
    db = build_company_database(
        CompanyWorkload(departments=4, employees=40, seed=21)
    )
    db.execute("create index on Employees (age) using btree")
    db.execute("create index on Employees (salary) using hash")
    db.execute("analyze")
    return db


@pytest.fixture(scope="module")
def company_pair():
    memory = build_company_database(
        CompanyWorkload(departments=4, employees=40, seed=21)
    )
    paged = build_company_database(
        CompanyWorkload(departments=4, employees=40, seed=21, storage="paged")
    )
    memory.execute("create index on Employees (age) using btree")
    memory.execute("create index on Employees (salary) using hash")
    return memory, paged


class TestEquivalences:
    @given(predicate=predicates())
    @settings(max_examples=40, deadline=None)
    def test_optimizer_on_off_equivalent(self, company_pair, predicate):
        memory, _paged = company_pair
        query = (
            f"retrieve (E.name, E.salary) from E in Employees "
            f"where {predicate}"
        )
        on = memory.execute(query).rows
        memory.interpreter.optimize = False
        try:
            off = memory.execute(query).rows
        finally:
            memory.interpreter.optimize = True
        assert sorted(on) == sorted(off)

    @given(predicate=predicates())
    @settings(max_examples=40, deadline=None)
    def test_memory_and_paged_equivalent(self, company_pair, predicate):
        memory, paged = company_pair
        query = f"retrieve (E.name) from E in Employees where {predicate}"
        assert sorted(memory.execute(query).rows) == sorted(
            paged.execute(query).rows
        )

    @given(
        predicate=predicates(),
        conjunct=predicates(),
    )
    @settings(max_examples=30, deadline=None)
    def test_conjunction_order_irrelevant(self, company_pair, predicate, conjunct):
        memory, _ = company_pair
        a = memory.execute(
            f"retrieve (E.name) from E in Employees "
            f"where {predicate} and {conjunct}"
        ).rows
        b = memory.execute(
            f"retrieve (E.name) from E in Employees "
            f"where {conjunct} and {predicate}"
        ).rows
        assert sorted(a) == sorted(b)

    @given(query=equi_join_queries())
    @settings(max_examples=30, deadline=None)
    def test_join_strategies_equivalent(self, company_pair, query):
        """Hash-join, nested-loop, and optimizer-off plans must return
        identical row multisets for random equi-join queries."""
        memory, _paged = company_pair
        interpreter = memory.interpreter
        try:
            hash_rows = memory.execute(query).rows
            interpreter.hash_joins = False
            loop_rows = memory.execute(query).rows
            interpreter.optimize = False
            off_rows = memory.execute(query).rows
        finally:
            interpreter.optimize = True
            interpreter.hash_joins = True
        assert sorted(hash_rows) == sorted(loop_rows) == sorted(off_rows)

    @given(query=equi_join_queries())
    @settings(max_examples=30, deadline=None)
    def test_cost_based_heuristic_and_off_equivalent(
        self, analyzed_company, query
    ):
        """Cost-based ordering, the heuristic order, and the optimizer
        turned off must return identical row multisets on an analyzed
        database — the cost model may only change join order/strategy,
        never results."""
        db = analyzed_company
        interpreter = db.interpreter
        try:
            cost_rows = db.execute(query).rows
            interpreter.cost_based = False
            heuristic_rows = db.execute(query).rows
            interpreter.optimize = False
            off_rows = db.execute(query).rows
        finally:
            interpreter.optimize = True
            interpreter.cost_based = True
        assert (
            sorted(cost_rows) == sorted(heuristic_rows) == sorted(off_rows)
        )

    @given(predicate=predicates())
    @settings(max_examples=40, deadline=None)
    def test_compiled_and_interpreted_equivalent(self, company_pair, predicate):
        """compile_mode="closure" and "off" must return identical rows
        for random single-variable predicates (the Filter/Project hot
        path runs compiled closures in one mode, the recursive
        interpreter in the other)."""
        memory, _paged = company_pair
        interpreter = memory.interpreter
        query = (
            f"retrieve (E.name, E.salary) from E in Employees "
            f"where {predicate}"
        )
        compiled = memory.execute(query).rows
        interpreter.compile_mode = "off"
        try:
            interpreted = memory.execute(query).rows
        finally:
            interpreter.compile_mode = "closure"
        assert sorted(compiled) == sorted(interpreted)

    @given(query=equi_join_queries())
    @settings(max_examples=30, deadline=None)
    def test_compiled_joins_equivalent(self, analyzed_company, query):
        """Compiled key extraction in hash joins (and compiled residual
        filters) must not change any join's result multiset."""
        db = analyzed_company
        interpreter = db.interpreter
        compiled = db.execute(query).rows
        interpreter.compile_mode = "off"
        try:
            interpreted = db.execute(query).rows
        finally:
            interpreter.compile_mode = "closure"
        assert sorted(compiled) == sorted(interpreted)

    @given(predicate=predicates(), budget=st.sampled_from([0, 1, 4096]))
    @settings(max_examples=40, deadline=None)
    def test_exec_modes_equivalent(self, company_pair, predicate, budget):
        """fused / row execution must return identical rows for random
        single-variable predicates, sorted under memory budgets that
        spill every row, some rows or none."""
        memory, _paged = company_pair
        interpreter = memory.interpreter
        query = (
            f"retrieve (E.name, E.salary) from E in Employees "
            f"where {predicate} sort by E.salary desc"
        )
        rows = {}
        try:
            interpreter.memory_budget = budget
            for mode in ("fused", "row"):
                interpreter.exec_mode = mode
                rows[mode] = memory.execute(query).rows
        finally:
            interpreter.exec_mode = "fused"
            interpreter.memory_budget = 0
        assert rows["fused"] == rows["row"]

    @given(query=equi_join_queries())
    @settings(max_examples=30, deadline=None)
    def test_exec_mode_joins_equivalent(self, analyzed_company, query):
        """The fused hash-join probe (and fused scan regions feeding the
        join) must not change any join's result multiset."""
        db = analyzed_company
        interpreter = db.interpreter
        fused = db.execute(query).rows
        try:
            interpreter.exec_mode = "row"
            row = sorted(db.execute(query).rows)
        finally:
            interpreter.exec_mode = "fused"
        assert sorted(fused) == row

    @given(predicate=predicates())
    @settings(max_examples=30, deadline=None)
    def test_index_scan_equals_full_scan(self, company_pair, predicate):
        """The indexed database must agree with a fresh unindexed twin."""
        memory, paged = company_pair
        # paged twin has no indexes: it IS the full-scan baseline
        query = f"retrieve (E.name) from E in Employees where {predicate}"
        indexed = memory.execute(query)
        unindexed = paged.execute(query)
        assert sorted(indexed.rows) == sorted(unindexed.rows)


@st.composite
def parallel_queries(draw):
    """Random single-variable retrieves for the parallel sweep: plain or
    error-prone targets, optionally sorted (order must survive the
    exchange round-trip byte-identically), over ``Employees`` or over
    ``Crew``, a reference set holding dead members."""
    if draw(st.booleans()):
        op = draw(operators)
        age = draw(st.integers(min_value=0, max_value=66))
        order = draw(st.sampled_from(["", " sort by C.age desc", " sort by C.name"]))
        return f"retrieve (C.name, C.age) from C in Crew where C.age {op} {age}{order}"
    predicate = draw(predicates())
    if draw(st.booleans()):
        targets = f"E.name, E.salary / (E.age - {draw(ages)})"
    else:
        targets = "E.name, E.salary"
    order = draw(
        st.sampled_from(["", " sort by E.salary desc", " sort by E.name"])
    )
    return (
        f"retrieve ({targets}) from E in Employees where {predicate}{order}"
    )


@pytest.fixture(scope="module")
def parallel_company():
    """A 2-worker database whose partition threshold is lowered so even
    the 40-row test sets produce dop=2 parallel plans. ``Crew`` holds
    every employee and kid; deleting the oldest employees leaves their
    cascaded kids dead members of it, which a range partition must
    slice exactly as the serial scan skips them."""
    import repro.core.statistics as statistics

    saved = statistics.PARALLEL_MIN_PARTITION_ROWS
    statistics.PARALLEL_MIN_PARTITION_ROWS = 1
    db = build_company_database(
        CompanyWorkload(departments=4, employees=40, seed=21)
    )
    db.execute("create {ref Person} Crew")
    db.execute("append to Crew (E) from E in Employees")
    db.execute("append to Crew (K) from E in Employees, K in E.kids")
    db.execute("delete E from E in Employees where E.age > 55")
    crew = db.named("Crew").value
    assert len(crew.live_members(db.store.live)) < len(crew)
    db.interpreter.workers = 2
    yield db
    statistics.PARALLEL_MIN_PARTITION_ROWS = saved
    db.interpreter.shutdown_parallel()


def _outcome(db, query):
    """(rows, error message) — the full observable result of a query."""
    from repro.errors import EvaluationError

    try:
        return db.execute(query).rows, None
    except EvaluationError as exc:
        return None, str(exc)


class TestParallelEquivalence:
    @given(
        query=parallel_queries(),
        exec_mode=st.sampled_from(["fused", "row"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_parallel_on_off_equivalent(self, parallel_company, query, exec_mode):
        """parallel_mode on/off × exec_mode must be byte-identical:
        same rows, same order, same error message if any."""
        db = parallel_company
        interpreter = db.interpreter
        try:
            interpreter.exec_mode = exec_mode
            interpreter.parallel_mode = "off"
            serial = _outcome(db, query)
            interpreter.parallel_mode = "process"
            parallel = _outcome(db, query)
        finally:
            interpreter.exec_mode = "fused"
            interpreter.parallel_mode = "process"
        assert parallel == serial

    @given(query=equi_join_queries())
    @settings(max_examples=25, deadline=None)
    def test_parallel_joins_equivalent(self, parallel_company, query):
        """Broadcast and repartitioned joins return exactly the serial
        rows (order included — the merge restores it)."""
        db = parallel_company
        interpreter = db.interpreter
        try:
            interpreter.parallel_mode = "off"
            serial = _outcome(db, query)
            interpreter.parallel_mode = "process"
            parallel = _outcome(db, query)
        finally:
            interpreter.parallel_mode = "process"
        assert parallel == serial


# ---------------------------------------------------------------------------
# fused ≡ row over the aggregate and nested-path regions
# ---------------------------------------------------------------------------

NESTED_SCHEMA = """
define type Stop as (place: char(20), minute: int4)
define type Dept as (dname: char(20), floor: int4)
define type Person as (name: char(20), age: int4, kids: {own ref Person})
define type Emp as (salary: float8, dept: ref Dept, boss: ref Emp,
                    stops: [] own Stop, pals: {ref Emp},
                    grade: enum (low, mid, high)) inherits Person
create {own ref Dept} Depts
create {own ref Emp} Emps
create {ref Person} Crew
create {own Stop} Places
"""

#: (age, salary or None for null, dept index, kid ages, stop minutes,
#: boss index or None); an int salary is stored in the ``float8`` slot
employee_rows = st.lists(
    st.tuples(
        st.integers(min_value=20, max_value=66),
        st.one_of(st.none(), st.sampled_from([10.0, 20.0, 30.0, 20])),
        st.integers(min_value=0, max_value=3),
        st.lists(st.integers(min_value=1, max_value=18), max_size=3),
        st.lists(st.integers(min_value=0, max_value=60), max_size=3),
        st.one_of(st.none(), st.integers(min_value=0, max_value=7)),
    ),
    max_size=8,
)


@st.composite
def nested_companies(draw):
    """``(departments, deleted departments, employees, deleted
    employees)``: deleting a department leaves its employees' ``dept``
    dangling (a null ``over`` key); deleting an employee leaves ``boss``
    references dangling (a path step that yields no rows), a dead member
    in the ``pals`` sets naming it, and its cascaded kids dead members
    of the named ``{ref Person}`` set ``Crew`` (a deleted object leaves
    every named set, but its owned components do not)."""
    departments = draw(st.integers(min_value=1, max_value=4))
    deleted = draw(st.sets(st.integers(0, departments - 1), max_size=2))
    employees = draw(employee_rows)
    fired = draw(st.sets(st.integers(0, 7), max_size=2))
    return departments, deleted, employees, fired


class Flag:
    """The ADT owning ``adult``: an untyped ADT function is the one way a
    boolean meets an ``int4`` in a comparison the binder accepts."""


def build_nested_company(spec, store="memory"):
    """The nested company of ``spec`` on the memory store, or on a paged
    store whose object cache is smaller than the data (so record
    lookups fault objects back in)."""
    from repro import Database
    from repro.core.types import INT4

    departments, deleted, employees, fired = spec
    if store == "paged":
        db = Database(storage="paged", cache_capacity=4)
    else:
        db = Database()
    db.interpreter.parallel_mode = "off"
    db.execute(NESTED_SCHEMA)
    db.catalog.adts.define_adt("Flag", Flag)
    db.catalog.adts.define_function(
        "Flag", "adult", lambda age: age > 40, [INT4], None
    )
    depts = [
        db.insert("Depts", dname=f"D{d}", floor=d % 2) for d in range(departments)
    ]
    emps = []
    for n, (age, salary, dept, kids, stops, boss) in enumerate(employees):
        fields = {
            "name": f"E{n}",
            "age": age,
            "dept": depts[dept % departments],
            "kids": [{"name": f"E{n}k{k}", "age": a} for k, a in enumerate(kids)],
            "stops": [{"place": f"s{m}", "minute": m} for m in stops],
        }
        if salary is not None:
            fields["salary"] = salary
        if n % 4:
            fields["grade"] = ("low", "mid", "high")[n % 3]
        if boss is not None and boss < len(emps):
            fields["boss"] = emps[boss]
            fields["pals"] = [emps[boss], emps[0]]
        emps.append(db.insert("Emps", **fields))
        for m in stops:
            db.execute(f'append to Places (place = "s{m % 7}", minute = {m})')
    db.execute("append to Crew (E) from E in Emps")
    db.execute("append to Crew (K) from E in Emps, K in E.kids")
    for d in sorted(deleted):
        db.execute(f'delete D from D in Depts where D.dname = "D{d}"')
    for n in sorted(fired):
        db.execute(f'delete E from E in Emps where E.name = "E{n}"')
    return db


@st.composite
def region_queries(draw):
    """Queries whose plans fuse a nested path loop, an aggregate sink,
    or a Project over an Aggregate (plus a correlated aggregate, which
    stays a callback inside a fused region)."""
    age = draw(st.integers(min_value=0, max_value=20))
    minute = draw(st.integers(min_value=0, max_value=60))
    cut = draw(st.integers(min_value=20, max_value=70))
    return draw(
        st.sampled_from(
            [
                f"retrieve (E.name, K.name) from E in Emps, K in E.kids "
                f"where K.age > {age}",
                f"retrieve (E.name, K.age) from E in Emps, K in E.kids "
                f"where K.age < E.age - {cut} sort by K.age desc, E.name",
                f"retrieve (E.name, S.minute) from E in Emps, S in E.stops "
                f"where S.minute >= {minute}",
                f"retrieve (E.name, B.name) from E in Emps, B in E.boss.kids",
                f"retrieve (E.name, K.age / (K.age - {age})) "
                f"from E in Emps, K in E.kids",
                "retrieve unique (E.dept.dname, a = avg(E.salary over E.dept)) "
                "from E in Emps",
                f"retrieve (E.name, n = count(E.name over E.dept), "
                f"s = sum(E.salary over E.dept)) from E in Emps "
                f"where E.age > {cut}",
                f"retrieve (c = count(E.name where E.age > {cut}), "
                f"s = sum(E.salary where E.age > {cut}), m = max(E.salary)) "
                f"from E in Emps",
                f"retrieve (E.name) from E in Emps "
                f"where E.salary >= avg(E.salary where E.age > {cut})",
                "retrieve (E.name, c = count(E.kids)) from E in Emps",
                # an attribute read before an aggregate that only a
                # callback evaluates, then read again by another target
                "retrieve (a = E.age + count(E.kids), b = E.age) from E in Emps",
                f"retrieve (E.name, E.age, K.age) from E in Emps, K in E.kids "
                f"where K.age + count(E.kids) > {age}",
                # reference sets holding dead members (typed loops skip
                # them), and a value set (the generic loop)
                f"retrieve (C.name, C.age) from C in Crew where C.age > {age}",
                "retrieve (C.name, K.name) from C in Crew, K in C.kids",
                "retrieve (C) from C in Crew",
                "retrieve unique (C.age, n = count(C.name over C.age)) "
                "from C in Crew",
                f"retrieve (E.name, P.name, P.dept.floor) from E in Emps, "
                f"P in E.pals where P.age > {cut - 20}",
                "retrieve (E.name, P) from E in Emps, P in E.pals",
                # a ref read as a value: a dangling one reads as null
                "retrieve (E.name, E.boss, E.dept) from E in Emps",
                f"retrieve (P.place, P.minute) from P in Places "
                f"where P.minute >= {minute}",
                "retrieve (m = max(P.minute), c = count(P.place)) "
                "from P in Places",
            ]
        )
    )


@st.composite
def hash_join_queries(draw):
    """Queries whose plans fuse a hash-join probe: value ``=`` and object
    ``is`` joins with outer filters, null keys on both sides (null
    salaries; a deleted department leaves ``dept`` dangling, and
    ``null is null``), duplicate build keys (three salaries, two
    floors), a mid-row error read through the build member, a path loop
    and a partition aggregate over the join, and a boolean compared with
    an ``int4`` (never equal)."""
    cut = draw(st.integers(min_value=20, max_value=66))
    floor = draw(st.integers(min_value=0, max_value=1))
    return draw(
        st.sampled_from(
            [
                f"retrieve (E.name, D.dname) from E in Emps, D in Depts "
                f"where E.dept is D and D.floor = {floor}",
                f"retrieve (E.name, D.dname) from E in Emps, D in Depts "
                f"where E.dept is D and E.age > {cut}",
                f"retrieve (E.name, F.name, F.age) from E in Emps, F in Emps "
                f"where E.salary = F.salary and E.age > {cut}",
                "retrieve (E.name, F.name) from E in Emps, F in Emps "
                "where E.salary != F.salary and E.dept is F.dept",
                "retrieve (E.name, D.dname) from E in Emps, D in Depts "
                "where E.age % 2 = D.floor",
                "retrieve (E.name, B.name) from E in Emps, B in Emps "
                "where E.boss is B",
                "retrieve (E.name, D.floor / (D.floor - 1)) "
                "from E in Emps, D in Depts where E.dept is D",
                "retrieve (E.name, D.dname, K.name) from E in Emps, "
                f"D in Depts, K in E.kids where E.dept is D and K.age > {cut - 20}",
                "retrieve unique (D.dname, n = count(E.name over D.dname)) "
                "from E in Emps, D in Depts where E.dept is D",
                f"retrieve (E.name, D.dname) from E in Emps, D in Depts "
                f"where E.dept is D and E.age < {cut} sort by E.name desc",
                "retrieve (E.name, F.name) from E in Emps, F in Emps "
                "where adult(E.age) = F.age % 2",
                "retrieve (E.name, F.name) from E in Emps, F in Emps "
                "where adult(E.age) = adult(F.age)",
                "retrieve (C.name, E.name) from C in Crew, E in Emps "
                "where C.name = E.name",
                "retrieve (E.name, P.name, D.dname) from E in Emps, "
                "P in E.pals, D in Depts where P.dept is D",
            ]
        )
    )


@st.composite
def typed_queries(draw):
    """Query templates whose fused code is specialised on static types,
    with ``{op}`` and ``{age}`` left for the test to fill: every
    comparison operator against an ``int4`` value the data holds (and a
    float, string or ``float8`` literal) so ties occur, null salaries,
    ints stored in the ``float8`` slot, a dangling ``dept`` read through,
    arithmetic operands, global aggregates that share a pass beside one
    with its own ``where``, ``over`` keys that are references (dangling
    ones among them), ``unique`` over char and float columns holding
    nulls, ``is`` joins whose build or probe set holds dead members, and
    enum and ADT-function values, which keep the generic path."""
    salary = draw(st.sampled_from(["20", "20.0", "15.5", "30"]))
    name = draw(st.sampled_from(['"E1"', '"E1k0"', '"E"', '"zz"']))
    floor = draw(st.integers(min_value=0, max_value=1))
    return draw(
        st.sampled_from(
            [
                "retrieve (E.name) from E in Emps where E.age {op} {age}",
                "retrieve (E.name) from E in Emps where E.age {op} {age}.5",
                "retrieve (E.name) from E in Emps where {age} {op} E.age",
                "retrieve (E.name, E.salary) from E in Emps "
                "where E.salary {op} " + salary,
                "retrieve (K.name) from E in Emps, K in E.kids "
                "where K.name {op} " + name,
                "retrieve (E.name, K.age) from E in Emps, K in E.kids "
                "where K.age * 2 {op} E.age - {age} + 30",
                "retrieve (E.name) from E in Emps where -E.age {op} -{age}",
                "retrieve (E.name, E.dept.dname) from E in Emps "
                "where E.dept.floor {op} " + str(floor),
                "retrieve (a = avg(E.salary), m = max(E.salary), "
                "c = count(E.name where E.age {op} {age})) from E in Emps",
                "retrieve (E.name, n = count(E.name over E.dept), "
                "d = E.dept.dname) from E in Emps where E.age {op} {age}",
                "retrieve unique (E.dept.dname, E.dept, "
                "s = sum(E.salary over E.dept)) from E in Emps",
                "retrieve unique (b = E.boss, n = count(E.name over E.boss)) "
                "from E in Emps where E.age {op} {age}",
                "retrieve unique (E.salary) from E in Emps where E.age {op} {age}",
                "retrieve unique (E.dept.dname, E.salary) from E in Emps",
                "retrieve (E.name, C.name) from E in Emps, C in Crew "
                "where E.boss is C",
                # the filter makes Crew, with its dead members, the build
                "retrieve (E.name, C.name) from E in Emps, C in Crew "
                "where E.boss is C and C.age {op} {age}",
                "retrieve (E.name, C.name) from E in Emps, C in Crew "
                "where E.name = C.name and C.age {op} {age}",
                "retrieve (E.name) from E in Emps where adult(E.age) = true",
                'retrieve (E.name) from E in Emps where E.grade {op} "mid"',
                "retrieve unique (E.grade) from E in Emps",
                "retrieve unique (a = adult(E.age)) from E in Emps",
            ]
        )
    )


def _observed(db, query):
    """Everything fused and row execution must agree on: rows (as a
    multiset unless the query sorts), the error message, rows scanned,
    and every operator's ``rows=`` (and a hash join's ``builds=`` and
    ``probes=``)."""
    import re

    from repro.errors import EvaluationError

    try:
        result = db.execute(query)
    except EvaluationError as exc:
        return ("error", str(exc))
    rows = result.rows if "sort by" in query else sorted(result.rows, key=repr)
    return (
        "ok",
        rows,
        result.metrics["rows_scanned"],
        re.findall(r"(?:rows|builds|probes)=\d+", result.plan_tree),
    )


stores = st.sampled_from(["memory", "paged"])


class TestFusedRegionEquivalence:
    @given(
        spec=nested_companies(),
        query=region_queries(),
        compile_mode=st.sampled_from(["closure", "off"]),
        store=stores,
    )
    @settings(max_examples=80, deadline=None)
    def test_fused_equals_row(self, spec, query, compile_mode, store):
        db = build_nested_company(spec, store)
        interpreter = db.interpreter
        interpreter.exec_mode = "row"
        row = _observed(db, query)
        interpreter.exec_mode = "fused"
        interpreter.compile_mode = compile_mode
        assert _observed(db, query) == row

    @given(
        spec=nested_companies(),
        query=hash_join_queries(),
        compile_mode=st.sampled_from(["closure", "off"]),
        store=stores,
    )
    @settings(max_examples=80, deadline=None)
    def test_fused_hash_join_equals_row(self, spec, query, compile_mode, store):
        db = build_nested_company(spec, store)
        interpreter = db.interpreter
        interpreter.exec_mode = "row"
        interpreter.compile_mode = compile_mode
        row = _observed(db, query)
        interpreter.exec_mode = "fused"
        assert _observed(db, query) == row
        # the plan is unchanged by a nested-loop rerun: hash keys agree
        # with value_equal (a boolean never equals 1 or 0)
        interpreter.hash_joins = False
        interpreter.exec_mode = "row"
        nested = _observed(db, query)
        assert nested[:2] == row[:2]

    @given(
        spec=nested_companies(),
        template=typed_queries(),
        pick=st.integers(min_value=0, max_value=7),
        compile_mode=st.sampled_from(["closure", "off"]),
        store=stores,
    )
    @settings(max_examples=80, deadline=None)
    def test_typed_value_code_equals_row(self, spec, template, pick, compile_mode, store):
        """Every comparison operator, against an age the data holds."""
        db = build_nested_company(spec, store)
        employees = spec[2]
        age = employees[pick % len(employees)][0] if employees else 40
        interpreter = db.interpreter
        interpreter.compile_mode = compile_mode
        for op in ("=", "!=", "<", "<=", ">", ">="):
            query = template.format(op=op, age=age)
            interpreter.exec_mode = "row"
            row = _observed(db, query)
            interpreter.exec_mode = "fused"
            assert _observed(db, query) == row, query

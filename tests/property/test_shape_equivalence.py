"""Property: the shape-keyed plan cache is invisible.

Random statement shapes × random literal sequences run through one warm
database (plans re-used across literals) and through a twin whose plan
cache is disabled (every text planned cold, with its own literals).
Rows and their order, counts, messages, errors and the final logical
state must agree, across ``exec_mode`` × ``compile_mode`` — and, for
reads at a scale that lowers to exchange operators, across
``parallel_mode`` with the pool replaced by an in-process stand-in that
caches revived fragments per (worker, key) exactly as pool workers do.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExtraError
from repro.excess.parallel import (
    ParallelRunner,
    run_aggregate_task,
    run_fragment_task,
)
from repro.util.statedump import canonical_state
from repro.util.workload import CompanyWorkload, build_company_database

SMALL = CompanyWorkload(departments=3, employees=18, max_kids=2, seed=42)

# ---------------------------------------------------------------------------
# Literals
# ---------------------------------------------------------------------------

names = st.one_of(
    st.sampled_from([SMALL.name_of(i) for i in range(18)]),
    st.sampled_from(["gen1", "gen2", "gen3", "Nobody", 'O"Brien', "it's", "a\\b"]),
)
dept_names = st.sampled_from([SMALL.dept_name_of(i) for i in range(3)] + ["Nowhere"])
ages = st.integers(min_value=-3, max_value=70)
small_ints = st.integers(min_value=0, max_value=4)
salaries = st.one_of(
    st.sampled_from([20000.0, 50000.0, 99000.5, 1e5, 0.5]),
    st.integers(min_value=10, max_value=110).map(lambda k: k * 1000.0),
)


def quoted(value: str, single: bool) -> str:
    quote = "'" if single else '"'
    body = value.replace("\\", "\\\\").replace(quote, "\\" + quote)
    return f"{quote}{body}{quote}"


strings = st.builds(quoted, names, st.booleans())
dept_strings = st.builds(quoted, dept_names, st.booleans())

# ---------------------------------------------------------------------------
# Statement shapes: (template, hole strategies)
# ---------------------------------------------------------------------------

READS = [
    ("retrieve (E.name, E.salary, E.dept.dname) from E in Employees "
     "where E.name = {}", [strings]),
    ("retrieve (E.name, E.age) from E in Employees where E.salary >= {} "
     "sort by E.name", [salaries]),
    ("retrieve (E.name) from E in Employees where E.age > {} and E.age <= {} "
     "sort by E.age desc", [ages, ages]),
    ("retrieve (E.name) from E in Employees where {} < E.age sort by E.name",
     [ages]),
    ("retrieve (E.name, E.age + {}, E.salary * {}) from E in Employees "
     "where E.age = {}", [ages, salaries, ages]),
    ("retrieve (E.name, E.age / {}) from E in Employees where E.age > - {}",
     [small_ints, ages]),
    ("retrieve (E.name || {}, D.dname) from E in Employees, D in Departments "
     "where E.dept is D and D.floor >= {} sort by E.name", [strings, small_ints]),
    ("retrieve (E.name, D.dname) from E in Employees, D in Departments "
     "where E.dept is D and D.dname = {} and E.age > {} sort by E.name",
     [dept_strings, ages]),
    ("retrieve (E.name, C.name) from E in Employees, C in E.kids "
     "where C.age > {} and E.age < {}", [ages, ages]),
    ("retrieve unique (E.dept.dname, n = count(X.name over X.dept where X.age > {})) "
     "from E in Employees, X in Employees where X.dept is E.dept "
     "sort by E.dept.dname", [ages]),
    ("retrieve (n = count(E.name where E.salary > {})) from E in Employees",
     [salaries]),
    ("retrieve (TopTen[{}].name)", [small_ints]),
    ("retrieve (E.name) from E in Employees where E.age in Interval({}, {}) "
     "sort by E.name", [ages, ages]),
    ("retrieve (E.name) from E in Employees "
     "where E.birthday = Date({}) or E.age = {}", [st.just('"7/4/1948"'), ages]),
    ("retrieve (E.name) from E in Employees where E.dept isnot null "
     "and E.name != {} and not (E.age = {}) sort by E.name", [strings, ages]),
    ("retrieve (E.name) from E in Employees where E.age > {}", [salaries]),
    ("retrieve (E.name) from E in Employees where E.name > {}", [ages]),
]

WRITES = [
    ("append to Employees (name = {}, age = {}, salary = {}, dept = D) "
     "from D in Departments where D.dname = {}",
     [strings, ages, salaries, dept_strings]),
    ("replace E (salary = {}) from E in Employees where E.name = {}",
     [salaries, strings]),
    ("replace E (salary = E.salary + {}, age = E.age + {}) from E in Employees "
     "where E.age >= {}", [salaries, small_ints, ages]),
    ("delete E from E in Employees where E.name = {}", [strings]),
    ("delete E from E in Employees where E.age = {} and E.salary < {}",
     [ages, salaries]),
    ("set StarEmployee = E from E in Employees where E.name = {}", [strings]),
    ("set TopTen[{}] = E from E in Employees where E.age >= {}",
     [small_ints, ages]),
    ("append to E.kids (name = {}, age = {}) from E in Employees "
     "where E.name = {}", [strings, small_ints, strings]),
]


@st.composite
def statement(draw, shapes):
    template, holes = draw(st.sampled_from(shapes))
    return template.format(*(draw(hole) for hole in holes))


@st.composite
def scripts(draw, shapes, max_size):
    """Few distinct shapes per script, many literal vectors per shape."""
    chosen = draw(
        st.lists(
            st.sampled_from(shapes), min_size=1, max_size=3, unique_by=lambda s: s[0]
        )
    )
    return draw(st.lists(statement(chosen), min_size=2, max_size=max_size))


def observe(db, text):
    """Everything a caller can see of one execution."""
    try:
        result = db.execute(text)
    except ExtraError as exc:
        return ("error", type(exc).__name__, str(exc))
    return ("ok", result.kind, result.columns, result.rows, result.count, result.message)


MODES = st.tuples(
    st.sampled_from(["fused", "row"]), st.sampled_from(["closure", "off"])
)


def twin(workload, exec_mode, compile_mode, indexes=True):
    """(warm, cold): the same database twice, the second one planning
    every statement from its text."""
    pair = []
    for cached in (True, False):
        db = build_company_database(workload)
        if indexes:
            db.execute("create index on Employees (name) using hash")
            db.execute("create index on Employees (salary) using btree")
            db.execute("analyze")
        interpreter = db.interpreter
        interpreter.parallel_mode = "off"
        interpreter.exec_mode = exec_mode
        interpreter.compile_mode = compile_mode
        interpreter.plan_cache.enabled = cached
        pair.append(db)
    return pair


class TestWarmEqualsCold:
    @given(script=scripts(READS + WRITES, 14), modes=MODES, indexes=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_mixed_scripts(self, script, modes, indexes):
        warm, cold = twin(SMALL, *modes, indexes=indexes)
        for text in script:
            assert observe(warm, text) == observe(cold, text), text
        assert canonical_state(warm) == canonical_state(cold)
        stats = warm.interpreter.plan_cache.stats()
        assert stats["hits"] + stats["misses"] > 0

    @given(script=scripts(READS, 10), modes=MODES)
    @settings(max_examples=40, deadline=None)
    def test_repeating_a_script_changes_nothing(self, script, modes):
        """Second pass: every statement is a hit (same or other values)."""
        warm, cold = twin(SMALL, *modes)
        first = [observe(warm, text) for text in script]
        assert [observe(warm, text) for text in script] == first
        assert first == [observe(cold, text) for text in script]


# ---------------------------------------------------------------------------
# parallel_mode: exchange-lowered plans over a stand-in pool
# ---------------------------------------------------------------------------

BIG = CompanyWorkload(departments=8, employees=4600, max_kids=1, seed=5)

PARALLEL_READS = [
    ("retrieve (E.name, E.salary) from E in Employees where E.salary > {}",
     [salaries]),
    ("retrieve (E.name, E.age + {}) from E in Employees where E.age > {} "
     "and E.name != {} sort by E.name", [ages, ages, strings]),
    ("retrieve (E.name, E.age / {}) from E in Employees where E.age > {}",
     [small_ints, ages]),
    ("retrieve (n = count(E.name where E.salary > {})) from E in Employees",
     [salaries]),
    ("retrieve (E.name, X.salary) from E in Employees, X in Employees "
     "where E.name = X.name and X.age > {} and E.salary >= {}", [ages, salaries]),
]


def _in_process_parts(self, key, blob, kind, dop, extra):
    """``ParallelRunner._run_parts`` without processes: part ``p`` is
    worker ``p``, which revives each fragment once and keeps it (with
    whatever it memoizes) for later dispatches; every part runs the real
    task function with the flags — and so the parameter vector — of
    *this* dispatch."""
    revived = self.__dict__.setdefault("_revived", {})
    replies = []
    for part in range(dop):
        if (part, key) not in revived:
            revived[part, key] = pickle.loads(blob)
        payload = revived[part, key]
        try:
            if kind == "frag":
                mode, flags = extra
                out, stats = run_fragment_task(self.db, payload, part, dop, mode, flags)
            else:
                (flags,) = extra
                out, stats = run_aggregate_task(self.db, payload, part, dop, flags)
            replies.append(("ok", out, stats))
        except Exception as exc:  # shipped back, as a worker would
            replies.append(("err", pickle.dumps(exc), repr(exc)))
    return replies


@pytest.fixture(scope="module")
def big_pair():
    warm = build_company_database(BIG)
    cold = build_company_database(BIG)
    for db in (warm, cold):
        db.execute("analyze")
    warm.interpreter.parallel_mode = "process"
    warm.interpreter.workers = 2
    cold.interpreter.parallel_mode = "off"
    cold.interpreter.plan_cache.enabled = False
    original = ParallelRunner._run_parts
    ParallelRunner._run_parts = _in_process_parts
    try:
        yield warm, cold
    finally:
        ParallelRunner._run_parts = original
        warm.interpreter.shutdown_parallel()


class TestParallelWarmEqualsCold:
    @given(script=scripts(PARALLEL_READS, 6), modes=MODES)
    @settings(max_examples=12, deadline=None)
    def test_parallel_plans_take_each_statements_values(self, big_pair, script, modes):
        warm, cold = big_pair
        for db in (warm, cold):
            db.interpreter.exec_mode, db.interpreter.compile_mode = modes
        for text in script:
            assert observe(warm, text) == observe(cold, text), text

    def test_the_stand_in_pool_really_ran_exchange_plans(self, big_pair):
        warm, _cold = big_pair
        warm.interpreter.exec_mode, warm.interpreter.compile_mode = "fused", "closure"
        text = "retrieve (E.name, E.salary) from E in Employees where E.salary > {}"
        first = warm.execute(text.format(98999.5))
        second = warm.execute(text.format(97999.5))
        assert second.metrics["cache"] == "hit" and second.metrics["shape_hit"]
        assert "ExchangeMerge" in second.plan_tree
        assert len(second.rows) > len(first.rows) > 0
        runner = warm.interpreter._parallel_runner
        assert runner is not None and runner.__dict__.get("_revived")

"""Property-based spill equivalence: any query run under a tight
``memory_budget`` must return byte-identical rows (values *and* order)
to the unbudgeted run, across every execution mode and with parallel
execution both off and on. Hash joins are included: unbudgeted they run
fused, budgeted they take the operators' own batch path.

The database is large enough (6000 employees) that the parallel
planner's partition threshold admits real multi-worker plans, and the
64 KiB budget forces Sort runs and Aggregate partitions to disk on
every example.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.util.workload import CompanyWorkload, build_company_database

ages = st.integers(min_value=20, max_value=66)
operators = st.sampled_from(["=", "<", "<=", ">", ">="])
exec_modes = st.sampled_from(["fused", "row"])
parallel_modes = st.sampled_from(["off", "process"])


@st.composite
def sort_queries(draw):
    op = draw(operators)
    age = draw(ages)
    keys = draw(
        st.sampled_from(
            [
                "E.salary, E.name desc",
                "E.age desc, E.name",
                "E.name",
                "E.salary desc, E.age, E.name",
            ]
        )
    )
    return (
        f"retrieve (E.name, E.age, E.salary) from E in Employees "
        f"where E.age {op} {age} sort by {keys}"
    )


@st.composite
def aggregate_queries(draw):
    fn = draw(st.sampled_from(["sum", "min", "max", "count"]))
    op = draw(operators)
    age = draw(ages)
    if draw(st.booleans()):
        # three aggregates over one iteration: one shared (spilling) pass
        return (
            f"retrieve unique (E.age, t = {fn}(E.salary over E.age), "
            f"n = count(E.name over E.age), m = max(E.salary)) "
            f"from E in Employees where E.age {op} {age}"
        )
    return (
        f"retrieve unique (E.age, t = {fn}(E.salary over E.age)) "
        f"from E in Employees where E.age {op} {age}"
    )


@st.composite
def join_queries(draw):
    """Value ``=`` and object ``is`` hash joins: fused regions when
    unbudgeted, the operators' own batch path (and a Grace build, should
    the build outgrow the budget) under a ``memory_budget``."""
    op = draw(operators)
    age = draw(ages)
    other = draw(ages)
    return draw(
        st.sampled_from(
            [
                f"retrieve (E.name, D.dname) from E in Employees, "
                f"D in Departments where E.dept is D and E.age {op} {age}",
                f"retrieve (E.name, M.name) from E in Employees, "
                f"M in Employees where E.salary = M.salary "
                f"and E.age = {age} and M.age {op} {other}",
            ]
        )
    )


queries = st.one_of(sort_queries(), aggregate_queries(), join_queries())


@pytest.fixture(scope="module")
def spill_company():
    db = build_company_database(
        CompanyWorkload(departments=8, employees=6000, seed=1988)
    )
    db.interpreter.workers = 2
    yield db
    db.interpreter.shutdown_parallel()


class TestSpillEquivalenceProperty:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(query=queries, mode=exec_modes, parallel=parallel_modes)
    def test_budgeted_run_is_byte_identical(
        self, spill_company, query, mode, parallel
    ):
        db = spill_company
        interpreter = db.interpreter
        interpreter.exec_mode = mode
        interpreter.parallel_mode = parallel
        try:
            interpreter.memory_budget = 0
            baseline = db.execute(query)
            interpreter.memory_budget = 64 * 1024
            spilled = db.execute(query)
            assert spilled.rows == baseline.rows
        finally:
            interpreter.memory_budget = 0
            interpreter.exec_mode = "fused"
            interpreter.parallel_mode = "process"

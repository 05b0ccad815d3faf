"""Property test: arbitrary update sequences leave the memory-backed and
page-backed engines in identical logical states.

This closes the loop the read-only equivalence tests leave open: every
statement kind that mutates state (append, replace, delete, set, index
DDL, transactions) runs against both stores, and full logical dumps must
match afterwards.
"""

from hypothesis import given, settings, strategies as st

from repro.util.workload import CompanyWorkload, build_company_database


def fresh_pair():
    memory = build_company_database(
        CompanyWorkload(departments=3, employees=15, seed=88)
    )
    paged = build_company_database(
        CompanyWorkload(departments=3, employees=15, seed=88, storage="paged")
    )
    return memory, paged


@st.composite
def update_statements(draw):
    count = draw(st.integers(min_value=1, max_value=12))
    statements = []
    for index in range(count):
        kind = draw(st.sampled_from([
            "append", "replace", "delete", "raise", "index", "txn_commit",
            "txn_abort", "set_star",
        ]))
        age = draw(st.integers(min_value=20, max_value=66))
        amount = float(draw(st.integers(min_value=1, max_value=50))) * 100.0
        if kind == "append":
            statements.append(
                f'append to Employees (name = "gen{index}", age = {age}, '
                f"salary = {amount})"
            )
        elif kind == "replace":
            statements.append(
                f"replace E (salary = E.salary + {amount}) "
                f"from E in Employees where E.age >= {age}"
            )
        elif kind == "delete":
            statements.append(
                f"delete E from E in Employees where E.age = {age}"
            )
        elif kind == "raise":
            statements.append(
                f"replace E (age = E.age + 1) from E in Employees "
                f"where E.salary < {amount * 10}"
            )
        elif kind == "index":
            # creating the same index twice errors; guard with a unique attr
            statements.append(("maybe_index", index))
        elif kind == "txn_commit":
            statements.append(("txn", f"replace E (salary = E.salary * 1.1) "
                               f"from E in Employees where E.age > {age}",
                               "commit"))
        elif kind == "txn_abort":
            statements.append(("txn", "delete E from E in Employees", "abort"))
        else:
            statements.append(
                # one qualifying row: a set that two rows would assign
                # is rejected as row-order dependent
                f"set StarEmployee = E from E in Employees "
                f'where E.name = "{CompanyWorkload().name_of(age % 15)}"'
            )
    return statements


def apply(db, statements, created_indexes: set) -> None:
    for statement in statements:
        if isinstance(statement, tuple) and statement[0] == "maybe_index":
            if "age" not in created_indexes:
                db.execute("create index on Employees (age) using btree")
                created_indexes.add("age")
        elif isinstance(statement, tuple) and statement[0] == "txn":
            db.execute("begin")
            db.execute(statement[1])
            db.execute(statement[2])
        else:
            db.execute(statement)


def logical_dump(db) -> list:
    rows = db.execute(
        "retrieve (E.name, E.age, E.salary, d = E.dept.dname, "
        "k = count(E.kids)) from E in Employees sort by E.name"
    ).rows
    star = db.execute("retrieve (StarEmployee.name)").rows
    return [rows, star]


class TestUpdateEquivalence:
    @given(statements=update_statements())
    @settings(max_examples=25, deadline=None)
    def test_memory_and_paged_agree_after_updates(self, statements):
        memory, paged = fresh_pair()
        apply(memory, statements, set())
        apply(paged, statements, set())
        assert logical_dump(memory) == logical_dump(paged)

    @given(statements=update_statements())
    @settings(max_examples=15, deadline=None)
    def test_snapshot_round_trip_preserves_state(self, statements):
        import os
        import tempfile

        from repro import Database

        memory, _ = fresh_pair()
        apply(memory, statements, set())
        before = logical_dump(memory)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "state.snap")
            memory.save(path)
            restored = Database.load(path)
        assert logical_dump(restored) == before

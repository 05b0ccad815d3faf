"""Property test: a transaction's outcome matches oracles that use no
rollback mechanism at all.

* ``abort`` must restore the canonical state taken before ``begin``;
* ``commit`` must land exactly the state a twin database reaches by
  running the same statements in autocommit (each statement on its own,
  no transaction open).

Canonical comparison renumbers OIDs, because the undo log deliberately
does not rewind the OID allocator on abort.
"""

from hypothesis import given, settings, strategies as st

from repro.util.statedump import canonical_state
from repro.util.workload import CompanyWorkload, build_company_database


def fresh():
    return build_company_database(
        CompanyWorkload(departments=3, employees=12, seed=41)
    )


@st.composite
def txn_statements(draw):
    count = draw(st.integers(min_value=1, max_value=10))
    statements = []
    indexed = False
    altered = False
    for index in range(count):
        kind = draw(st.sampled_from([
            "append", "replace", "delete", "set_star", "define",
            "index", "alter", "grant", "analyze",
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
        elif kind == "set_star":
            statements.append(
                f"set StarEmployee = E from E in Employees "
                f"where E.age >= {age}"
            )
        elif kind == "define":
            statements.append(f"define type Scratch{index} as (x: int4)")
        elif kind == "index" and not indexed:
            indexed = True
            statements.append("create index on Employees (age) using btree")
        elif kind == "alter" and not altered:
            altered = True
            statements.append("alter type Employee add (bonus: float8)")
        elif kind == "grant":
            statements.append(f"grant select on Employees to user{index}")
        else:
            statements.append("analyze Employees")
    return statements


def run_transaction(db, statements, outcome: str):
    db.execute("begin")
    for statement in statements:
        db.execute(statement)
    db.execute(outcome)


def run_autocommit(db, statements):
    for statement in statements:
        db.execute(statement)


class TestTransactionOracles:
    @given(statements=txn_statements())
    @settings(max_examples=25, deadline=None)
    def test_abort_restores_the_state_before_begin(self, statements):
        db = fresh()
        before = canonical_state(db)
        run_transaction(db, statements, "abort")
        assert canonical_state(db) == before

    @given(statements=txn_statements())
    @settings(max_examples=15, deadline=None)
    def test_commit_lands_the_autocommit_state(self, statements):
        txn_db, twin = fresh(), fresh()
        run_transaction(txn_db, statements, "commit")
        run_autocommit(twin, statements)
        assert canonical_state(txn_db) == canonical_state(twin)

    @given(statements=txn_statements())
    @settings(max_examples=10, deadline=None)
    def test_abort_then_rerun_matches_plain_run(self, statements):
        """An aborted attempt leaves no residue that affects a rerun."""
        scarred, plain = fresh(), fresh()
        run_transaction(scarred, statements, "abort")
        run_transaction(scarred, statements, "commit")
        run_autocommit(plain, statements)
        assert canonical_state(scarred) == canonical_state(plain)

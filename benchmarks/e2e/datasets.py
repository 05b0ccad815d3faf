"""Seeded datasets and their pure-Python row models.

Each builder returns the populated database *and* the rows it inserted
as plain Python values: the workloads keep those rows up to date as the
model the engine's answers are checked against. The engine only ever
sees the generated rows and statements, never the seed.

The company schema is the paper's running example (the same one
``repro.util.workload.build_company_database`` creates); it is rebuilt
here because that builder does not hand back the rows it generated.
"""

from __future__ import annotations

import random
from typing import Any

from repro import Database

__all__ = [
    "ACCT_ROW_BYTES",
    "build_company",
    "create_accounts",
    "open_accounts",
    "quiet",
]

_FIRST_NAMES = [
    "Sue", "Bob", "Ann", "Joe", "Eva", "Max", "Ida", "Ray", "Amy", "Ned",
    "Zoe", "Tim", "Kim", "Lee", "Mia", "Art", "Fay", "Gil", "Hal", "Ivy",
]

#: declared width of one Acct row (int4 + float8 + int4 + char(40)): the
#: unit of "user bytes" in write_amp and space_amp
ACCT_ROW_BYTES = 4 + 8 + 4 + 40


def quiet(db: Database) -> Database:
    """Pin a database to serial execution.

    The default ``parallel_mode = "process"`` forks daemon worker
    processes for any retrieve over an estimated 4096+ rows; the
    benchmark is one fork-free process so that nothing outlives it.
    """
    db.interpreter.parallel_mode = "off"
    return db


def build_company(
    rng: random.Random, employees: int, departments: int, indexes: bool
) -> tuple[Database, list[dict], list[dict]]:
    """Departments + Employees (with owned kids and a dept reference).

    Returns ``(db, department_rows, employee_rows)``; an employee row is
    ``{name, age, salary, dept (index), kids: [(name, age), ...]}``.
    Salaries are whole thousands in 20k..100k, so float sums are exact.
    """
    db = quiet(Database())
    db.execute(
        """
        define type Department as (dname: char(40), floor: int4, budget: float8)
        define type Person as (name: char(40), age: int4,
                               kids: {own ref Person})
        define type Employee as (salary: float8, dept: ref Department)
            inherits Person
        create {own ref Department} Departments
        create {own ref Employee} Employees
        """
    )
    if indexes:
        db.execute("create index on Employees (name) using hash")
        db.execute("create index on Employees (salary) using btree")
    dept_rows = []
    dept_refs = []
    for d in range(departments):
        row = {
            "dname": f"Dept{d}",
            # round-robin, not random: the share of departments on a
            # floor sets the selectivity of two analytic templates
            "floor": d % 5 + 1,
            "budget": float(rng.randint(50, 500)) * 1000.0,
        }
        dept_rows.append(row)
        dept_refs.append(db.insert("Departments", **row))
    emp_rows = []
    for e in range(employees):
        name = f"{_FIRST_NAMES[e % len(_FIRST_NAMES)]}{e}"
        row = {
            "name": name,
            "age": rng.randint(21, 65),
            "salary": float(rng.randint(20, 100)) * 1000.0,
            "dept": rng.randrange(departments),
            "kids": [
                (f"{name}-kid{k}", rng.randint(1, 18))
                for k in range(rng.randint(0, 3))
            ],
        }
        emp_rows.append(row)
        db.insert(
            "Employees",
            name=name,
            age=row["age"],
            salary=row["salary"],
            dept=dept_refs[row["dept"]],
            kids=[{"name": kid, "age": age} for kid, age in row["kids"]],
        )
    return db, dept_rows, emp_rows


def create_accounts(
    directory: str, rng: random.Random, accounts: int, cache_capacity: int
) -> tuple[Database, dict[int, list]]:
    """A durable paged ``Accts`` set with a hash index on ``id``.

    Rows go in through the Python API (no WAL record each) and one
    checkpoint makes them durable. Returns ``(db, model)`` where
    ``model[id] = [bal, branch]``. Balances are whole numbers, so sums
    and transfers stay exact in float8.
    """
    db = open_accounts(directory, cache_capacity)
    db.execute(
        """
        define type Acct as (id: int4, bal: float8, branch: int4, note: char(40))
        create {own ref Acct} Accts
        create index on Accts (id) using hash
        """
    )
    model: dict[int, list] = {}
    for i in range(accounts):
        bal = float(rng.randint(500, 1500))
        branch = rng.randrange(50)
        model[i] = [bal, branch]
        db.insert("Accts", id=i, bal=bal, branch=branch, note=f"account-{i:08d}")
    db.checkpoint()
    return db, model


def open_accounts(directory: str, cache_capacity: int) -> Any:
    """Open (or recover) the durable paged store under ``directory``
    with the benchmark's fixed settings: file pages, fsync on, 64-page
    buffer pool."""
    return quiet(
        Database.open(
            directory,
            storage="paged",
            fsync=True,
            cache_capacity=cache_capacity,
            pool_capacity=64,
        )
    )

"""Shared fixtures: empty databases and the populated company database."""

from __future__ import annotations

import pytest

from repro import Database
from repro.util.workload import CompanyWorkload, build_company_database


@pytest.fixture
def db() -> Database:
    """An empty in-memory database."""
    return Database()


@pytest.fixture
def paged_db() -> Database:
    """An empty database over the slotted-page object store."""
    return Database(storage="paged", pool_capacity=16)


@pytest.fixture
def company() -> Database:
    """The paper's company schema, pre-populated at a small scale.

    3 departments, 12 employees (deterministic seed), Today /
    StarEmployee / TopTen set.
    """
    return build_company_database(
        CompanyWorkload(departments=3, employees=12, max_kids=2, seed=7)
    )


def build_small_company(**options) -> Database:
    """A hand-built tiny company database with exactly known contents
    (``options`` go to :class:`Database`, e.g. a paged store).

    Departments: Toys (floor 2), Shoes (floor 1).
    Employees: Sue (40, 50k, Toys; kids Tim 10, Zoe 7),
               Bob (30, 40k, Shoes),
               Ann (50, 60k, Toys; kid Rex 12).
    """
    db = Database(**options)
    db.execute(
        """
        define type Department as (dname: char(20), floor: int4,
                                   budget: float8)
        define type Person as (name: char(30), age: int4, birthday: Date,
                               kids: {own ref Person})
        define type Employee as (salary: float8, dept: ref Department)
            inherits Person
        create {own ref Department} Departments
        create {own ref Employee} Employees
        create Date Today
        create ref Employee StarEmployee
        create [10] ref Employee TopTen
        append to Departments (dname = "Toys", floor = 2, budget = 100000.0)
        append to Departments (dname = "Shoes", floor = 1, budget = 80000.0)
        append to Employees (name = "Sue", age = 40, salary = 50000.0,
                             birthday = Date("7/4/1948"), dept = D)
            from D in Departments where D.dname = "Toys"
        append to Employees (name = "Bob", age = 30, salary = 40000.0,
                             dept = D)
            from D in Departments where D.dname = "Shoes"
        append to Employees (name = "Ann", age = 50, salary = 60000.0,
                             dept = D)
            from D in Departments where D.dname = "Toys"
        append to E.kids (name = "Tim", age = 10)
            from E in Employees where E.name = "Sue"
        append to E.kids (name = "Zoe", age = 7)
            from E in Employees where E.name = "Sue"
        append to E.kids (name = "Rex", age = 12)
            from E in Employees where E.name = "Ann"
        set Today = Date("7/4/1988")
        set StarEmployee = E from E in Employees where E.name = "Ann"
        set TopTen[1] = E from E in Employees where E.name = "Ann"
        set TopTen[2] = E from E in Employees where E.name = "Sue"
        """
    )
    return db


@pytest.fixture
def small_company() -> Database:
    """Fixture form of :func:`build_small_company`."""
    return build_small_company()


@pytest.fixture
def generated(monkeypatch):
    """``(filename, source)`` of every function the expression compiler
    generates while the test runs (clear it to start counting)."""
    from repro.excess import compile as compile_module

    sources: list = []
    define = compile_module._define

    def recording(source, ns, filename):
        sources.append((filename, source))
        define(source, ns, filename)

    monkeypatch.setattr(compile_module, "_define", recording)
    return sources

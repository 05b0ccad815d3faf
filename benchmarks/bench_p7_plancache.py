"""P7 — plan cache + hash-join execution.

Two perf claims from this iteration:

* a repeated identical statement skips the lexer/parser/binder/optimizer
  front end entirely on a plan-cache hit, so repeated-query throughput
  improves by a large constant factor (target: >= 5x on a selective
  indexed query, where front-end cost dominates execution);
* the hash-join strategy beats the nested-loop join on equi-joins once
  the inner set is large enough, and the gap widens with scale;
* the cache keys statement *shapes*: a point-read/replace loop whose
  texts differ in every literal still hits (ratio >= 0.95) and runs
  >= 5x faster per statement than with the cache disabled.
"""

import time

import pytest

from conftest import fresh_company, write_bench_json

#: selective + indexed: execution is nearly free, front end dominates
CACHED_QUERY = (
    "retrieve (E.name) from E in Employees "
    "where E.salary = 50000.0 and E.age > 30"
)

JOIN_QUERY = (
    "retrieve (E.name, M.name) from E in Employees, M in Employees "
    "where E.age = M.age and E.salary > M.salary"
)


@pytest.fixture(scope="module")
def db():
    db = fresh_company(employees=300)
    db.execute("create index on Employees (salary) using btree")
    return db


# -- repeated-query throughput: cache on vs off -------------------------------


@pytest.mark.benchmark(group="p7-plan-cache")
def test_repeated_query_cache_on(db, benchmark):
    db.interpreter.plan_cache.enabled = True
    db.execute(CACHED_QUERY)  # warm the cache
    result = benchmark(db.execute, CACHED_QUERY)
    assert result.metrics["cache"] == "hit"


@pytest.mark.benchmark(group="p7-plan-cache")
def test_repeated_query_cache_off(db, benchmark):
    db.interpreter.plan_cache.enabled = False
    try:
        result = benchmark(db.execute, CACHED_QUERY)
    finally:
        db.interpreter.plan_cache.enabled = True
    assert result.metrics["cache"] == "off"


def test_cache_hit_speedup_at_least_5x(db):
    """Acceptance: repeated identical queries run >= 5x faster with the
    plan cache than with it disabled (front end re-run every time)."""

    def throughput(repeats: int) -> float:
        start = time.perf_counter()
        for _ in range(repeats):
            db.execute(CACHED_QUERY)
        return (time.perf_counter() - start) / repeats

    db.interpreter.plan_cache.enabled = True
    db.execute(CACHED_QUERY)  # ensure the entry is resident
    hot = throughput(200)
    db.interpreter.plan_cache.enabled = False
    try:
        cold = throughput(200)
    finally:
        db.interpreter.plan_cache.enabled = True
    assert cold > hot * 5.0, (cold, hot, cold / hot)


# -- literal-varying traffic: one plan per shape --------------------------------


def test_literal_varying_loop_hits_by_shape():
    """Acceptance: point reads and replaces that never repeat a text —
    every statement carries its own key and value — share one plan per
    shape: hit ratio >= 0.95 and >= 5x faster per statement than
    planning each text (``plan_cache.enabled = False``)."""
    employees = 300
    db = fresh_company(employees=employees)
    db.execute("create index on Employees (name) using hash")
    names = [
        row[0] for row in db.execute("retrieve (E.name) from E in Employees").rows
    ]

    def loop(offset: int, count: int) -> float:
        start = time.perf_counter()
        for step in range(offset, offset + count):
            name = names[(step * 7) % employees]
            if step % 4:
                rows = db.execute(
                    "retrieve (E.name, E.salary, E.dept.dname) "
                    f'from E in Employees where E.name = "{name}"'
                ).rows
                assert rows[0][0] == name
            else:
                db.execute(
                    f"replace E (salary = {20000.0 + step}) "
                    f'from E in Employees where E.name = "{name}"'
                )
        return (time.perf_counter() - start) / count

    cache = db.interpreter.plan_cache
    loop(0, 8)  # plan both shapes
    before = cache.stats()
    hot = loop(8, 400)
    after = cache.stats()
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    cache.enabled = False
    try:
        cold = loop(408, 200)
    finally:
        cache.enabled = True
    ratio = hits / (hits + misses)
    write_bench_json("p7", {
        "workload": "literal-varying point read (3/4) + replace (1/4), "
                    f"{employees} employees, hash(name)",
        "shape_hit_ratio": ratio,
        "hot_us_per_statement": hot * 1e6,
        "cold_us_per_statement": cold * 1e6,
        "speedup": cold / hot,
        "plan_cache": after,
    })
    assert ratio >= 0.95, (hits, misses)
    # 400 distinct texts, no new shape, nothing keyed by value
    assert after["shapes"] == before["shapes"] and after["pinned_slots"] == 0, after
    assert cold > hot * 5.0, (cold, hot, cold / hot)


# -- hash join vs nested loop across scales -----------------------------------


def join_db(employees: int):
    return fresh_company(employees=employees)


@pytest.mark.parametrize("employees", [100, 300, 1000])
@pytest.mark.benchmark(group="p7-hash-join")
def test_equi_join_hash(benchmark, employees):
    db = join_db(employees)
    db.interpreter.hash_joins = True
    result = benchmark(db.execute, JOIN_QUERY)
    assert result.metrics["hash_probes"] > 0


@pytest.mark.parametrize("employees", [100, 300, 1000])
@pytest.mark.benchmark(group="p7-hash-join")
def test_equi_join_nested_loop(benchmark, employees):
    db = join_db(employees)
    db.interpreter.hash_joins = False
    try:
        result = benchmark(db.execute, JOIN_QUERY)
    finally:
        db.interpreter.hash_joins = True
    assert result.metrics["hash_probes"] == 0


def test_strategies_agree_and_hash_wins_at_1000():
    """Acceptance: at 1000 employees the hash join beats the nested loop
    (which visits |E| x |M| pairs), and both return the same rows."""

    def measure(db, repeats: int = 3) -> float:
        start = time.perf_counter()
        for _ in range(repeats):
            db.execute(JOIN_QUERY)
        return (time.perf_counter() - start) / repeats

    db = join_db(1000)
    db.interpreter.hash_joins = True
    hash_rows = db.execute(JOIN_QUERY).rows
    hash_time = measure(db)
    db.interpreter.hash_joins = False
    try:
        loop_rows = db.execute(JOIN_QUERY).rows
        loop_time = measure(db)
    finally:
        db.interpreter.hash_joins = True
    assert sorted(hash_rows) == sorted(loop_rows)
    assert hash_time < loop_time, (hash_time, loop_time)

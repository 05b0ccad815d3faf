"""A plan-cache hit runs what a miss runs.

A hit skips the front end and, on a fused root, calls the generated
region once instead of draining batch generators. These tests pin that
nothing else changes: the authorization check, the statement deadline,
the counters and rendered plan a miss reports for the same literals,
the paths that never fuse (``explain``, ``retrieve ... into``, row mode,
a hash join under a memory budget), recursive re-entry of a running
plan, and the transaction window writes take. They also pin the shape
templates the hit path matches texts against: one per shape, dropped
with it.
"""

import re

import pytest

from repro.errors import AuthorizationError, StatementTimeout
from repro.authz.grants import Privilege
from repro.excess.evaluator import Evaluator
from repro.util import faultinject
from repro.util.workload import CompanyWorkload, build_company_database

SMALL = CompanyWorkload(departments=3, employees=30, seed=5)

POINT = "retrieve (E.name, E.salary, E.dept.dname) from E in Employees where E.name = {}"
JOIN = (
    "retrieve (E.name, D.dname) from E in Employees, D in Departments "
    "where E.dept is D and D.floor >= {}"
)
AGGREGATE = (
    "retrieve (D.dname, n = count(E.name over E.dept)) "
    "from D in Departments, E in Employees where E.dept is D and E.age > {}"
)
SORTED = "retrieve (E.name) from E in Employees where E.age > {} sort by E.name"
REPLACE = "replace E (salary = {}) from E in Employees where E.name = {}"
COUNTERS = ("rows_scanned", "hash_builds", "hash_probes", "semi_builds")


@pytest.fixture
def db():
    db = build_company_database(SMALL)
    db.interpreter.parallel_mode = "off"
    return db


def quoted(name: str) -> str:
    return f'"{name}"'


def uncached(db, text: str, user: str = "dba"):
    """``text`` down the miss path: planned afresh for its literals."""
    cache = db.interpreter.plan_cache
    cache.enabled = False
    try:
        return db.interpreter.execute(text, user=user)
    finally:
        cache.enabled = True


def actuals(tree: str) -> str:
    """A rendered plan without its estimates (a shared plan was costed
    with the literals it was prepared for)."""
    return re.sub(r"est=\d+", "est=", tree)


@pytest.fixture
def run_plan_calls(monkeypatch):
    """How often statements drained a tree through ``_run_plan``."""
    calls = []
    original = Evaluator._run_plan

    def counted(self, root, env, ctx):
        calls.append(type(root).__name__)
        return original(self, root, env, ctx)

    monkeypatch.setattr(Evaluator, "_run_plan", counted)
    return calls


class TestHitEqualsMiss:
    @pytest.mark.parametrize(
        "template,first,second",
        [
            (POINT, quoted(SMALL.name_of(1)), quoted(SMALL.name_of(2))),
            (JOIN, "1", "2"),
            (AGGREGATE, "30", "40"),
            (SORTED, "30", "40"),
        ],
        ids=["point", "hash-join", "aggregate", "sort"],
    )
    @pytest.mark.parametrize("exec_mode", ["fused", "row"])
    def test_metrics_plan_tree_and_source(
        self, db, template, first, second, exec_mode
    ):
        db.interpreter.exec_mode = exec_mode
        assert db.execute(template.format(first)).metrics["cache"] == "miss"
        db.data_version += 1  # no memoized build table carries over
        hit = db.execute(template.format(second))
        assert hit.metrics["cache"] == "hit" and hit.metrics["shape_hit"]
        db.data_version += 1
        miss = uncached(db, template.format(second))
        assert miss.metrics["cache"] == "off"
        assert hit.rows == miss.rows and hit.rows
        for counter in COUNTERS:
            assert hit.metrics[counter] == miss.metrics[counter], counter
        assert actuals(hit.plan_tree) == actuals(miss.plan_tree)
        assert hit.pipeline_source == miss.pipeline_source

    def test_same_literals_hit_is_not_a_shape_hit(self, db):
        text = POINT.format(quoted(SMALL.name_of(3)))
        db.execute(text)
        again = db.execute(text)
        assert again.metrics["cache"] == "hit"
        assert again.metrics["shape_hit"] is False


class TestChecksRunOnEveryHit:
    def test_revoked_grant_raises_on_a_hit(self, db):
        db.authz.enabled = True
        db.execute("create user reader")
        db.execute("grant select on Employees to reader")
        db.execute("grant select on Departments to reader")
        first = POINT.format(quoted(SMALL.name_of(1)))
        second = POINT.format(quoted(SMALL.name_of(2)))
        db.interpreter.execute(first, user="reader")
        assert db.interpreter.execute(second, user="reader").rows
        # the Python API revokes without moving the catalog epoch, so
        # the next statement is still a plan-cache hit
        assert db.authz.revoke("reader", Privilege.SELECT, "Employees")
        for text in (second, first):
            with pytest.raises(AuthorizationError):
                db.interpreter.execute(text, user="reader")
        with pytest.raises(AuthorizationError):
            uncached(db, second, user="reader")
        assert db.interpreter.plan_cache.stats()["hits"] >= 1

    @pytest.mark.parametrize("site", ["fused", "root"])
    def test_statement_timeout_fires_on_a_hit(self, db, site):
        db.interpreter.statement_timeout_ms = 60_000  # arm the governor
        try:
            db.execute(JOIN.format(1))
            for run in (lambda: db.execute(JOIN.format(2)),
                        lambda: uncached(db, JOIN.format(2))):
                faultinject.arm(f"timeout.{site}", on_hit=1)
                with pytest.raises(StatementTimeout):
                    run()
                faultinject.reset()
            assert db.execute(JOIN.format(2)).metrics["cache"] == "hit"
        finally:
            faultinject.reset()
            db.interpreter.statement_timeout_ms = 0


class TestPathsThatNeverFuse:
    def test_a_fused_root_runs_without_the_generator_path(self, db, run_plan_calls):
        db.execute(POINT.format(quoted(SMALL.name_of(1))))
        hit = db.execute(POINT.format(quoted(SMALL.name_of(2))))
        assert hit.metrics["cache"] == "hit"
        assert run_plan_calls == []

    def test_row_mode_and_sort_drain_batches(self, db, run_plan_calls):
        db.execute(SORTED.format(30))
        assert db.execute(SORTED.format(40)).metrics["cache"] == "hit"
        assert run_plan_calls == ["Sort", "Sort"]
        run_plan_calls.clear()
        db.interpreter.exec_mode = "row"
        db.execute(POINT.format(quoted(SMALL.name_of(1))))
        assert db.execute(POINT.format(quoted(SMALL.name_of(2)))).rows
        assert run_plan_calls == ["Project", "Project"]

    def test_explain_hit_keeps_its_rows_and_tree(self, db):
        miss = db.execute("explain " + JOIN.format(1))
        hit = db.execute("explain " + JOIN.format(1))
        assert miss.message.endswith("cache=miss")
        assert hit.message.endswith("cache=hit")
        assert hit.rows == miss.rows and hit.plan_tree == miss.plan_tree
        assert "rows=" not in hit.plan_tree

    def test_retrieve_into_stores_through_its_root(self, db, run_plan_calls):
        text = "retrieve into Seniors (E.name) from E in Employees where E.age > {}"
        result = db.execute(text.format(40))
        assert run_plan_calls == ["StoreInto"]
        assert result.message.startswith("stored ")
        stored = db.execute("retrieve (S.name) from S in Seniors").rows
        assert sorted(stored) == sorted(
            db.execute("retrieve (E.name) from E in Employees where E.age > 40").rows
        )

    def test_budgeted_hash_join_takes_the_spilling_path(self, db, run_plan_calls):
        free = db.execute(JOIN.format(2)).rows
        db.interpreter.memory_budget = 64
        try:
            db.execute(JOIN.format(1))
            run_plan_calls.clear()
            db.data_version += 1  # build afresh, under the budget
            hit = db.execute(JOIN.format(2))
        finally:
            db.interpreter.memory_budget = 0
        assert hit.metrics["cache"] == "hit"
        assert hit.rows == free
        assert run_plan_calls == ["Project"]
        assert "spill=[partitions=" in hit.plan_tree


class TestReentryAndTransactions:
    def test_recursive_function_nests_counters_on_a_hit(self, db):
        db.execute(
            """
            define type Node as (label: char(10), value: int4,
                                 nexts: {own ref Node})
            create {own ref Node} Nodes
            append to Nodes (label = "a", value = 1)
            append to Nodes (label = "z", value = 9)
            append to N.nexts (label = "b", value = 2)
                from N in Nodes where N.label = "a"
            append to N.nexts (label = "c", value = 4)
                from N in Nodes where N.label = "a"
            define function subtree (N in Node) returns own int4 as
                retrieve (N.value + sum(subtree(M))) from M in N.nexts
            """
        )
        text = 'retrieve (subtree(N)) from N in Nodes where N.label = {}'
        db.execute(text.format('"z"'))
        hit = db.execute(text.format('"a"'))
        miss = uncached(db, text.format('"a"'))
        assert hit.metrics["cache"] == "hit"
        assert hit.rows == miss.rows == [(7,)]
        assert hit.metrics["rows_scanned"] == miss.metrics["rows_scanned"]
        assert actuals(hit.plan_tree) == actuals(miss.plan_tree)

    def _spy_statement(self, db):
        manager = db.transactions
        kinds = []
        original = manager.statement

        def statement(session, kind="write"):
            kinds.append(kind)
            return original(session, kind)

        manager.statement = statement
        return kinds

    def test_write_hit_in_an_explicit_transaction(self, db):
        name = quoted(SMALL.name_of(4))
        db.execute(REPLACE.format("1000.0", name))
        kinds = self._spy_statement(db)
        db.begin()
        result = db.execute(REPLACE.format("2000.0", name))
        assert result.metrics["cache"] == "hit" and result.count == 1
        assert kinds == ["write"]
        db.abort()
        assert db.execute(POINT.format(name)).rows[0][1] == 1000.0

    def test_write_hit_under_a_concurrent_snapshot(self, db):
        name = quoted(SMALL.name_of(5))
        db.execute(REPLACE.format("1000.0", name))
        reader = db.connect()
        reader.begin()
        assert reader.execute(POINT.format(name)).rows[0][1] == 1000.0
        kinds = self._spy_statement(db)
        result = db.execute(REPLACE.format("3000.0", name))
        assert result.metrics["cache"] == "hit"
        assert kinds == ["write"]
        # the reader's snapshot still sees the old salary, on a hit too
        assert reader.execute(POINT.format(name)).rows[0][1] == 1000.0
        reader.commit()
        assert reader.execute(POINT.format(name)).rows[0][1] == 3000.0


class TestShapeTemplates:
    def test_one_template_per_shape_whatever_the_texts(self, db):
        cache = db.interpreter.plan_cache
        cache.clear()  # the shapes that built the company
        for number in range(1000):
            db.execute(POINT.format(quoted(f"nobody{number}")))
        assert len(cache.templates) == 1
        assert cache.stats()["hits"] >= 999

    def test_eviction_drops_the_template(self, db):
        cache = db.interpreter.plan_cache
        cache.capacity = 2
        db.execute(POINT.format(quoted("x")))
        assert cache.templates.match(POINT.format(quoted("y"))) is not None
        db.execute(SORTED.format(30))
        db.execute(JOIN.format(1))
        assert len(cache) == 2
        assert cache.templates.match(POINT.format(quoted("y"))) is None
        assert len(cache.templates) == 2

    def test_an_evicted_plan_is_freed_at_once(self, db):
        import gc
        import weakref

        cache = db.interpreter.plan_cache
        cache.capacity = 1
        db.execute(JOIN.format(1))  # a fused hash join, its build memoized
        (entry,) = cache._entries.values()
        ops = [weakref.ref(op) for op in entry.ops]
        assert any(type(op()).__name__ == "HashJoin" for op in ops)
        del entry
        gc.disable()
        try:
            db.execute(SORTED.format(30))
            assert all(op() is None for op in ops)
        finally:
            gc.enable()

    def test_clear_drops_the_templates(self, db):
        cache = db.interpreter.plan_cache
        db.execute(POINT.format(quoted("x")))
        cache.clear()
        assert len(cache.templates) == 0
        assert db.execute(POINT.format(quoted("y"))).metrics["cache"] == "miss"

    def test_operator_registration_drops_the_templates(self, db):
        cache = db.interpreter.plan_cache
        cache.clear()
        db.execute(POINT.format(quoted("x")))
        assert len(cache.templates) == 1
        adts = db.catalog.adts
        adts.register_operator("@", "Complex", "Add", precedence=50)
        db.execute(SORTED.format(30))  # the next statement sees it
        assert cache.templates.match(POINT.format(quoted("y"))) is None
        assert len(cache.templates) == 1

    def test_a_registered_symbol_rescans_the_text(self, db):
        # '@-- "x"' is one unknown operator run and a string before '@'
        # is registered, an operator and a line comment after
        text = 'retrieve (c = 1) @-- "x"'
        interpreter = db.interpreter
        scanned = interpreter._cache_key(text, "dba", db.default_session)[0][0]
        assert scanned == ("is", "retrieve (c = ", ") @-- ", "")
        interpreter.plan_cache.templates.add(scanned)  # as if cached
        db.catalog.adts.register_operator("@", "Complex", "Add", precedence=50)
        rescanned = interpreter._cache_key(text, "dba", db.default_session)[0][0]
        assert rescanned == ("i", "retrieve (c = ", ') @-- "x"')

"""The plan cache keys statement *shapes*: one prepared plan per
literal-blanked statement, re-executed under each text's own values.

Covers the free / pinned / value-sensitive slot kinds, the places a
stale constant could hide (hash-build memo, rendered trees, pickled
plans, parallel fragments), and the cache's bookkeeping.
"""

from __future__ import annotations

import pickle

import pytest

from repro import Database
from repro.errors import BindError, EvaluationError
from repro.excess.binder import Param
from repro.excess.evaluator import Evaluator
from repro.excess.flags import Flags
from repro.excess.parallel import ParallelRunner, run_fragment_task
from repro.excess.plan import HashJoin, PlanContext, plan_ops
from repro.util.workload import CompanyWorkload, build_company_database


def run(db, text, **kwargs):
    """``(rows, cache, shape_hit)`` of one execution."""
    result = db.execute(text, **kwargs)
    return result.rows, result.metrics["cache"], result.metrics["shape_hit"]


def cold(build, text):
    """The statement executed on a fresh copy (cold cache)."""
    return build().execute(text)


def cached(db, text):
    interpreter = db.interpreter
    return interpreter.plan_cache.get(
        interpreter._cache_key(text, "dba", db.default_session)
    )


@pytest.fixture
def parts() -> Database:
    return build_parts()


def build_parts() -> Database:
    db = Database()
    db.execute(
        """
        define type Part as (pname: char(20),
                             status: enum(draft, active, retired),
                             scores: [3] int4, weight: float8, boss: ref Part)
        create {own ref Part} Parts
        append to Parts (pname = "bolt", status = "active", weight = 1.5)
        append to Parts (pname = "nut", status = "draft", weight = 0.5)
        append to Parts (pname = "cog", status = "retired", weight = 2.5)
        set P.scores[1] = 7 from P in Parts where P.pname = "bolt"
        set P.scores[2] = 9 from P in Parts where P.pname = "bolt"
        """
    )
    return db


POINT = 'retrieve (E.name, E.dept.dname) from E in Employees where E.name = "{}"'


class TestFreeSlots:
    def test_point_reads_share_one_plan(self, small_company):
        db = small_company
        assert run(db, POINT.format("Sue")) == ([("Sue", "Toys")], "miss", False)
        assert run(db, POINT.format("Bob")) == ([("Bob", "Shoes")], "hit", True)
        assert run(db, POINT.format("Nobody")) == ([], "hit", True)
        assert run(db, POINT.format("Sue")) == ([("Sue", "Toys")], "hit", False)
        stats = db.interpreter.plan_cache.stats()
        assert stats["entries"] == 1 and stats["shapes"] == 1
        assert stats["pinned_slots"] == 0

    def test_writes_share_plans_and_apply_their_own_values(self, small_company):
        db = small_company
        text = 'replace E (salary = {}) from E in Employees where E.name = "{}"'
        db.execute(text.format(41000.0, "Bob"))
        result = db.execute(text.format(61000.5, "Ann"))
        assert result.metrics["cache"] == "hit" and result.count == 1
        rows = db.execute("retrieve (E.name, E.salary) from E in Employees").rows
        assert sorted(rows) == [("Ann", 61000.5), ("Bob", 41000.0), ("Sue", 50000.0)]
        append = (
            'append to Employees (name = "{}", age = {}, salary = {}, dept = D) '
            'from D in Departments where D.dname = "{}"'
        )
        db.execute(append.format("New1", 21, 1000.0, "Toys"))
        assert db.execute(append.format("New2", 22, 2000.0, "Shoes")).metrics[
            "cache"
        ] == "hit"
        assert run(db, POINT.format("New2"))[0] == [("New2", "Shoes")]
        delete = 'delete E from E in Employees where E.name = "{}"'
        assert db.execute(delete.format("New1")).count == 1
        second = db.execute(delete.format("New2"))
        assert second.metrics["cache"] == "hit" and second.count == 1
        assert db.catalog.cardinality("Employees") == 3

    def test_literal_kind_splits_the_shape(self, small_company):
        db = small_company
        text = "retrieve (E.name) from E in Employees where E.age = {}"
        assert run(db, text.format(40)) == ([("Sue",)], "miss", False)
        assert run(db, text.format(40.0)) == ([("Sue",)], "miss", False)
        assert run(db, text.format(30)) == ([("Bob",)], "hit", True)
        assert run(db, text.format(30.0)) == ([("Bob",)], "hit", True)

    def test_unary_minus_over_a_slot(self, small_company):
        db = small_company
        text = "retrieve (E.name, E.age - {}) from E in Employees where E.age > - {}"
        first = db.execute(text.format(1, 5))
        second = db.execute(text.format(10, 45))
        assert second.metrics["cache"] == "hit"
        assert sorted(first.rows) == [("Ann", 49), ("Bob", 29), ("Sue", 39)]
        assert sorted(second.rows) == [("Ann", 40), ("Bob", 20), ("Sue", 30)]

    def test_quote_styles_and_escapes_share_a_shape(self, small_company):
        db = small_company
        db.execute(
            'append to Employees (name = "O\\"Hara", age = 1, salary = 1.0, dept = D) '
            'from D in Departments where D.dname = "Toys"'
        )
        text = "retrieve (E.age) from E in Employees where E.name = {}"
        assert run(db, text.format('"Sue"')) == ([(40,)], "miss", False)
        assert run(db, text.format("'O\"Hara'")) == ([(1,)], "hit", True)
        assert run(db, text.format('"O\\"Hara"')) == ([(1,)], "hit", True)
        assert run(db, text.format("'Sue'")) == ([(40,)], "hit", False)

    def test_comment_literals_and_identifier_digits_are_not_slots(self, db):
        db.execute("define type int4box as (x1: int4)")
        db.execute("create {own int4box} Box2")
        db.execute("append to Box2 (x1 = 5)")
        db.execute("append to Box2 (x1 = 6)")
        text = "retrieve (B.x1) /* 5 'five' */ from B in Box2 where B.x1 = {} -- 6"
        assert run(db, text.format(5)) == ([(5,)], "miss", False)
        assert run(db, text.format(6)) == ([(6,)], "hit", True)
        assert cached(db, text.format(5)).params == (5,)

    def test_array_index_steps_and_constant_on_left_stay_free(self, parts):
        # neither the index step nor the normalisation that moves a
        # left-hand constant to the right reads the literal: the node is
        # compiled (or moved) as it stands
        db = parts
        index = 'retrieve (P.scores[{}]) from P in Parts where P.pname = "bolt"'
        assert run(db, index.format(1)) == ([(7,)], "miss", False)
        assert run(db, index.format(2)) == ([(9,)], "hit", True)
        flipped = "retrieve (P.pname) from P in Parts where {} < P.weight"
        assert run(db, flipped.format(1.0)) == ([("bolt",), ("cog",)], "miss", False)
        assert run(db, flipped.format(2.0)) == ([("cog",)], "hit", True)
        assert cached(db, flipped.format(1.0)).report.normalized == 1
        assert db.interpreter.plan_cache.stats()["pinned_slots"] == 0

    def test_null_tests_beside_a_slot(self, parts):
        db = parts
        text = "retrieve (P.pname) from P in Parts where P.boss is null and P.weight > {}"
        assert run(db, text.format(1.0))[0] == [("bolt",), ("cog",)]
        assert run(db, text.format(2.0)) == ([("cog",)], "hit", True)

    def test_adt_constructor_arguments(self, small_company):
        db = small_company
        text = 'retrieve (E.name) from E in Employees where E.birthday = Date("{}")'
        assert run(db, text.format("7/4/1948")) == ([("Sue",)], "miss", False)
        assert run(db, text.format("7/5/1948")) == ([], "hit", True)

    def test_runtime_errors_follow_the_current_values(self, small_company):
        db = small_company
        text = "retrieve (E.age / {}) from E in Employees where E.name = \"Sue\""
        assert run(db, text.format(4))[0] == [(10,)]
        with pytest.raises(EvaluationError, match="division by zero"):
            db.execute(text.format(0))
        assert run(db, text.format(8)) == ([(5,)], "hit", True)


class TestPinnedSlots:
    def test_enum_labels_are_checked_per_value(self, parts):
        db = parts
        text = 'retrieve (P.pname) from P in Parts where P.status {} "{}"'
        assert run(db, text.format("=", "active")) == ([("bolt",)], "miss", False)
        # the binder validated "active": another label is another key
        assert run(db, text.format("=", "draft")) == ([("nut",)], "miss", False)
        assert run(db, text.format("=", "active")) == ([("bolt",)], "hit", False)
        with pytest.raises(BindError, match="'bogus' is not a label"):
            db.execute(text.format("=", "bogus"))
        # ordinal order, not lexicographic: retired > active > draft
        assert run(db, text.format(">", "draft"))[0] == [("bolt",), ("cog",)]
        assert run(db, text.format(">", "active"))[0] == [("cog",)]
        assert db.interpreter.plan_cache.stats()["pinned_slots"] == 2

    def test_reference_assignability_is_a_bind_error_every_time(self, parts):
        db = parts
        text = 'replace P (boss = "{}") from P in Parts where P.weight > 1.0'
        for value in ("x", "y"):
            with pytest.raises(BindError, match="must be an object"):
                db.execute(text.format(value))

    def test_explain_is_keyed_by_its_literals(self, small_company):
        db = small_company
        text = "explain retrieve (E.name) from E in Employees where E.age > {}"
        first = db.execute(text.format(35))
        assert first.metrics["cache"] == "miss"
        assert 'E.age > 35' in first.plan_tree
        other = db.execute(text.format(45))
        assert other.metrics["cache"] == "miss"
        assert 'E.age > 45' in other.plan_tree
        again = db.execute(text.format(35))
        assert (again.metrics["cache"], again.metrics["shape_hit"]) == ("hit", False)
        assert again.message.endswith("cache=hit")
        assert again.plan_tree == first.plan_tree

    def test_unrecognised_reader_pins_its_slot(self, small_company):
        """Anything that reads ``Param.value`` — here: a stand-in for a
        stage nobody taught about parameters, running after the plan was
        cached — turns the slot into part of the key."""
        db = small_company
        text = "retrieve (E.name) from E in Employees where E.age > {}"
        db.execute(text.format(35))
        plan = cached(db, text.format(35))
        (param,) = [
            expr.right
            for op in plan_ops(plan.plan_root)
            for expr in op.exprs()
            if isinstance(getattr(expr, "right", None), Param)
        ]
        assert param.value == 35  # the prepared value; the read pins
        assert run(db, text.format(45)) == ([("Ann",)], "miss", False)
        assert db.interpreter.plan_cache.stats()["pinned_slots"] == 1
        assert run(db, text.format(35))[1] == "miss"  # re-keyed by value
        assert run(db, text.format(45)) == ([("Ann",)], "hit", False)
        assert run(db, text.format(35))[1:] == ("hit", False)

    def test_session_range_literals_never_become_slots(self, db):
        """A ``range of`` declaration was parsed as its own statement:
        its literal numbering must not leak into the statements bound
        under it (``Interval(2, 4)`` holds that script's slots 0 and 1)."""
        db.execute("range of I is Interval(2, 4)")
        text = "retrieve (I + {}) where I > {}"
        assert run(db, text.format(10, 2)) == ([(13,), (14,)], "miss", False)
        assert run(db, text.format(20, 3)) == ([(24,)], "hit", True)


class TestValueSensitiveSlots:
    @pytest.fixture
    def company(self):
        db = build_company_database(
            CompanyWorkload(departments=4, employees=400, seed=3)
        )
        db.execute("create index on Employees (salary) using btree")
        db.execute("analyze")
        db.interpreter.parallel_mode = "off"
        db.interpreter.plan_cache.clear()
        return db

    def test_estimates_a_power_of_ten_apart_never_share_a_plan(self, company):
        db = company
        text = "retrieve (E.name) from E in Employees where E.salary >= {}"
        salaries = sorted(
            r[0] for r in db.execute("retrieve (E.salary) from E in Employees").rows
        )
        low, high = salaries[0], salaries[-1]
        everything = db.execute(text.format(low - 1.0))
        almost_nothing = db.execute(text.format(high - 0.5))
        assert everything.metrics["cache"] == almost_nothing.metrics["cache"] == "miss"
        # each was costed with its own estimate
        assert f"(est={len(salaries)}," in everything.plan_tree
        assert f"(est={len(salaries)}," not in almost_nothing.plan_tree
        # values whose estimates agree to the power of ten do share
        near = db.execute(text.format(high - 0.25))
        assert (near.metrics["cache"], near.metrics["shape_hit"]) == ("hit", True)
        assert len(near.rows) == sum(s >= high - 0.25 for s in salaries)
        stats = db.interpreter.plan_cache.stats()
        assert stats["shapes"] == 2 and stats["entries"] == 3  # + the salary scan
        assert stats["pinned_slots"] == 0

    def test_each_value_gets_the_plan_a_cold_cache_would_choose(self, company):
        db = company
        text = "retrieve (E.name) from E in Employees where E.salary >= {}"
        salaries = sorted({r[0] for r in db.execute("retrieve (E.salary) from E in Employees").rows})
        for value in [salaries[0], salaries[len(salaries) // 2], salaries[-3], salaries[-1]]:
            warm = db.execute(text.format(value))
            db.interpreter.plan_cache.clear()
            fresh = db.execute(text.format(value))
            assert warm.rows == fresh.rows
            assert warm.plan.index_scans == fresh.plan.index_scans

    def test_index_vs_scan_crossover_inside_one_decade(self, company):
        # selectivities 0.8 and 0.3 share a power of ten but fall on
        # either side of the weak-index threshold: a probe that barely
        # filters is demoted to scan + hash join, a sharper one is kept
        db = company
        db.execute("create index on Employees (age) using btree")
        db.execute("analyze")
        text = (
            "retrieve (E.name, D.dname) from E in Employees, D in Departments "
            "where E.dept is D and E.age > {}"
        )
        ages = sorted(r[0] for r in db.execute("retrieve (E.age) from E in Employees").rows)
        weak, sharp = ages[len(ages) // 5], ages[len(ages) * 7 // 10]
        scanned = db.execute(text.format(weak))
        probed = db.execute(text.format(sharp))
        assert scanned.plan.index_scans == [] and probed.plan.index_scans
        assert probed.metrics["cache"] == "miss"
        for value, first in ((weak + 1, scanned), (sharp + 1, probed)):
            again = db.execute(text.format(value))
            assert (again.metrics["cache"], again.metrics["shape_hit"]) == ("hit", True)
            assert again.plan.index_scans == first.plan.index_scans
            db.interpreter.plan_cache.enabled = False
            assert again.rows == db.execute(text.format(value)).rows
            db.interpreter.plan_cache.enabled = True


class TestNoStaleConstants:
    JOIN = (
        "retrieve (E.name, D.dname) from E in Employees, D in Departments "
        "where E.dept is D and D.floor >= {} sort by E.name"
    )

    def test_hash_build_memo_is_stamped_with_the_values_it_read(self, small_company):
        db = small_company
        db.interpreter.parallel_mode = "off"
        both = db.execute(self.JOIN.format(1))
        assert both.rows == [("Ann", "Toys"), ("Bob", "Shoes"), ("Sue", "Toys")]
        assert both.metrics["hash_builds"] == 1
        upstairs = db.execute(self.JOIN.format(2))
        assert upstairs.metrics["cache"] == "hit"
        assert upstairs.rows == [("Ann", "Toys"), ("Sue", "Toys")]
        assert upstairs.metrics["hash_builds"] == 1  # rebuilt, not reused
        again = db.execute(self.JOIN.format(2))
        assert again.rows == upstairs.rows and again.metrics["hash_builds"] == 0

    def test_probe_side_values_leave_the_memo_alone(self, small_company):
        db = small_company
        db.interpreter.parallel_mode = "off"
        text = (
            "retrieve (E.name, E.age + {}) from E in Employees, D in Departments "
            "where E.dept is D and D.floor >= {} sort by E.name"
        )
        assert db.execute(text.format(1, 1)).rows == [("Ann", 51), ("Bob", 31), ("Sue", 41)]
        (join,) = [
            op for op in plan_ops(cached(db, text.format(1, 1)).plan_root)
            if isinstance(op, HashJoin)
        ]
        assert join.__dict__["_build_slots"] == (1,)  # only the floor bound
        shifted = db.execute(text.format(2, 1))
        assert shifted.rows == [("Ann", 52), ("Bob", 32), ("Sue", 42)]
        assert shifted.metrics["hash_builds"] == 0
        upstairs = db.execute(text.format(2, 2))
        assert upstairs.rows == [("Ann", 52), ("Sue", 42)]
        assert upstairs.metrics["hash_builds"] == 1

    def test_lazy_renderings_show_their_own_execution(self, small_company):
        db = small_company
        text = "retrieve (E.name) from E in Employees where E.age > {}"
        first = db.execute(text.format(35))
        second = db.execute(text.format(45))
        assert second.metrics["cache"] == "hit"
        # rendered only now, after the plan ran under other values
        assert "E.age > 35" in first.plan_tree and "E.age > 45" not in first.plan_tree
        assert "E.age > 45" in second.plan_tree
        assert "# Filter E.age > 35" in first.pipeline_source
        assert "# Filter E.age > 45" in second.pipeline_source
        assert "_params[0]" in second.pipeline_source

    def test_plans_pickle_and_run_under_any_values(self, small_company):
        db = small_company
        db.interpreter.parallel_mode = "off"
        text = "retrieve (E.name) from E in Employees where E.age > {}"
        db.execute(text.format(35))
        plan = cached(db, text.format(35))
        revived = pickle.loads(pickle.dumps(plan.plan_root))
        for params, want in [((35,), [("Sue",), ("Ann",)]), ((45,), [("Ann",)])]:
            for mode in ("closure", "off"):
                evaluator = Evaluator(
                    db, flags=Flags(compile_mode=mode), params=params
                )
                ctx = PlanContext(evaluator)
                assert evaluator._plan_rows(revived, {}, ctx) == want

    def test_parallel_fragments_take_their_values_per_task(self):
        db = build_company_database(
            CompanyWorkload(departments=4, employees=6000, seed=11)
        )
        interpreter = db.interpreter
        interpreter.parallel_mode = "process"
        interpreter.workers = 2
        text = "retrieve (E.name, E.salary) from E in Employees where E.salary > {}"
        try:
            db.execute(text.format(100))
            merge = cached(db, text.format(100)).plan_root
            assert merge.label == "ExchangeMerge"
            # one pickled fragment, shipped once, run under two vectors
            frag = pickle.loads(pickle.dumps(merge.children[0]))
            interpreter.parallel_mode = "off"
            for bound in (100, 60000):
                serial = db.execute(text.format(bound)).rows
                flags = ParallelRunner._flags(Evaluator(db, params=(bound,)))
                gathered = []
                for part in range(merge.dop):
                    rows, _stats = run_fragment_task(
                        db, frag, part, merge.dop, "range", flags
                    )
                    gathered.extend(rows)
                assert gathered == serial
        finally:
            interpreter.shutdown_parallel()


class TestBookkeeping:
    def test_one_shape_with_many_subkeys_obeys_the_lru(self, parts):
        db = parts
        cache = db.interpreter.plan_cache
        cache.capacity = 2
        text = 'retrieve (P.pname) from P in Parts where P.status = "{}"'
        for label in ("draft", "active", "retired"):
            assert run(db, text.format(label))[1] == "miss"
        assert len(cache) == 2 and cache.stats()["shapes"] == 1
        assert run(db, text.format("retired"))[1] == "hit"
        assert run(db, text.format("draft"))[1] == "miss"  # evicted first
        db.execute("retrieve (P.pname) from P in Parts")
        db.execute("retrieve (P.weight) from P in Parts")
        # the enum shape's last entries aged out, and its record with them
        assert cache.stats()["shapes"] == 2 and cache.stats()["pinned_slots"] == 0

    def test_disabled_cache_plans_every_statement(self, small_company):
        db = small_company
        db.interpreter.plan_cache.enabled = False
        for name, dept in (("Sue", "Toys"), ("Bob", "Shoes")):
            assert run(db, POINT.format(name)) == ([(name, dept)], "off", False)
        assert len(db.interpreter.plan_cache) == 0

    def test_stats_keep_their_keys_and_gain_shapes(self, small_company):
        stats = small_company.interpreter.plan_cache.stats()
        assert set(stats) == {"entries", "hits", "misses", "shapes", "pinned_slots"}

    def test_first_execution_matches_a_cold_engine(self):
        from tests.conftest import build_small_company

        text = POINT.format("Ann")
        warm = build_small_company()
        warm.execute(POINT.format("Sue"))
        hit = warm.execute(text)
        fresh = cold(build_small_company, text)
        assert hit.rows == fresh.rows and hit.columns == fresh.columns
        assert hit.plan_tree == fresh.plan_tree

    def test_a_shape_scan_the_parser_disagrees_with_runs_uncached(
        self, small_company, monkeypatch
    ):
        # the parser numbers the slots, the shape scan lifts the values:
        # were the two ever to differ, no plan may run under the scan's
        # vector — the statement executes the way scripts do
        from repro.excess.lexer import Lexer

        scan = Lexer.shape
        monkeypatch.setattr(
            Lexer, "shape", lambda self: (scan(self)[0], ("Nobody",))
        )
        db = small_company
        for name, dept in (("Sue", "Toys"), ("Bob", "Shoes"), ("Sue", "Toys")):
            assert db.execute(POINT.format(name)).rows == [(name, dept)]
        assert db.interpreter.plan_cache.stats()["entries"] == 0

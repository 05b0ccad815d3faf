"""Physical plan IR tests.

Covers the Volcano-style operator pipeline introduced for the plan IR
refactor: lowering shapes (which operators a query lowers to), the
rendered operator tree with estimated and actual per-operator row
counts, hash-join build-table invalidation across statements in one
session, the stable null-last sort contract, plan-cache invalidation
edge cases, and the guarantee that the evaluator itself carries no
join/scan strategy branching anymore.
"""

import pytest

from repro.core.values import NULL, Ref
from repro.errors import AuthorizationError, EvaluationError
from repro.excess import plan as plan_ir
from repro.excess.evaluator import Evaluator
from repro.excess.plan import join_key, sort_rows

JOIN_QUERY = (
    "retrieve (E.name, D.dname) from E in Employees, D in Departments "
    "where E.dept is D"
)
VALUE_JOIN_QUERY = (
    "retrieve (E.name, M.name) from E in Employees, M in Employees "
    "where E.age = M.age"
)


class TestEvaluatorIsThin:
    """All strategy decisions moved out of the evaluator (acceptance)."""

    def test_no_strategy_branching_left(self):
        for legacy in (
            "_iterate",
            "_source_values",
            "_index_scan",
            "_build_hash_table",
            "_hash_table_for",
            "_check_universal",
            "_sort_rows",
        ):
            assert not hasattr(Evaluator, legacy), legacy

    def test_retrieve_flows_through_cached_pipeline(self, small_company):
        text = "retrieve (E.name) from E in Employees where E.age > 30"
        small_company.execute(text)
        key = small_company.interpreter._cache_key(
            text, "dba", small_company.default_session
        )
        prepared = small_company.interpreter.plan_cache.get(key)
        assert prepared is not None
        assert prepared.plan_root is prepared.bound.pipeline
        assert isinstance(prepared.plan_root, plan_ir.Project)


class TestLoweringShapes:
    def _tree(self, db, text):
        result = db.execute(text)
        assert result.plan_tree is not None
        return result.plan_tree, result

    def test_seq_scan_and_filter(self, small_company):
        tree, result = self._tree(
            small_company,
            "retrieve (E.name) from E in Employees where E.age > 30",
        )
        assert "SeqScan Employees as E" in tree
        assert "Filter" in tree
        assert "Project [name]" in tree
        assert len(result.rows) == 2

    def test_hash_join_tree_with_roles(self, small_company):
        tree, result = self._tree(small_company, JOIN_QUERY)
        assert "HashJoin" in tree
        assert "[outer]" in tree and "[build]" in tree
        assert "SeqScan Departments as D" in tree
        assert len(result.rows) == 3

    def test_nested_loop_when_hash_joins_disabled(self, small_company):
        interp = small_company.interpreter
        try:
            interp.hash_joins = False
            tree, _result = self._tree(small_company, JOIN_QUERY)
        finally:
            interp.hash_joins = True
        assert "NestedLoopJoin" in tree
        assert "HashJoin" not in tree

    def test_path_expand(self, small_company):
        tree, result = self._tree(
            small_company,
            "retrieve (E.name, K.name) from E in Employees, K in E.kids",
        )
        assert "PathExpand E.kids as K" in tree
        assert len(result.rows) == 3

    def test_index_scan_after_create_index(self, small_company):
        small_company.execute("create index on Employees (age) using btree")
        tree, result = self._tree(
            small_company,
            "retrieve (E.name) from E in Employees where E.age = 40",
        )
        assert "IndexScan" in tree
        assert [r[0] for r in result.rows] == ["Sue"]

    def test_index_range_scan(self, small_company):
        small_company.execute("create index on Employees (age) using btree")
        tree, result = self._tree(
            small_company,
            "retrieve (E.name) from E in Employees where E.age >= 40",
        )
        assert "IndexScan" in tree
        assert sorted(r[0] for r in result.rows) == ["Ann", "Sue"]

    def test_function_scan(self, small_company):
        tree, result = self._tree(
            small_company, "retrieve (I) from I in Interval(1, 3)"
        )
        assert "FunctionScan Interval" in tree
        assert [r[0] for r in result.rows] == [1, 2, 3]

    def test_universal_check_with_where(self, small_company):
        tree, result = self._tree(
            small_company,
            "retrieve (D.dname) from D in Departments, E in every Employees "
            "where E.dept isnot D or E.age > 25",
        )
        assert "UniversalCheck forall E" in tree
        assert len(result.rows) == 2

    def test_no_universal_check_without_where(self, small_company):
        tree, _result = self._tree(
            small_company,
            "retrieve (D.dname) from D in Departments, E in every Employees",
        )
        assert "UniversalCheck" not in tree
        assert "SeqScan Employees" not in tree  # never iterated (vacuous)

    def test_sort_project_store_into(self, small_company):
        tree, _result = self._tree(
            small_company,
            "retrieve unique into Roster (E.name) from E in Employees "
            "sort by E.name",
        )
        assert "StoreInto Roster" in tree
        assert "Sort [E.name]" in tree
        assert "Project unique [name]" in tree
        stored = small_company.execute("retrieve (R.name) from R in Roster")
        assert len(stored.rows) == 3

    def test_aggregate_operator(self, small_company):
        tree, result = self._tree(
            small_company,
            "retrieve (E.name) from E in Employees "
            "where E.salary > avg(E.salary)",
        )
        assert "Aggregate" in tree
        assert [r[0] for r in result.rows] == ["Ann"]

    def test_semi_join_probe(self, small_company):
        db = small_company
        db.execute("create {ref Employee} Team")
        db.execute(
            "append to Team (E) from E in Employees where E.salary > 45000.0"
        )
        tree, result = self._tree(
            db, "retrieve (E.name) from E in Employees where E in Team"
        )
        assert "SemiJoinProbe" in tree
        assert "probes=" in tree
        assert sorted(r[0] for r in result.rows) == ["Ann", "Sue"]

    def test_singleton_for_bindingless_query(self, small_company):
        tree, result = self._tree(small_company, "retrieve (Today)")
        assert "Singleton" in tree
        assert len(result.rows) == 1


class TestPlanTreeCounters:
    def test_executed_tree_shows_actual_rows(self, small_company):
        result = small_company.execute(JOIN_QUERY)
        tree = result.plan_tree
        # per-operator actuals: 3 employees scanned, 3 rows joined out
        assert "SeqScan Employees as E (est=3, rows=3" in tree
        assert "builds=1 probes=3" in tree

    def test_explain_tree_shows_estimates_only(self, small_company):
        result = small_company.execute("explain " + JOIN_QUERY)
        assert result.plan_tree is not None
        assert "HashJoin" in result.plan_tree
        assert "est=" in result.plan_tree
        assert "rows=" not in result.plan_tree  # nothing executed

    def test_filter_counts_rows_in_and_out(self, small_company):
        result = small_company.execute(
            "retrieve (E.name) from E in Employees where E.age > 30"
        )
        plan = small_company.interpreter.plan_cache.get(
            small_company.interpreter._cache_key(
                "retrieve (E.name) from E in Employees where E.age > 30", "dba",
                small_company.default_session,
            )
        )
        filt = next(
            op
            for op in plan_ir.walk_plan(plan.plan_root)
            if isinstance(op, plan_ir.Filter)
        )
        assert filt.stats.rows_in == 3
        assert filt.stats.rows_out == 2
        assert len(result.rows) == 2

    def test_stats_reset_between_executions(self, small_company):
        text = "retrieve (E.name) from E in Employees"
        small_company.execute(text)
        result = small_company.execute(text)
        assert result.metrics["cache"] == "hit"
        # counters describe the latest run, not the session total
        assert "rows=3" in result.plan_tree
        assert "rows=6" not in result.plan_tree


class TestHashJoinBuildInvalidation:
    """Satellite: build tables must not go stale across statements."""

    def test_append_to_build_side_seen_by_cached_plan(self, small_company):
        db = small_company
        first = db.execute(JOIN_QUERY)
        assert first.metrics["hash_builds"] == 1
        db.execute(
            'append to Departments (dname = "Wands", floor = 3, '
            "budget = 50000.0)"
        )
        db.execute(
            'append to Employees (name = "Mei", age = 28, salary = 45000.0, '
            'dept = D) from D in Departments where D.dname = "Wands"'
        )
        second = db.execute(JOIN_QUERY)
        assert second.metrics["cache"] == "hit"  # same cached plan object
        assert second.metrics["hash_builds"] == 1  # table was rebuilt
        assert ("Mei", "Wands") in second.rows

    def test_delete_from_build_side_seen_by_cached_plan(self, small_company):
        db = small_company
        assert ("Bob", "Shoes") in db.execute(JOIN_QUERY).rows
        db.execute('delete D from D in Departments where D.dname = "Shoes"')
        second = db.execute(JOIN_QUERY)
        assert second.metrics["cache"] == "hit"
        assert all(dname != "Shoes" for _name, dname in second.rows)

    def test_replace_changing_join_keys_rebuilds(self, small_company):
        db = small_company
        before = db.execute(VALUE_JOIN_QUERY)
        assert len(before.rows) == 3  # no two employees share an age
        db.execute(
            'replace E (age = 40) from E in Employees where E.name = "Bob"'
        )
        second = db.execute(VALUE_JOIN_QUERY)
        assert second.metrics["cache"] == "hit"
        assert ("Sue", "Bob") in second.rows and ("Bob", "Sue") in second.rows

    def test_unchanged_data_reuses_memoized_build_table(self, small_company):
        db = small_company
        first = db.execute(JOIN_QUERY)
        assert first.metrics["hash_builds"] == 1
        second = db.execute(JOIN_QUERY)
        # nothing mutated: the memoized table is reused, probes still happen
        assert second.metrics["hash_builds"] == 0
        assert second.metrics["hash_probes"] == 3
        assert sorted(second.rows) == sorted(first.rows)

    def test_abort_restores_pre_transaction_build_data(self, small_company):
        db = small_company
        db.execute(JOIN_QUERY)
        db.execute("begin")
        db.execute('delete D from D in Departments where D.dname = "Shoes"')
        assert all(
            dname != "Shoes" for _n, dname in db.execute(JOIN_QUERY).rows
        )
        db.execute("abort")
        after = db.execute(JOIN_QUERY)
        assert ("Bob", "Shoes") in after.rows


class TestSortContract:
    """Satellite: stable sort, null keys deterministically last."""

    def test_duplicate_keys_preserve_input_order(self, small_company):
        # Sue and Ann share floor 2 (Toys) and appear in insertion order
        result = small_company.execute(
            "retrieve (E.name, E.dept.floor) from E in Employees "
            "sort by E.dept.floor"
        )
        assert [r[0] for r in result.rows] == ["Bob", "Sue", "Ann"]

    def test_nulls_last_ascending_and_descending(self, small_company):
        db = small_company
        db.execute(
            'append to Employees (name = "Mei", age = 28, salary = 45000.0)'
        )
        ascending = db.execute(
            "retrieve (E.name) from E in Employees sort by E.dept.floor"
        )
        descending = db.execute(
            "retrieve (E.name) from E in Employees sort by E.dept.floor desc"
        )
        assert ascending.rows[-1] == ("Mei",)  # null floor sorts last
        assert descending.rows[-1] == ("Mei",)  # ... in both directions
        assert [r[0] for r in descending.rows[:3]] == ["Sue", "Ann", "Bob"]

    def test_sort_rows_stability_unit(self):
        pairs = [
            (("a", 1), (1,)),
            (("b", 2), (2,)),
            (("c", 1), (1,)),
            (("d", 2), (2,)),
            (("e", 1), (1,)),
        ]
        rows = sort_rows(list(pairs), [(None, False)])
        assert rows == [("a", 1), ("c", 1), ("e", 1), ("b", 2), ("d", 2)]
        rows = sort_rows(list(pairs), [(None, True)])
        assert rows == [("b", 2), ("d", 2), ("a", 1), ("c", 1), ("e", 1)]

    def test_sort_rows_nulls_and_mixed_keys_unit(self):
        pairs = [
            (("n",), (NULL,)),
            (("x",), (3,)),
            (("m",), (NULL,)),
            (("y",), (1,)),
        ]
        assert sort_rows(list(pairs), [(None, False)]) == [
            ("y",), ("x",), ("n",), ("m",),
        ]
        assert sort_rows(list(pairs), [(None, True)]) == [
            ("x",), ("y",), ("n",), ("m",),
        ]

    def test_sort_rows_ref_and_bool_keys_unit(self):
        pairs = [(("a",), (Ref(5),)), (("b",), (Ref(2),))]
        assert sort_rows(list(pairs), [(None, False)]) == [("b",), ("a",)]
        pairs = [(("t",), (True,)), (("f",), (False,))]
        assert sort_rows(list(pairs), [(None, False)]) == [("f",), ("t",)]

    def test_sort_rows_incomparable_raises(self):
        pairs = [(("a",), (1,)), (("b",), ("x",))]
        with pytest.raises(EvaluationError, match="not mutually comparable"):
            sort_rows(pairs, [(None, False)])


class TestJoinKey:
    def test_equality_drops_null_keys(self):
        assert join_key(NULL, "=") is None
        assert join_key(7, "=") == 7

    def test_is_keeps_null_and_refs(self):
        assert join_key(NULL, "is") == ("null",)
        # an object keys by its OID: no tuple per row
        assert join_key(Ref(9), "is") == 9

    def test_is_rejects_non_objects(self):
        with pytest.raises(EvaluationError, match="object references"):
            join_key(42, "is")


class TestPlanCacheEdges:
    """Satellite: invalidation edge cases."""

    def test_index_dropped_mid_session(self, small_company):
        db = small_company
        db.execute("create index on Employees (age) using btree")
        text = "retrieve (E.name) from E in Employees where E.age = 40"
        first = db.execute(text)
        assert "IndexScan" in first.plan_tree
        assert db.execute(text).metrics["cache"] == "hit"
        db.execute("drop index on Employees (age) using btree")
        after = db.execute(text)
        assert after.metrics["cache"] == "miss"
        assert "IndexScan" not in after.plan_tree
        assert "SeqScan" in after.plan_tree
        assert sorted(after.rows) == sorted(first.rows)

    def test_grant_revoked_for_cached_user(self, small_company):
        db = small_company
        db.execute("create user reader")
        db.execute("grant select on Employees to reader")
        db.authz.enabled = True
        text = "retrieve (E.name) from E in Employees"
        assert db.execute(text, user="reader").metrics["cache"] == "miss"
        assert db.execute(text, user="reader").metrics["cache"] == "hit"
        db.execute("revoke select on Employees from reader")
        with pytest.raises(AuthorizationError):
            db.execute(text, user="reader")
        # dba's own (distinct) cache entry still works after the revoke
        assert len(db.execute(text, user="dba").rows) == 3

    def test_optimizer_flag_is_part_of_the_key(self, small_company):
        db = small_company
        interp = db.interpreter
        text = "retrieve (E.name) from E in Employees where E.age > 30"
        with_opt = db.execute(text)
        assert with_opt.metrics["cache"] == "miss"
        try:
            interp.optimize = False
            without = db.execute(text)
            assert without.metrics["cache"] == "miss"  # distinct key
            assert sorted(without.rows) == sorted(with_opt.rows)
            assert db.execute(text).metrics["cache"] == "hit"
        finally:
            interp.optimize = True
        assert db.execute(text).metrics["cache"] == "hit"

    def test_hash_join_flag_is_part_of_the_key(self, small_company):
        db = small_company
        interp = db.interpreter
        db.execute(JOIN_QUERY)
        try:
            interp.hash_joins = False
            assert db.execute(JOIN_QUERY).metrics["cache"] == "miss"
        finally:
            interp.hash_joins = True
        assert db.execute(JOIN_QUERY).metrics["cache"] == "hit"


class TestReentrancy:
    def test_recursive_function_reenters_shared_plan(self, db):
        # subtree(a) re-enters subtree's (shared, cached) body pipeline
        # while the outer invocation is mid-iteration
        db.execute(
            """
            define type Node as (label: char(10), value: int4,
                                 nexts: {own ref Node})
            create {own ref Node} Nodes
            append to Nodes (label = "a", value = 1)
            append to N.nexts (label = "b", value = 2)
                from N in Nodes where N.label = "a"
            append to N.nexts (label = "c", value = 4)
                from N in Nodes where N.label = "a"
            define function subtree (N in Node) returns own int4 as
                retrieve (N.value + sum(subtree(M))) from M in N.nexts
            """
        )
        result = db.execute(
            'retrieve (subtree(N)) from N in Nodes where N.label = "a"'
        )
        assert result.rows == [(7,)]  # 1 + (2 + 0) + (4 + 0)


class TestRenderAndWalk:
    def test_walk_plan_preorder_and_reset(self, small_company):
        small_company.execute(JOIN_QUERY)
        prepared = small_company.interpreter.plan_cache.get(
            small_company.interpreter._cache_key(
                JOIN_QUERY, "dba", small_company.default_session
            )
        )
        ops = list(plan_ir.walk_plan(prepared.plan_root))
        assert isinstance(ops[0], plan_ir.Project)
        assert any(isinstance(op, plan_ir.HashJoin) for op in ops)
        assert any(op.stats.rows_out for op in ops)
        plan_ir.reset_stats(prepared.plan_root)
        assert all(op.stats.rows_out == 0 for op in ops)

    def test_describe_expr_renders_common_shapes(self, small_company):
        result = small_company.execute(
            'retrieve (E.name) from E in Employees '
            'where E.age > 30 and E.name != "Bob" and E.dept isnot null'
        )
        tree = result.plan_tree
        assert "age > 30" in tree
        assert 'name != "Bob"' in tree
        assert "isnot null" in tree

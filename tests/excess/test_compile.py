"""Unit tests for the bound-expression compiler (excess/compile.py).

Covers compilation totality (everything compiles, directly or via an
interpreter callback), baked-in null semantics, exact error-message
parity with the interpreter, the ``compiled=`` plan annotations, and the
plan-cache / ablation plumbing of ``interpreter.compile_mode``.
"""

from __future__ import annotations

import pickle

import pytest

from repro import Database
from repro.core.values import NULL
from repro.errors import EvaluationError, ExcessError
from repro.excess.binder import Binary, Const, Unary, VarRef
from repro.excess.compile import (
    CompiledExpr,
    compile_all,
    compile_expr,
    compiled_label,
)
from repro.excess.evaluator import Evaluator
from repro.excess.plan import PlanContext, plan_ops, render_plan


def _ctx(db: Database, mode: str = "closure") -> PlanContext:
    return PlanContext(Evaluator(db, compile_mode=mode))


def _run(db: Database, node) -> tuple:
    compiled = compile_expr(node)
    return compiled.fn({}, _ctx(db)), compiled.full


class TestDirectCompilation:
    def test_const(self, db):
        value, full = _run(db, Const(value=7))
        assert value == 7 and full

    def test_var_missing_reads_null(self, db):
        compiled = compile_expr(VarRef(name="X"))
        assert compiled.fn({}, _ctx(db)) is NULL
        assert compiled.full

    def test_var_bound(self, db):
        compiled = compile_expr(VarRef(name="X"))
        assert compiled.fn({"X": 3}, _ctx(db)) == 3

    def test_arith_and_nulls(self, db):
        for op, expect in [("+", 7), ("-", 3), ("*", 10), ("%", 1)]:
            node = Binary(
                op=op, left=Const(value=5), right=Const(value=2), kind="arith"
            )
            value, full = _run(db, node)
            assert value == expect and full
            with_null = Binary(
                op=op, left=Const(value=NULL), right=Const(value=2),
                kind="arith",
            )
            assert _run(db, with_null)[0] is NULL

    def test_division_exact_int_vs_float(self, db):
        exact = Binary(
            op="/", left=Const(value=6), right=Const(value=3), kind="arith"
        )
        inexact = Binary(
            op="/", left=Const(value=7), right=Const(value=2), kind="arith"
        )
        assert _run(db, exact)[0] == 2
        assert _run(db, inexact)[0] == 3.5

    def test_division_by_zero_message(self, db):
        node = Binary(
            op="/", left=Const(value=1), right=Const(value=0), kind="arith"
        )
        with pytest.raises(EvaluationError, match="division by zero"):
            _run(db, node)
        node = Binary(
            op="%", left=Const(value=1), right=Const(value=0), kind="arith"
        )
        with pytest.raises(EvaluationError, match="modulo by zero"):
            _run(db, node)

    def test_bad_arith_operands_message(self, db):
        node = Binary(
            op="-", left=Const(value="a"), right=Const(value="b"),
            kind="arith",
        )
        with pytest.raises(EvaluationError, match="bad arithmetic operands"):
            _run(db, node)

    def test_compare_and_null_propagation(self, db):
        lt = Binary(
            op="<", left=Const(value=1), right=Const(value=2), kind="compare"
        )
        assert _run(db, lt)[0] is True
        null_cmp = Binary(
            op="<", left=Const(value=NULL), right=Const(value=2),
            kind="compare",
        )
        assert _run(db, null_cmp)[0] is NULL

    def test_incomparable_message(self, db):
        node = Binary(
            op="<", left=Const(value=1), right=Const(value="x"),
            kind="compare",
        )
        with pytest.raises(EvaluationError, match="incomparable values"):
            _run(db, node)

    def test_enum_ordinal_comparison(self, db):
        labels = ("low", "mid", "high")
        node = Binary(
            op="<", left=Const(value="low"), right=Const(value="high"),
            kind="compare", enum_labels=labels,
        )
        assert _run(db, node)[0] is True
        bad = Binary(
            op="<", left=Const(value="nope"), right=Const(value="high"),
            kind="compare", enum_labels=labels,
        )
        with pytest.raises(
            EvaluationError, match="not a label of the enumeration"
        ):
            _run(db, bad)

    def test_concat(self, db):
        node = Binary(
            op="||", left=Const(value="a"), right=Const(value="b"),
            kind="concat",
        )
        assert _run(db, node)[0] == "ab"
        with_null = Binary(
            op="||", left=Const(value="a"), right=Const(value=NULL),
            kind="concat",
        )
        assert _run(db, with_null)[0] is NULL

    def test_kleene_and_or(self, db):
        def bool_node(op, left, right):
            return Binary(
                op=op, left=Const(value=left), right=Const(value=right),
                kind="bool",
            )

        truth = {True: True, False: False, NULL: NULL}
        for left in (True, False, NULL):
            for right in (True, False, NULL):
                expect_and = (
                    False
                    if left is False or right is False
                    else (NULL if NULL in (left, right) else True)
                )
                expect_or = (
                    True
                    if left is True or right is True
                    else (NULL if NULL in (left, right) else False)
                )
                assert _run(db, bool_node("and", left, right))[0] is truth[
                    expect_and
                ]
                assert _run(db, bool_node("or", left, right))[0] is truth[
                    expect_or
                ]

    def test_bool_short_circuit_skips_right(self, db):
        # right operand would raise; left False/True must short-circuit
        boom = Binary(
            op="<", left=Const(value=1), right=Const(value="x"),
            kind="compare",
        )
        false_and = Binary(
            op="and", left=Const(value=False), right=boom, kind="bool"
        )
        assert _run(db, false_and)[0] is False
        true_or = Binary(
            op="or", left=Const(value=True), right=boom, kind="bool"
        )
        assert _run(db, true_or)[0] is True

    def test_boolean_operand_error_message(self, db):
        node = Binary(
            op="and", left=Const(value=3), right=Const(value=True),
            kind="bool",
        )
        with pytest.raises(
            EvaluationError, match="boolean operand expected"
        ):
            _run(db, node)

    def test_unary_not_and_negate(self, db):
        assert _run(db, Unary(op="not", operand=Const(value=True)))[0] is False
        assert _run(db, Unary(op="not", operand=Const(value=NULL)))[0] is NULL
        assert _run(db, Unary(op="-", operand=Const(value=4)))[0] == -4
        assert _run(db, Unary(op="-", operand=Const(value=NULL)))[0] is NULL
        with pytest.raises(EvaluationError, match="cannot negate"):
            _run(db, Unary(op="-", operand=Const(value="x")))

    def test_unknown_node_falls_back(self, db):
        class Mystery:
            pass

        compiled = compile_expr(Mystery())
        assert isinstance(compiled, CompiledExpr)
        assert not compiled.full  # fallback into the interpreter
        with pytest.raises(EvaluationError, match="cannot evaluate Mystery"):
            compiled.fn({}, _ctx(db))

    def test_compile_all_aggregates_fullness(self, db):
        class Mystery:
            pass

        fns, full = compile_all([Const(value=1), Const(value=2)])
        assert full and len(fns) == 2
        _fns, full = compile_all([Const(value=1), Mystery()])
        assert not full

    def test_compiled_label(self):
        assert compiled_label(True) == "closure"
        assert compiled_label(False) == "fallback"


class TestPathSemantics:
    """AttrStep / IndexStepB closures against real database values."""

    def test_null_propagates_through_attr_chain(self, small_company):
        # Bob's dept is Shoes; a missing variable makes the whole chain null
        rows = small_company.execute(
            "retrieve (E.name) from E in Employees where E.dept.budget > 90000.0"
        ).rows
        assert sorted(rows) == [("Ann",), ("Sue",)]

    def test_out_of_range_array_read_is_null(self, small_company):
        result = small_company.execute("retrieve (TopTen[9].name)")
        assert result.rows == [(NULL,)]

    def test_array_index_error_message_parity(self, small_company):
        # the compiled closure must raise the interpreter's exact message
        for mode in ("closure", "off"):
            small_company.interpreter.compile_mode = mode
            with pytest.raises(
                EvaluationError, match="array index must be an integer"
            ):
                small_company.execute('retrieve (TopTen["x"].name)')
        small_company.interpreter.compile_mode = "closure"

    def test_dangling_ref_reads_null(self, small_company):
        small_company.execute(
            'delete E from E in Employees where E.name = "Ann"'
        )
        # StarEmployee pointed at Ann; dangling refs read as null
        result = small_company.execute("retrieve (StarEmployee.name)")
        assert result.rows == [(NULL,)]

    def test_is_null_on_dangling_ref(self, small_company):
        small_company.execute(
            'delete E from E in Employees where E.name = "Ann"'
        )
        result = small_company.execute(
            "retrieve (1) where StarEmployee is null"
        )
        assert result.rows == [(1,)]


class TestPlanAnnotations:
    def test_explain_marks_closure(self, small_company):
        tree = small_company.execute(
            "explain retrieve (E.name) from E in Employees where E.age > 35"
        ).plan_tree
        assert "Filter E.age > 35" in tree
        assert "compiled=closure" in tree
        assert "compiled=fallback" not in tree

    def test_explain_marks_fallback_for_function_calls(self, small_company):
        small_company.execute(
            "define function Pay (E in Employee) returns float8 as "
            "retrieve (E.salary)"
        )
        tree = small_company.execute(
            "explain retrieve (E.name) from E in Employees "
            "where Pay(E) > 45000.0"
        ).plan_tree
        assert "compiled=fallback" in tree

    def test_explain_marks_off_when_ablated(self, small_company):
        small_company.interpreter.compile_mode = "off"
        try:
            tree = small_company.execute(
                "explain retrieve (E.name) from E in Employees "
                "where E.age > 35"
            ).plan_tree
        finally:
            small_company.interpreter.compile_mode = "closure"
        assert "compiled=off" in tree
        assert "compiled=closure" not in tree

    def test_executed_plan_tree_annotated(self, small_company):
        result = small_company.execute(
            "retrieve (E.name) from E in Employees where E.age > 35"
        )
        assert "compiled=closure" in result.plan_tree

    def test_scans_carry_no_annotation(self, small_company):
        tree = small_company.execute(
            "explain retrieve (E.name) from E in Employees where E.age > 35"
        ).plan_tree
        for line in tree.splitlines():
            if line.strip().startswith("SeqScan"):
                assert "compiled=" not in line

    def test_explain_message_names_the_mode(self, small_company):
        message = small_company.execute(
            "explain retrieve (E.name) from E in Employees where E.age > 35"
        ).message
        assert "exprs=closure" in message


class TestAblationPlumbing:
    def test_cache_key_includes_compile_mode(self, small_company):
        interpreter = small_company.interpreter
        key_closure = interpreter._cache_key("retrieve (1)", "dba")
        interpreter.compile_mode = "off"
        try:
            key_off = interpreter._cache_key("retrieve (1)", "dba")
        finally:
            interpreter.compile_mode = "closure"
        assert key_closure != key_off

    def test_mode_flip_does_not_serve_stale_plan(self, small_company):
        query = "retrieve (E.name) from E in Employees where E.age > 35"
        interpreter = small_company.interpreter
        closure_tree = small_company.execute(query).plan_tree
        interpreter.compile_mode = "off"
        try:
            off_tree = small_company.execute(query).plan_tree
            off_rows = small_company.execute(query).rows
        finally:
            interpreter.compile_mode = "closure"
        assert "compiled=closure" in closure_tree
        assert "compiled=off" in off_tree
        assert sorted(off_rows) == sorted(small_company.execute(query).rows)

    def test_shell_meta_command(self):
        import io

        from repro.cli import Shell

        out = io.StringIO()
        shell = Shell(out=out)
        shell.meta("\\compile off")
        assert shell.db.interpreter.compile_mode == "off"
        shell.meta("\\compile on")
        assert shell.db.interpreter.compile_mode == "closure"
        assert "expression compilation" in out.getvalue()


class TestPickling:
    def test_compiled_caches_survive_pickling(self, small_company):
        """Plans carrying compiled closures must still pickle (transaction
        snapshots pickle bound statements), dropping the closures and
        recompiling lazily afterwards."""
        query = "retrieve (E.name) from E in Employees where E.age > 35"
        small_company.execute(query)  # compile on the cached plan
        interpreter = small_company.interpreter
        key = interpreter._cache_key(query, "dba")
        plan = interpreter.plan_cache.get(key)
        assert plan is not None
        root = plan.plan_root
        # fused execution caches generated pipeline functions; row/batch
        # execution caches per-operator compiled expressions — either way
        # something unpicklable lives on the tree
        assert any(
            op.__dict__.get("_compiled") is not None
            or op.__dict__.get("_fused") is not None
            for op in plan_ops(root)
        )
        revived = pickle.loads(pickle.dumps(root))
        for op in plan_ops(revived):
            assert op.__dict__.get("_compiled") is None
            assert op.__dict__.get("_fused") is None
        # the revived tree still renders (and recompiles) cleanly
        assert "compiled=closure" in render_plan(
            revived, actuals=False, compile_mode="closure"
        )

    def test_transactions_with_compiled_plans(self, small_company):
        small_company.execute(
            "retrieve (E.name) from E in Employees where E.age > 35"
        )
        small_company.execute("begin transaction")
        small_company.execute(
            'append to Departments (dname = "Games", floor = 3, '
            "budget = 1000.0)"
        )
        small_company.execute("abort")
        rows = small_company.execute(
            "retrieve (D.dname) from D in Departments"
        ).rows
        assert sorted(rows) == [("Shoes",), ("Toys",)]


class TestFilterCompiledPath:
    def test_multi_predicate_filter(self, small_company):
        # exercise the >1 predicate loop in Filter's compiled path:
        # pushdown puts both conjuncts on the binding's residual filter
        rows = small_company.execute(
            "retrieve (E.name) from E in Employees "
            "where E.age > 25 and E.salary < 55000.0 and E.age < 45"
        ).rows
        assert sorted(rows) == [("Bob",), ("Sue",)]

    def test_filter_annotation_present_on_multi(self, small_company):
        tree = small_company.execute(
            "explain retrieve (E.name) from E in Employees "
            "where E.age > 25 and E.salary < 55000.0"
        ).plan_tree
        assert "compiled=closure" in tree

    def test_filter_interpreted_path_matches(self, small_company):
        query = (
            "retrieve (E.name) from E in Employees "
            "where E.age > 25 and E.salary < 55000.0"
        )
        compiled_rows = small_company.execute(query).rows
        small_company.interpreter.compile_mode = "off"
        try:
            interpreted_rows = small_company.execute(query).rows
        finally:
            small_company.interpreter.compile_mode = "closure"
        assert sorted(compiled_rows) == sorted(interpreted_rows)


class TestEvaluatorCompiledAggregates:
    def test_partitioned_aggregate_parity(self, small_company):
        query = (
            "retrieve unique (E.dept.dname, avg(X.salary over X.dept)) "
            "from E in Employees, X in Employees where X.dept is E.dept"
        )
        compiled_rows = small_company.execute(query).rows
        small_company.interpreter.compile_mode = "off"
        try:
            interpreted_rows = small_company.execute(query).rows
        finally:
            small_company.interpreter.compile_mode = "closure"
        assert sorted(compiled_rows) == sorted(interpreted_rows)

    def test_correlated_aggregate_parity(self, small_company):
        query = "retrieve (E.name, count(E.kids)) from E in Employees"
        compiled_rows = small_company.execute(query).rows
        small_company.interpreter.compile_mode = "off"
        try:
            interpreted_rows = small_company.execute(query).rows
        finally:
            small_company.interpreter.compile_mode = "closure"
        assert sorted(compiled_rows) == sorted(interpreted_rows)


class TestEvaluatorConstruction:
    def test_default_mode_is_closure(self, db):
        assert Evaluator(db).compile_mode == "closure"

    def test_context_reads_mode(self, db):
        assert _ctx(db, "closure").compiled is True
        assert _ctx(db, "off").compiled is False

    def test_eval_expr_memoizes(self, small_company):
        evaluator = Evaluator(small_company)
        node = Const(value=5)
        assert evaluator._eval_expr(node, {}, {}) == 5
        assert id(node) in evaluator._compiled_memo
        first = evaluator._compiled_memo[id(node)]
        assert evaluator._eval_expr(node, {}, {}) == 5
        assert evaluator._compiled_memo[id(node)] is first


class TestFlagValidation:
    """The Python API rejects what the CLI and the wire already did."""

    @pytest.mark.parametrize(
        "flag, bad",
        [
            ("compile_mode", "closures"),
            ("compile_mode", True),
            ("exec_mode", "fusedd"),
            ("exec_mode", None),
        ],
    )
    def test_bad_mode_raises_and_keeps_value(self, db, flag, bad):
        before = getattr(db.interpreter, flag)
        with pytest.raises(ExcessError, match=f"{flag} must be one of"):
            setattr(db.interpreter, flag, bad)
        assert getattr(db.interpreter, flag) == before

    def test_valid_modes_accepted(self, db):
        for mode in ("off", "closure"):
            db.interpreter.compile_mode = mode
            assert db.interpreter.compile_mode == mode
        for mode in ("row", "batch", "fused"):
            db.interpreter.exec_mode = mode
            assert db.interpreter.exec_mode == mode

    def test_shell_reports_the_interpreter_error(self):
        import io

        from repro.cli import Shell

        out = io.StringIO()
        shell = Shell(out=out)
        shell.meta("\\compile maybe")
        shell.meta("\\batch many")
        shell.meta("\\batch 0")
        assert shell.db.interpreter.compile_mode == "closure"
        assert shell.db.interpreter.batch_size == 1024
        text = out.getvalue()
        assert "usage: \\compile on|off" in text
        assert "compile_mode must be one of ['closure', 'off'], got 'maybe'" in text
        assert "batch_size must be a positive integer, got 'many'" in text
        assert "batch_size must be a positive integer, got 0" in text
        shell.meta("\\batch 64")
        assert shell.db.interpreter.batch_size == 64


FLOORMATES = (
    "define function Floormates (E in Employee) returns {text} as "
    "retrieve (C.name) from C in Employees, D in Departments "
    "where C.dept is D and D.floor = E.dept.floor and C.age > 20 "
    "sort by C.name"
)
#: same shape, but Bob (age 30) divides by zero in the body's filter
FLOORMATES_FAILING = (
    "define function Ratio (E in Employee) returns {float8} as "
    "retrieve (C.salary / (C.age - 30)) from C in Employees, "
    "D in Departments where C.dept is D and D.floor = E.dept.floor "
    "sort by C.name"
)


def _cache_modes(root, slot: str) -> set:
    """Every compile mode with an entry in ``slot`` anywhere on the tree
    (``_fused`` entries that are None mean "not a fusable region")."""
    modes: set = set()
    for op in plan_ops(root):
        for mode, entry in op.__dict__.get(slot, {}).items():
            if entry is not None:
                modes.add(mode)
    return modes


class TestSharedPlanSeam:
    """EXCESS function bodies are bound and lowered once and then run by
    executions of *both* compile modes — the one place a plan node's
    per-mode expression cache is really shared."""

    @pytest.mark.parametrize("exec_mode", ["fused", "batch", "row"])
    def test_function_body_shared_across_modes(self, small_company, exec_mode):
        db = small_company
        interpreter = db.interpreter
        interpreter.parallel_mode = "off"
        interpreter.exec_mode = exec_mode
        db.execute(FLOORMATES)
        db.execute(FLOORMATES_FAILING)
        query = "retrieve (E.name, Floormates(E)) from E in Employees sort by E.name"
        failing = "retrieve (E.name, Ratio(E)) from E in Employees"
        function = db.catalog.lookup_function(db.type("Employee"), "Floormates")

        seen_rows, seen_errors, seen_modes = [], [], []
        for mode in ("closure", "off", "closure"):
            interpreter.compile_mode = mode
            rows = db.execute(query).rows
            seen_rows.append([(name, sorted(mates)) for name, mates in rows])
            with pytest.raises(EvaluationError) as info:
                db.execute(failing)
            seen_errors.append(str(info.value))
            body = function.bound.pipeline
            seen_modes.append(
                _cache_modes(body, "_compiled") | _cache_modes(body, "_fused")
            )

        assert seen_rows[0] == [
            ("Ann", ["Ann", "Sue"]), ("Bob", ["Bob"]), ("Sue", ["Ann", "Sue"])
        ]
        assert seen_rows[1] == seen_rows[0] and seen_rows[2] == seen_rows[0]
        assert seen_errors == ["division by zero"] * 3
        # one lowered body, one cache entry per mode that actually ran
        assert seen_modes == [{True}, {True, False}, {True, False}]

    def test_shared_plan_with_hash_join(self, small_company):
        """A top-level plan run directly under both modes: the hash-join
        keys, the filter and the projection each keep one entry per mode
        and produce the same rows and counters."""
        db = small_company
        db.interpreter.parallel_mode = "off"
        query = (
            "retrieve (E.name, D.dname) from E in Employees, D in Departments "
            "where E.dept is D and E.age > 35 sort by E.name"
        )
        db.execute(query)
        plan = db.interpreter.plan_cache.get(db.interpreter._cache_key(query, "dba"))
        root = plan.plan_root
        assert any(op.label == "HashJoin" for op in plan_ops(root))
        outcomes = []
        for mode in ("closure", "off", "closure"):
            for op in plan_ops(root):
                if op.label == "HashJoin":
                    op.invalidate()  # rebuild, so the build side runs too
            evaluator = Evaluator(
                db, compile_mode=mode, exec_mode="batch", params=plan.params
            )
            result = evaluator.run_retrieve(plan.bound)
            outcomes.append(
                (result.rows, [op.stats.rows_out for op in plan_ops(root)])
            )
        assert outcomes[0][0] == [("Ann", "Toys"), ("Sue", "Toys")]
        assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]
        for op in plan_ops(root):
            if op.exprs():
                assert set(op.__dict__["_compiled"]) == {True, False}

    @pytest.mark.parametrize("exec_mode", ["fused", "batch", "row"])
    def test_off_builds_no_closures(self, small_company, exec_mode, monkeypatch):
        """``compile_mode="off"`` must not lower a single expression to a
        closure — not to execute, and not to print ``compiled=off``."""
        from repro.excess import compile as compile_module

        db = small_company
        interpreter = db.interpreter
        interpreter.parallel_mode = "off"
        interpreter.exec_mode = exec_mode
        interpreter.compile_mode = "off"
        db.execute(FLOORMATES)

        def forbidden(node):
            raise AssertionError(f"closure built for {node!r} under off")

        monkeypatch.setattr(compile_module, "_compile", forbidden)
        query = (
            "retrieve (E.name, Floormates(E)) from E in Employees, "
            "D in Departments where E.dept is D and E.age > 35"
        )
        result = db.execute(query)
        assert len(result.rows) == 2
        assert "compiled=off" in result.plan_tree
        assert "compiled=closure" not in result.plan_tree
        explained = db.execute("explain " + query)
        assert "compiled=off" in explained.plan_tree
        plan = interpreter.plan_cache.get(interpreter._cache_key(query, "dba"))
        function = db.catalog.lookup_function(db.type("Employee"), "Floormates")
        for root in (plan.plan_root, function.bound.pipeline):
            assert _cache_modes(root, "_compiled") <= {False}
            assert _cache_modes(root, "_fused") <= {False}

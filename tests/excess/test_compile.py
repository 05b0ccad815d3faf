"""Unit tests for the bound-expression compiler (excess/compile.py).

Covers compilation totality (everything compiles, directly or via an
interpreter callback), baked-in null semantics, exact error-message
parity with the interpreter, the ``compiled=`` plan annotations, and the
plan-cache / ablation plumbing of ``interpreter.compile_mode``.
"""

from __future__ import annotations

import pickle
import re

import pytest

from repro import Database
from repro.core.types import INT4
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
from repro.excess.flags import Flags
from repro.excess.plan import PlanContext, fused_regions, plan_ops, render_plan


def _ctx(db: Database, mode: str = "closure") -> PlanContext:
    return PlanContext(Evaluator(db, flags=Flags(compile_mode=mode)))


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
        session = small_company.default_session
        key_closure = interpreter._cache_key("retrieve (1)", "dba", session)
        interpreter.compile_mode = "off"
        try:
            key_off = interpreter._cache_key("retrieve (1)", "dba", session)
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
        key = interpreter._cache_key(query, "dba", small_company.default_session)
        plan = interpreter.plan_cache.get(key)
        assert plan is not None
        root = plan.plan_root
        # fused execution caches generated pipeline functions; row
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

    def test_write_payload_compiled_once_per_plan(self, small_company):
        """A cached update's payload compiles once per compile mode, on
        the plan — not once per execution."""
        db = small_company
        interpreter = db.interpreter
        text = 'replace E (age = E.age + 1) from E in Employees where E.name = "Sue"'
        db.execute(text)
        plan = interpreter.plan_cache.get(
            interpreter._cache_key(text, "dba", db.default_session)
        )
        write = plan.bound.write
        first = write.fns(True)
        db.execute(text.replace("Sue", "Ann"))
        assert write.fns(True) is first
        assert write.fns(False) is not first
        assert len(write.fns(False)) == len(first) == 2


class TestFlagValidation:
    """The Python API rejects what the CLI and the wire already did."""

    @pytest.mark.parametrize(
        "flag, bad",
        [
            ("compile_mode", "closures"),
            ("compile_mode", True),
            ("exec_mode", "fusedd"),
            ("exec_mode", None),
            ("exec_mode", "batch"),
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
        for mode in ("row", "fused"):
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

    @pytest.mark.parametrize("exec_mode", ["fused", "row"])
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
        keys and the projection (batch operators) and the fused filter
        region each keep one entry per mode and produce the same rows
        and counters."""
        db = small_company
        db.interpreter.parallel_mode = "off"
        query = (
            "retrieve (E.name, D.dname) from E in Employees, D in Departments "
            "where E.dept is D and E.age > 35 sort by E.name"
        )
        db.execute(query)
        plan = db.interpreter.plan_cache.get(
            db.interpreter._cache_key(query, "dba", db.default_session)
        )
        root = plan.plan_root
        assert any(op.label == "HashJoin" for op in plan_ops(root))
        outcomes = []
        for mode in ("closure", "off", "closure"):
            for op in plan_ops(root):
                if op.label == "HashJoin":
                    op.invalidate()  # rebuild, so the build side runs too
            evaluator = Evaluator(
                db,
                flags=Flags(compile_mode=mode, exec_mode="fused"),
                params=plan.params,
            )
            result = evaluator.run_retrieve(plan.bound)
            outcomes.append(
                (result.rows, [op.stats.rows_out for op in plan_ops(root)])
            )
        assert outcomes[0][0] == [("Ann", "Toys"), ("Sue", "Toys")]
        assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]
        fused = {id(op) for region in fused_regions(root) for op in region}
        regions = [region[0] for region in fused_regions(root)]
        assert any(op.exprs() for region in fused_regions(root) for op in region)
        for op in regions:
            assert set(op.__dict__["_fused"]) == {True, False}
        for op in plan_ops(root):
            if op.exprs() and id(op) not in fused:
                assert set(op.__dict__["_compiled"]) == {True, False}

    @pytest.mark.parametrize("exec_mode", ["fused", "row"])
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
        plan = interpreter.plan_cache.get(
            interpreter._cache_key(query, "dba", db.default_session)
        )
        function = db.catalog.lookup_function(db.type("Employee"), "Floormates")
        for root in (plan.plan_root, function.bound.pipeline):
            assert _cache_modes(root, "_compiled") <= {False}
            assert _cache_modes(root, "_fused") <= {False}


class TestSchemaTypedLoops:
    """Fused code is generated from the static types: an object element's
    loop iterates the set's Refs and looks each record up once, and a
    read of a value attribute carries no dangling-reference check."""

    @staticmethod
    def source(db: Database, query: str) -> str:
        db.interpreter.parallel_mode = "off"
        return db.execute(query).pipeline_source

    @staticmethod
    def registers(source: str, attribute: str) -> list:
        return re.findall(rf"(_t\d+) = _o0\._slots\['{attribute}'\]", source)

    def test_value_reads_carry_no_checks(self, small_company):
        source = self.source(
            small_company,
            "retrieve (E.name) from E in Employees where E.age > 60",
        )
        assert "live_members(" not in source
        assert "_fetch(" not in source
        assert "_record(_m0.oid)" in source
        regs = self.registers(source, "age") + self.registers(source, "name")
        assert len(regs) == 2
        for reg in regs:
            assert f"isinstance({reg}" not in source
            assert f"{reg}.oid" not in source

    def test_ref_step_is_one_record_lookup(self, small_company):
        source = self.source(
            small_company,
            "retrieve (E.name, E.dept.floor) from E in Employees",
        )
        (dept,) = self.registers(source, "dept")
        assert source.count(f"_record({dept}.oid)") == 1
        assert f"{dept}.oid not in _live" not in source
        assert source.count("_record(") == 2

    @pytest.mark.parametrize(
        "query",
        [
            "retrieve (T.name, T.age) from T in Team",
            "retrieve (T) from T in Team",
            "retrieve (T) from T in Team where T.age > 5",
            "retrieve (T.name) from T in TopTen",
            "retrieve (T.name, K.name) from T in Team, K in T.kids",
            "retrieve (n = count(T.name)) from T in Team",
        ],
    )
    def test_dead_members_are_skipped(self, small_company, query):
        """Deleting Sue takes her out of every named set, but her kids
        die by cascade and stay in ``Team`` as dead members (and Sue in
        the ``TopTen`` array); the typed loop skips them before counting,
        as row mode's live-member list does."""
        db = small_company
        db.interpreter.parallel_mode = "off"
        db.execute("create {ref Person} Team")
        db.execute("append to Team (E) from E in Employees")
        db.execute("append to Team (K) from E in Employees, K in E.kids")
        db.execute('delete E from E in Employees where E.name = "Sue"')
        team = db.named("Team").value
        assert len(team.live_members(db.store.live)) == len(team) - 2
        observed = []
        for mode in ("row", "fused"):
            db.interpreter.exec_mode = mode
            result = db.execute(query)
            observed.append(
                (sorted(result.rows, key=repr), result.metrics["rows_scanned"])
            )
        assert observed[0] == observed[1]
        names = {row[0] for row in observed[1][0]}
        assert not names & {"Sue", "Tim", "Zoe"}

    def test_dangling_ref_read_is_null(self, small_company):
        """A ``ref`` slot read as a value keeps its liveness test: after
        Toys is deleted, Sue's and Ann's ``dept`` read as null."""
        db = small_company
        db.interpreter.parallel_mode = "off"
        db.execute('delete D from D in Departments where D.dname = "Toys"')
        query = "retrieve (E.name, E.dept, E.dept.floor) from E in Employees"
        observed = []
        for mode in ("row", "fused"):
            db.interpreter.exec_mode = mode
            observed.append(sorted(db.execute(query).rows, key=repr))
        assert observed[0] == observed[1]
        assert [row[1:] for row in observed[1] if row[0] != "Bob"] == [
            (NULL, NULL), (NULL, NULL)
        ]


#: the eight statements of the benchmark's ``analytic_scan_mem`` workload
ANALYTIC_TEMPLATES = {
    "filter_scan":
        "retrieve (E.name, E.salary) from E in Employees where E.age > 60",
    "ref_path":
        "retrieve (E.name, E.dept.floor) from E in Employees "
        "where E.dept.floor = 3",
    "unnest_kids":
        "retrieve (E.name, K.name) from E in Employees, K in E.kids "
        "where K.age > 16",
    "group_avg":
        "retrieve unique (E.dept.dname, a = avg(E.salary over E.dept)) "
        "from E in Employees",
    "global_agg":
        "retrieve (a = avg(E.salary), m = max(E.salary)) from E in Employees",
    "ref_join":
        "retrieve (E.name, D.dname) from E in Employees, D in Departments "
        "where E.dept is D and D.floor = 2",
    "self_join":
        "retrieve (E.name, F.name) from E in Employees, F in Employees "
        "where E.salary = F.salary and E.age = 64 and F.age = 21",
    "sort_top":
        "retrieve (E.name, E.salary) from E in Employees where E.age = 40 "
        "sort by E.salary desc, E.name",
}


class TestTypedValueCode:
    """Fused value code is specialised on the binder's static types: a
    comparison of two plain scalars is the bare operator, a key of one is
    the value itself, an object key is its OID, typed object levels take
    no class dispatch, and aggregates over one iteration share a pass."""

    @staticmethod
    def typed_registers(source: str) -> list:
        """Registers holding a read of a plain-scalar or ``ref``
        attribute."""
        return re.findall(
            r"(_t\d+) = _o\d+\._slots\['(?:name|age|salary|floor|dname|dept)'\]",
            source,
        )

    @staticmethod
    def loop_bodies(source: str) -> list:
        """Each generated function's code from its first loop on."""
        return [
            function[function.index("    for "):]
            for function in source.split("def _fused")[1:]
        ]

    @pytest.mark.parametrize("name", sorted(ANALYTIC_TEMPLATES))
    def test_no_class_dispatch_on_typed_values(self, small_company, name):
        source = TestSchemaTypedLoops.source(small_company, ANALYTIC_TEMPLATES[name])
        assert "_SCALARS" not in source
        assert "_veq(" not in source
        registers = self.typed_registers(source)
        assert registers
        for reg in registers:
            for dispatch in (
                f"{reg}.__class__",
                f"canonical_key({reg})",
                f"isinstance({reg}",
                f'("ref", {reg}',
            ):
                assert dispatch not in source
        for body in self.loop_bodies(source):
            assert "isinstance(" not in body
            assert "except TypeError" not in body

    def test_global_aggregates_share_one_sink(self, small_company):
        db = small_company
        db.interpreter.parallel_mode = "off"
        query = ANALYTIC_TEMPLATES["global_agg"]
        source = db.execute(query).pipeline_source
        assert source.count("# aggregate sink") == 1
        assert "# aggregate sink $agg1 = avg(E.salary), $agg2 = max(E.salary)" in source
        scanned = {}
        for mode in ("row", "fused"):
            db.interpreter.exec_mode = mode
            result = db.execute(query)
            assert result.rows == [(50000.0, 60000.0)]
            scanned[mode] = result.metrics["rows_scanned"]
        assert scanned == {"row": 3, "fused": 3}

    def test_ref_key_and_step_share_one_lookup(self, small_company):
        """``group_avg`` reads ``E.dept`` as its ``over`` key and steps
        through it to ``dname``: one slot read, one record lookup, and the
        partition table keyed by OID."""
        source = TestSchemaTypedLoops.source(
            small_company, ANALYTIC_TEMPLATES["group_avg"]
        )
        outer = source.split("# aggregate sink")[0]
        (dept,) = re.findall(r"(_t\d+) = _o0\._slots\['dept'\]", outer)
        assert outer.count("_record(") == 2  # the scan's and the step's
        assert f"{dept}.oid in _live" not in outer
        assert ".oid), _MISS)" in outer
        sink = source.split("# aggregate sink")[1]
        assert "_k = (None if" in sink

    def test_enum_and_adt_values_keep_the_generic_path(self):
        """No schema fixes the Python class an enum comparison orders
        by or an ADT function returns: both keep the generic code."""
        db = Database()
        db.interpreter.parallel_mode = "off"
        db.execute(
            "define type Job as (title: char(10), n: int4, "
            "grade: enum (low, mid, high)) create {own ref Job} Jobs"
        )
        db.catalog.adts.define_adt("Flag", type("Flag", (), {}))
        db.catalog.adts.define_function("Flag", "big", lambda n: n > 1, [INT4], None)
        for n, grade in enumerate(["low", "high", "mid"]):
            db.insert("Jobs", title=f"j{n}", n=n, grade=grade)
        enum = db.execute(
            'retrieve unique (J.grade) from J in Jobs where J.grade > "low"'
        )
        assert sorted(enum.rows) == [("high",), ("mid",)]
        assert "_fn0(_row, ctx)" in enum.pipeline_source  # the enum compare
        assert "_SELF_KEYED" in enum.pipeline_source  # the unique key
        adt = db.execute(
            "retrieve (J.title) from J in Jobs where big(J.n) = true"
        )
        assert adt.rows == [("j2",)]
        assert "_fn0(_row, ctx)" in adt.pipeline_source

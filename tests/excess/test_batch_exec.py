"""Fused execution: spill boundaries, ablation plumbing, and the
generated-pipeline machinery.

The equivalence of the two ``exec_mode`` settings over the paper corpus
is pinned by tests/integration/test_compile_parity.py; this module covers
what parity sweeps can't: edge cases at the row operators that run
between fused regions (sorts, and hash joins under a ``memory_budget`` —
empty inputs, spilled runs of one row, budgets that spill some
partitions or all of them), mid-stream errors, the plan-cache key,
EXPLAIN annotations, pipeline-region identification (including the
aggregate, nested-path and hash-join-probe regions; an unbudgeted hash
join's probe is fused, its build subtree a region of its own), the
counter parity of both modes over shapes that do not fuse, and the
never-pickle-generated-code contract.
"""

from __future__ import annotations

import pickle
import re

import pytest

from repro import Database
from repro.errors import EvaluationError
from repro.excess.compile import FusedPipeline, _RegionGen, fused_pipeline
from repro.excess.plan import (
    Filter,
    HashJoin,
    Project,
    SeqScan,
    fusable_ops,
    fused_regions,
    pipeline_sources,
    plan_ops,
    render_plan,
)
from tests.conftest import build_small_company

MODES = ("fused", "row")

#: memory budgets (bytes) for the spill boundaries: 0 is unbounded, 1
#: spills every row of a sort into a run of its own and every build
#: member of a hash join, and the others spill part of the input
BUDGETS = (0, 1, 200, 400, 1 << 20)


def run_in_mode(db: Database, query: str, mode: str, budget: int = 0):
    """Execute ``query`` under one exec_mode (and memory budget),
    restoring the session flags afterwards."""
    interpreter = db.interpreter
    saved_mode = interpreter.exec_mode
    saved_budget = interpreter.memory_budget
    interpreter.exec_mode = mode
    interpreter.memory_budget = budget
    try:
        return db.execute(query)
    finally:
        interpreter.exec_mode = saved_mode
        interpreter.memory_budget = saved_budget


def outcome_in_mode(db: Database, query: str, mode: str, budget: int = 0):
    """(rows, error-message) — exactly one of the two is None."""
    try:
        return run_in_mode(db, query, mode, budget).rows, None
    except EvaluationError as exc:
        return None, str(exc)


class TestSpillBoundaries:
    def test_empty_set_every_mode_and_budget(self, db):
        db.execute("define type Thing as (tag: int4)")
        db.execute("create {own Thing} Things")
        for mode in MODES:
            for budget in BUDGETS:
                result = run_in_mode(
                    db, "retrieve (T.tag) from T in Things sort by T.tag",
                    mode, budget,
                )
                assert result.rows == []

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_sort_across_budgets(self, small_company, budget):
        """3 employees against budgets that spill every row, some rows
        or none: runs of one row, a run plus an in-memory tail, and no
        run at all must merge to the unbudgeted row-mode order."""
        query = "retrieve (E.name) from E in Employees sort by E.name desc"
        expected = run_in_mode(small_company, query, "row").rows
        for mode in MODES:
            assert run_in_mode(small_company, query, mode, budget).rows == expected

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_join_and_aggregate_across_budgets(self, small_company, budget):
        queries = [
            "retrieve (E.name, D.dname) from E in Employees, "
            "D in Departments where E.dept is D",
            "retrieve unique (E.dept.dname, p = avg(E.salary over E.dept)) "
            "from E in Employees",
            "retrieve (E.name, c = count(E.kids)) from E in Employees",
        ]
        for query in queries:
            expected = run_in_mode(small_company, query, "row").rows
            for mode in MODES:
                got = run_in_mode(small_company, query, mode, budget).rows
                assert got == expected

    def test_updates_identical_across_modes(self):
        """A full update cycle must leave identical databases whichever
        exec_mode drives the binding pipelines."""
        snapshots = []
        for mode in MODES:
            db = build_small_company()
            db.interpreter.exec_mode = mode
            db.execute(
                "replace E (salary = E.salary * 1.1) from E in Employees "
                "where E.dept.floor = 2"
            )
            db.execute('delete E from E in Employees where E.name = "Bob"')
            db.execute(
                'append to Departments (dname = "Games", floor = 3, '
                "budget = 5000.0)"
            )
            rows = db.execute(
                "retrieve (E.name, E.salary) from E in Employees "
                "sort by E.name"
            ).rows
            depts = db.execute(
                "retrieve (D.dname) from D in Departments sort by D.dname"
            ).rows
            snapshots.append((rows, depts))
        assert snapshots[0] == snapshots[1]


class TestRowOracle:
    """``exec_mode="row"`` never builds or calls a generated region, not
    even where a budget makes the sort and the hash join spill."""

    @pytest.mark.parametrize(
        "query",
        [
            "retrieve (E.name, E.age) from E in Employees sort by E.name desc",
            "retrieve (E.name, M.name) from E in Employees, M in Employees "
            "where E.age = M.age and E.salary > 40000.0",
        ],
        ids=["budgeted-sort", "spilled-hash-join"],
    )
    def test_spilling_row_run_generates_no_region(self, query, monkeypatch):
        db = build_small_company()
        interpreter = db.interpreter
        interpreter.parallel_mode = "off"
        interpreter.exec_mode = "row"
        expected = db.execute(query).rows
        built = []
        original = _RegionGen.build

        def spy(self):
            built.append(self.ops[0])
            return original(self)

        monkeypatch.setattr(_RegionGen, "build", spy)
        interpreter.memory_budget = 1
        result = db.execute(query)
        assert "spill=[partitions=" in result.plan_tree
        assert result.rows == expected
        assert built == []
        root = interpreter.plan_cache.get(
            interpreter._cache_key(query, "dba", db.default_session)
        ).plan_root
        assert all(not op.__dict__.get("_fused") for op in plan_ops(root))


class TestMidBatchErrors:
    #: queries whose error fires mid-stream (after some rows succeeded)
    ERROR_QUERIES = [
        # Bob (age 30) divides by zero; Sue/Ann evaluate fine
        "retrieve (E.age / (E.age - 30)) from E in Employees",
        "retrieve (E.age % (E.age - 30)) from E in Employees",
        'retrieve (TopTen["x"].name)',
        # the same error raised by a Project fused over a hash join
        "retrieve (E.age / (E.age - 30), D.dname) from E in Employees, "
        "D in Departments where E.dept is D",
    ]

    @pytest.mark.parametrize("query", ERROR_QUERIES)
    def test_error_messages_byte_identical(self, small_company, query):
        outcomes = {
            mode: outcome_in_mode(small_company, query, mode)
            for mode in MODES
        }
        rows, message = outcomes["row"]
        assert message is not None
        assert outcomes["fused"] == (rows, message)

    def test_error_in_compiled_and_interpreted_fusion(self, small_company):
        """The fused function built from interpreter callbacks
        (compile_mode=off) raises the same error as the closure one."""
        query = self.ERROR_QUERIES[0]
        interpreter = small_company.interpreter
        messages = []
        for compile_mode in ("closure", "off"):
            interpreter.compile_mode = compile_mode
            try:
                _rows, message = outcome_in_mode(
                    small_company, query, "fused"
                )
                messages.append(message)
            finally:
                interpreter.compile_mode = "closure"
        assert messages[0] is not None
        assert messages[0] == messages[1]


class TestExecModePlumbing:
    def test_cache_key_includes_exec_mode(self, small_company):
        interpreter = small_company.interpreter
        keys = set()
        for mode in MODES:
            interpreter.exec_mode = mode
            keys.add(interpreter._cache_key(
                "retrieve (1)", "dba", small_company.default_session
            ))
        interpreter.exec_mode = "fused"
        assert len(keys) == 2

    def test_mode_flip_mid_session_reflected_in_explain(self, small_company):
        query = "retrieve (E.name) from E in Employees where E.age > 35"
        trees = {
            mode: run_in_mode(small_company, query, mode).plan_tree
            for mode in MODES
        }
        assert "exec=fused" in trees["fused"]
        assert "exec=row" not in trees["fused"]
        assert "exec=row" in trees["row"]
        assert "exec=fused" not in trees["row"]
        # and the rows agree whichever mode served the (distinct) plans
        rows = {
            mode: sorted(run_in_mode(small_company, query, mode).rows)
            for mode in MODES
        }
        assert rows["fused"] == rows["row"]

    def test_non_fusable_operators_are_labelled_row(self, small_company):
        query = "retrieve (E.name) from E in Employees sort by E.name"
        tree = run_in_mode(small_company, query, "fused").plan_tree
        sort_line = next(line for line in tree.splitlines() if "Sort" in line)
        assert "exec=row" in sort_line
        assert "batch" not in tree

    def test_explain_message_names_exec_mode(self, small_company):
        message = small_company.execute(
            "explain retrieve (E.name) from E in Employees "
            "where E.age > 35"
        ).message
        assert "exec=fused" in message
        assert "pipelines=1" in message

    def test_operator_counters_match_row_mode(self, small_company):
        """Filter rows_in/rows_out must agree between fused and row
        execution (the fused function folds its loop counters into the
        same OpStats the Volcano path increments per row)."""
        query = "retrieve (E.name) from E in Employees where E.age > 30"
        interpreter = small_company.interpreter
        counters = {}
        for mode in ("fused", "row"):
            run_in_mode(small_company, query, mode)
            interpreter.exec_mode = mode
            try:
                plan = interpreter.plan_cache.get(
                    interpreter._cache_key(query, "dba", small_company.default_session)
                )
            finally:
                interpreter.exec_mode = "fused"
            flt = next(
                op
                for op in plan_ops(plan.plan_root)
                if isinstance(op, Filter)
            )
            scan = next(
                op
                for op in plan_ops(plan.plan_root)
                if isinstance(op, SeqScan)
            )
            counters[mode] = (
                scan.stats.rows_out,
                flt.stats.rows_in,
                flt.stats.rows_out,
            )
        assert counters["fused"] == counters["row"] == (3, 3, 2)

    def test_forall_check_subtrees_stay_row_mode(self, small_company):
        query = (
            "retrieve (D.dname) from D in Departments, E in every Employees "
            "where E.dept isnot D or E.salary > 45000.0"
        )
        expected = sorted(run_in_mode(small_company, query, "row").rows)
        assert sorted(run_in_mode(small_company, query, "fused").rows) == expected
        tree = run_in_mode(small_company, query, "fused").plan_tree
        forall_lines = [
            line for line in tree.splitlines() if "[forall" in line
        ]
        assert forall_lines
        assert all("exec=row" in line for line in forall_lines)

    def test_shell_meta_command(self):
        import io

        from repro.cli import Shell

        out = io.StringIO()
        shell = Shell(out=out)
        shell.meta("\\exec row")
        assert shell.db.interpreter.exec_mode == "row"
        shell.meta("\\exec fused")
        assert shell.db.interpreter.exec_mode == "fused"
        shell.meta("\\exec sideways")
        assert shell.db.interpreter.exec_mode == "fused"
        assert "execution mode row" in out.getvalue()
        assert "usage: \\exec" in out.getvalue()


class TestPipelineRegions:
    def _cached_root(self, db, query):
        interpreter = db.interpreter
        plan = interpreter.plan_cache.get(
            interpreter._cache_key(query, "dba", db.default_session)
        )
        assert plan is not None
        return plan.plan_root

    def test_scan_filter_project_is_one_region(self, small_company):
        query = "retrieve (E.name) from E in Employees where E.age > 35"
        small_company.execute(query)
        root = self._cached_root(small_company, query)
        regions = fused_regions(root)
        assert len(regions) == 1
        chain = regions[0]
        assert isinstance(chain[0], Project)
        assert isinstance(chain[-1], SeqScan)
        assert fusable_ops(chain[0]) is not None
        assert fusable_ops(chain[-1]) is not None

    def test_hash_join_probe_fuses_build_is_its_own_region(self, small_company):
        query = (
            "retrieve (E.name, D.dname) from E in Employees, "
            "D in Departments where E.dept is D"
        )
        small_company.execute(query)
        root = self._cached_root(small_company, query)
        join = next(op for op in plan_ops(root) if isinstance(op, HashJoin))
        regions = fused_regions(root)
        assert len(regions) == 2
        # Project, HashJoin and the probe scan are one region ...
        assert regions[0][:2] == [root, join]
        assert join.children[0] in regions[0]
        # ... and the build subtree roots the other
        assert regions[1][0] is join.children[1]
        assert join.children[1] not in regions[0]

    def test_pipeline_source_debug_hook(self, small_company):
        query = "retrieve (E.name) from E in Employees where E.age > 35"
        result = run_in_mode(small_company, query, "fused")
        source = result.pipeline_source
        assert source is not None
        assert "def _fused(ctx, env):" in source
        assert "SeqScan Employees as E" in source  # region header comment
        # row mode generates nothing, and exposes nothing
        assert run_in_mode(small_company, query, "row").pipeline_source is None

    def test_fused_cache_keyed_by_compile_mode(self, small_company):
        query = "retrieve (E.name) from E in Employees where E.age > 35"
        small_company.execute(query)
        root = self._cached_root(small_company, query)
        closure_pipe = fused_pipeline(root, True)
        fallback_pipe = fused_pipeline(root, False)
        assert isinstance(closure_pipe, FusedPipeline)
        assert closure_pipe.full is True
        assert fallback_pipe.full is False
        assert closure_pipe is not fallback_pipe
        # memoized per flag
        assert fused_pipeline(root, True) is closure_pipe

    def test_generated_code_never_pickled(self, small_company):
        query = "retrieve (E.name) from E in Employees where E.age > 35"
        small_company.execute(query)
        root = self._cached_root(small_company, query)
        assert any(
            op.__dict__.get("_fused") is not None for op in plan_ops(root)
        )
        revived = pickle.loads(pickle.dumps(root))
        for op in plan_ops(revived):
            assert op.__dict__.get("_fused") is None
        # the revived tree regenerates its pipeline lazily on demand
        regenerated = fused_pipeline(revived, True)
        assert regenerated is not None
        assert "def _fused(ctx, env):" in regenerated.source
        assert pipeline_sources(revived) == pipeline_sources(root)
        assert "exec=fused" in render_plan(
            revived, actuals=False, exec_mode="fused"
        )

    def test_transaction_snapshot_with_fused_plans(self, small_company):
        """Transactions pickle cached plans; fused caches must not leak
        into snapshots nor break abort."""
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


class TestAnalyticRegions:
    """The paper's implicit nested-set join (§3.3) and its global and
    ``over`` aggregates (§3.4) run as fused regions."""

    UNNEST = (
        "retrieve (E.name, K.name) from E in Employees, K in E.kids "
        "where K.age > 8"
    )
    GROUP = (
        "retrieve unique (E.dept.dname, a = avg(E.salary over E.dept)) "
        "from E in Employees"
    )
    GLOBAL = "retrieve (a = avg(E.salary), m = max(E.salary)) from E in Employees"

    @pytest.mark.parametrize("query", [UNNEST, GROUP, GLOBAL])
    def test_whole_plan_is_one_fused_region(self, small_company, query):
        tree = small_company.execute(query).plan_tree
        assert all("exec=fused" in line for line in tree.splitlines()), tree
        message = small_company.execute("explain " + query).message
        assert "pipelines=1" in message

    @pytest.mark.parametrize("query", [GROUP, GLOBAL])
    def test_aggregate_references_compile_to_closures(self, small_company, query):
        for mode in MODES:
            project = run_in_mode(small_company, query, mode).plan_tree.splitlines()[0]
            assert project.startswith("Project")
            assert "compiled=closure" in project

    def test_correlated_reference_stays_a_callback(self, small_company):
        tree = small_company.execute(
            "retrieve (E.name, c = count(E.kids)) from E in Employees"
        ).plan_tree
        assert "compiled=fallback" in tree.splitlines()[0]

    def test_pipeline_source_shows_nested_loop(self, small_company):
        source = small_company.execute(self.UNNEST).pipeline_source
        assert "# PathExpand E.kids as K" in source
        assert "for _m1 in _ms1:" in source  # the path loop, nested
        assert source.count("def _fused(ctx, env):") == 1

    @pytest.mark.parametrize("query", [GROUP, GLOBAL])
    def test_pipeline_source_shows_aggregate_sinks(self, small_company, query):
        source = small_company.execute(query).pipeline_source
        assert "_precompute_aggregates" in source
        assert "# aggregate sink $agg" in source
        assert "avg(E.salary)" in source

    @pytest.mark.parametrize("query", [UNNEST, GROUP, GLOBAL])
    def test_counters_match_row_mode(self, small_company, query):
        results = {mode: run_in_mode(small_company, query, mode) for mode in MODES}
        fused, row = results["fused"], results["row"]
        assert sorted(fused.rows) == sorted(row.rows)
        assert fused.metrics["rows_scanned"] == row.metrics["rows_scanned"]
        per_op = {
            mode: [
                line.split("rows=")[1].split(",")[0]
                for line in result.plan_tree.splitlines()
            ]
            for mode, result in results.items()
        }
        assert per_op["fused"] == per_op["row"]

    @pytest.mark.parametrize(
        "query",
        [
            # a correlated aggregate aborts the inline lowering after
            # E.age was read; the second target reads E.age again
            "retrieve (a = E.age + count(E.kids), b = E.age) from E in Employees",
            "retrieve (E.name, E.age) from E in Employees "
            "where E.age + count(E.kids) > 30",
            # an enum comparison aborts after lowering both operands
            'retrieve (E.rank) from E in Employees where E.rank > "junior"',
            'retrieve (E.name, E.rank) from E in Employees, K in E.kids '
            'where E.rank != "mid" and K.age > 1',
        ],
    )
    def test_abandoned_lowering_matches_row_mode(self, query):
        db = Database()
        db.execute(
            "define type Kid as (name: char(8), age: int4)\n"
            "define type Emp as (name: char(8), age: int4, "
            "rank: enum(junior, mid, senior), kids: {own Kid})\n"
            "create {own ref Emp} Employees"
        )
        for n, (age, rank, kids) in enumerate(
            [(30, "senior", [3, 5]), (40, "junior", []), (25, "mid", [2])]
        ):
            db.insert(
                "Employees",
                name=f"e{n}",
                age=age,
                rank=rank,
                kids=[{"name": f"k{a}", "age": a} for a in kids],
            )
        fused = run_in_mode(db, query, "fused")
        row = run_in_mode(db, query, "row")
        assert sorted(fused.rows) == sorted(row.rows)
        assert fused.rows
        assert "exec=fused" in fused.plan_tree


class TestFusedHashJoin:
    """The paper's explicit object join (§3.3) and value joins run their
    hash-join probe inside the generated pipeline; the build subtree is
    its own region."""

    IS_JOIN = (
        "retrieve (E.name, D.dname) from E in Employees, D in Departments "
        "where E.dept is D and D.floor = 2"
    )
    VALUE_JOIN = (
        "retrieve (E.name, M.name) from E in Employees, M in Employees "
        "where E.age = M.age and E.salary > 40000.0"
    )

    def test_explain_shows_probe_fused_and_build_region(self, small_company):
        tree = small_company.execute(self.IS_JOIN).plan_tree.splitlines()
        assert tree[0].startswith("Project") and "exec=fused" in tree[0]
        assert tree[1].lstrip().startswith("HashJoin")
        assert "exec=fused" in tree[1]
        assert all("exec=fused" in line for line in tree), tree
        message = small_company.execute("explain " + self.IS_JOIN).message
        assert "pipelines=2" in message

    def test_pipeline_source_shows_the_probe_loop(self, small_company):
        source = small_company.execute(self.IS_JOIN).pipeline_source
        regions = source.split("\n\n")
        assert len(regions) == 2
        probe, build = regions
        assert probe.startswith("# Project") and "# HashJoin" in probe
        assert "_tb0 = _hj0._table_for(ctx)" in probe
        assert "for _m1 in _tb0.get(_hk0, ()):" in probe
        assert build.startswith("# Filter D.floor = 2")
        # no per-row liveness or dereference calls into the engine
        assert "is_live" not in source and "deref" not in source
        assert "_live_members" not in source

    #: ``(id, query, memory budget)``: the two fused joins, then shapes
    #: that run row operators in fused mode too — a budget of 1 << 20
    #: holds the whole build (no partition spills), a budget of 1 spills
    #: every partition
    PARITY = [
        ("is-join", IS_JOIN, 0),
        ("value-join", VALUE_JOIN, 0),
        (
            "forall",
            "retrieve (D.dname) from D in Departments, E in every Employees "
            "where E.dept isnot D or E.salary > 45000.0",
            0,
        ),
        (
            "in",
            "retrieve (E.name) from E in Employees where E.dept in Departments",
            0,
        ),
        (
            "nested-loop",
            "retrieve (E.name, D.dname) from E in Employees, D in Departments "
            "where E.salary > D.budget / 2.0",
            0,
        ),
        (
            "iterator",
            "retrieve (E.name, I) from E in Employees, I in Interval(1, 2) "
            "where E.age > 35",
            0,
        ),
        ("sort-over-hash-join", VALUE_JOIN + " sort by E.name, M.name", 0),
        (
            "into",
            "retrieve into Pairs (E.name, D.dname) from E in Employees, "
            "D in Departments where E.dept is D",
            0,
        ),
        ("budgeted-join-in-memory", VALUE_JOIN, 1 << 20),
        ("budgeted-join-spilled", VALUE_JOIN, 1),
        (
            "nested-loop-error",
            "retrieve (E.name, D.dname) from E in Employees, D in Departments "
            "where E.salary / (E.age - 30) > D.budget",
            0,
        ),
    ]

    @pytest.mark.parametrize(
        "query,budget",
        [(query, budget) for _id, query, budget in PARITY],
        ids=[shape for shape, _query, _budget in PARITY],
    )
    def test_counters_match_row_mode(self, query, budget):
        results = {}
        for mode in MODES:
            db = build_small_company()
            db.interpreter.parallel_mode = "off"
            try:
                results[mode] = run_in_mode(db, query, mode, budget)
            except EvaluationError as exc:
                results[mode] = str(exc)
        fused, row = results["fused"], results["row"]
        if isinstance(row, str):
            assert fused == row  # the same error, byte for byte
            return
        assert fused.rows == row.rows
        assert fused.rows
        for key in ("rows_scanned", "hash_builds", "hash_probes"):
            assert fused.metrics[key] == row.metrics[key]

        def counters(tree):
            return re.findall(r"(?:rows|builds|probes)=\d+", tree)

        assert counters(fused.plan_tree) == counters(row.plan_tree)
        if budget == 1:
            assert "spill=[partitions=" in fused.plan_tree
        elif budget:
            assert "spill=" not in fused.plan_tree

    def test_budgeted_statement_runs_the_row_operators(
        self, small_company, monkeypatch
    ):
        calls = []
        original = HashJoin._run

        def spy(self, ctx, env):
            calls.append(self)
            return original(self, ctx, env)

        monkeypatch.setattr(HashJoin, "_run", spy)
        interpreter = small_company.interpreter
        expected = small_company.execute(self.VALUE_JOIN).rows
        assert calls == []
        interpreter.memory_budget = 1
        try:
            budgeted = small_company.execute(self.VALUE_JOIN)
        finally:
            interpreter.memory_budget = 0
        assert len(calls) == 1
        assert budgeted.rows == expected
        assert "spill=" in budgeted.plan_tree  # the Grace build ran

    @pytest.mark.parametrize("mode", MODES)
    def test_hash_keys_follow_value_equality(self, mode):
        """A boolean never equals 1/0 and a NaN equals nothing, so a hash
        join returns what the nested loop does (a boolean can only meet
        an int4 through an untyped ADT function)."""
        from repro.core.types import INT4

        class Flag:
            pass

        db = Database()
        db.interpreter.parallel_mode = "off"
        db.execute("define type T as (n: int4, x: float8)")
        db.execute("create {own ref T} Ts")
        db.catalog.adts.define_adt("Flag", Flag)
        db.catalog.adts.define_function(
            "Flag", "big", lambda n: n > 0, [INT4], None
        )
        for n, x in ((0, 1.0), (1, float("nan")), (2, 2.0)):
            db.insert("Ts", n=n, x=x)
        queries = [
            "retrieve (A.n, B.n) from A in Ts, B in Ts where big(A.n) = B.n",
            "retrieve (A.n, B.n) from A in Ts, B in Ts where A.x = B.x",
        ]
        interpreter = db.interpreter
        for query in queries:
            hashed = run_in_mode(db, query, mode)
            assert "HashJoin" in hashed.plan_tree
            interpreter.hash_joins = False
            nested = run_in_mode(db, query, mode)
            interpreter.hash_joins = True
            assert "HashJoin" not in nested.plan_tree
            assert sorted(hashed.rows) == sorted(nested.rows)
        assert sorted(run_in_mode(db, queries[1], mode).rows) == [(0, 0), (2, 2)]


class TestFunctionInlining:
    """Satellite: scalar EXCESS function bodies inline into closures."""

    @pytest.fixture()
    def fn_db(self):
        db = build_small_company()
        db.execute(
            "define function Pay (E in Employee) returns float8 as "
            "retrieve (E.salary)"
        )
        db.execute(
            "define function Raise (E in Employee, pct: float8) returns "
            "float8 as retrieve (E.salary * pct)"
        )
        return db

    def test_inlined_calls_match_row_mode(self, fn_db):
        for query in (
            "retrieve (E.name, Pay(E)) from E in Employees",
            "retrieve (E.name) from E in Employees where Pay(E) > 45000.0",
            "retrieve (E.name, Raise(E, 1.1)) from E in Employees",
        ):
            expected = sorted(run_in_mode(fn_db, query, "row").rows)
            interpreter = fn_db.interpreter
            interpreter.compile_mode = "off"
            try:
                interpreted = sorted(fn_db.execute(query).rows)
            finally:
                interpreter.compile_mode = "closure"
            assert sorted(fn_db.execute(query).rows) == expected == interpreted

    def test_override_not_served_stale(self, db):
        """Defining a subtype override after a plan's inline cache is warm
        must not keep dispatching the supertype body."""
        db.execute(
            """
            define type Animal as (aname: char(20))
            define type Dog as (breed: char(20)) inherits Animal
            create {own ref Dog} Kennel
            define function Noise (A in Animal) returns text as
                retrieve ("generic noise")
            """
        )
        db.execute('append to Kennel (aname = "Fido", breed = "lab")')
        query = "retrieve (Noise(D)) from D in Kennel"
        assert db.execute(query).rows == [("generic noise",)]
        db.execute(
            'define function Noise (D in Dog) returns text as '
            'retrieve ("woof")'
        )
        assert db.execute(query).rows == [("woof",)]

    def test_recursion_guard_message_preserved(self, fn_db):
        fn_db.execute(
            "define function Loop (E in Employee) returns float8 as "
            "retrieve (Loop(E))"
        )
        messages = set()
        for compile_mode in ("closure", "off"):
            fn_db.interpreter.compile_mode = compile_mode
            try:
                with pytest.raises(EvaluationError) as excinfo:
                    fn_db.execute(
                        "retrieve (Loop(E)) from E in Employees"
                    )
                messages.add(str(excinfo.value))
            finally:
                fn_db.interpreter.compile_mode = "closure"
        assert len(messages) == 1
        assert "recursion deeper than" in messages.pop()

    def test_iterating_bodies_still_call_through(self, fn_db):
        """A set-returning body with bindings keeps the full call path
        (not inlinable) and agrees across compile modes."""
        fn_db.execute(
            "define function KidAges (P in Person) returns {own int4} as "
            "retrieve (C.age) from C in P.kids"
        )
        query = (
            'retrieve (x = KidAges(E)) from E in Employees '
            'where E.name = "Sue"'
        )
        ages = {}
        for compile_mode in ("closure", "off"):
            fn_db.interpreter.compile_mode = compile_mode
            try:
                value = fn_db.execute(query).rows[0][0]
                ages[compile_mode] = sorted(value.members())
            finally:
                fn_db.interpreter.compile_mode = "closure"
        assert ages["closure"] == ages["off"] == [7, 10]

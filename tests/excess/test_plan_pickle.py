"""Plan-fragment pickling audit.

Worker processes receive plan fragments by pickle, so every per-node
runtime cache must be dropped by ``PlanOp.__getstate__``: compiled
closures and generated fused functions (unpicklable code objects),
memoized hash-build tables and pre-order walks (stale in a new tree or
process), and open iterator stacks.  This module executes a battery of
queries that warms every cache the engine has, then audits the live
operator trees and proves each one round-trips through pickle and
re-executes identically.
"""

from __future__ import annotations

import pickle

import pytest

from repro.excess.evaluator import Evaluator
from repro.excess.plan import PlanContext, walk_plan
from repro.util.workload import CompanyWorkload, build_company_database

#: caches that must never survive pickling (unpicklable or stale-on-revival)
BANNED_STATE = ("_compiled", "_fused", "_plan_ops", "_fragment_key")

#: a battery chosen to lower every operator family: seq/index scans,
#: filters, projections (plain / unique / sorted), nested-loop and hash
#: joins, semi-join probes, path expansion, and aggregates
QUERIES = [
    "retrieve (E.name, E.salary) from E in Employees where E.salary > 100",
    "retrieve unique (E.age) from E in Employees sort by E.age",
    "retrieve (E.name) from E in Employees where E.age = 33",
    (
        "retrieve (E.name, D.dname) from E in Employees, D in Departments "
        "where E.dept is D and D.floor >= 1"
    ),
    (
        "retrieve (E.name, X.name) from E in Employees, X in Employees "
        "where E.age = X.age and E.salary > X.salary"
    ),
    "retrieve (E.name, C.name) from E in Employees, C in E.kids where C.age > 0",
    (
        "retrieve (E.name, a = avg(X.salary over X.dept)) "
        "from E in Employees, X in Employees where X.dept is E.dept"
    ),
]


@pytest.fixture(scope="module")
def warmed():
    """(db, [(query, plan_root, rows, params)]) with every cache warmed by a
    real execution (compiled closures, fused functions, hash memos)."""
    db = build_company_database(
        CompanyWorkload(departments=4, employees=60, seed=21)
    )
    db.execute("create index on Employees (age) using hash")
    executed = []
    for query in QUERIES:
        rows = db.execute(query).rows
        interpreter = db.interpreter
        prepared = interpreter.plan_cache.get(interpreter._cache_key(query, "dba"))
        assert prepared is not None, query
        executed.append((query, prepared.plan_root, rows, prepared.params))
    return db, executed


class TestGetstateAudit:
    def test_no_runtime_cache_survives_getstate(self, warmed):
        _db, executed = warmed
        audited = 0
        for query, root, _rows, _params in executed:
            for op in walk_plan(root):
                state = op.__getstate__()
                for banned in BANNED_STATE:
                    assert banned not in state, (
                        f"{type(op).__name__} leaks {banned} ({query})"
                    )
                if "_memo" in state:
                    assert state["_memo"] is None, (
                        f"{type(op).__name__} pickles its build memo"
                    )
                assert state.get("_iters", []) == []
                assert state.get("running", 0) == 0
                audited += 1
        assert audited > 25  # the battery really covered a tree per query

    def test_warm_caches_actually_existed(self, warmed):
        """The audit above is only meaningful if execution populated the
        caches that __getstate__ must drop."""
        _db, executed = warmed
        seen = set()
        for _query, root, _rows, _params in executed:
            for op in walk_plan(root):
                seen.update(k for k in op.__dict__ if k.startswith("_"))
        assert "_compiled" in seen
        assert "_plan_ops" in seen
        assert "_memo" in seen

    def test_every_plan_root_roundtrips_pickle(self, warmed):
        _db, executed = warmed
        for query, root, _rows, _params in executed:
            revived = pickle.loads(pickle.dumps(root))
            original = [type(op).__name__ for op in walk_plan(root)]
            copied = [type(op).__name__ for op in walk_plan(revived)]
            assert copied == original, query

    def test_revived_plans_reexecute_identically(self, warmed):
        db, executed = warmed
        for query, root, rows, params in executed:
            revived = pickle.loads(pickle.dumps(root))
            evaluator = Evaluator(db, params=params)
            ctx = PlanContext(evaluator)
            replayed = [
                row
                for batch in revived.batches(ctx, {}, evaluator.batch_size)
                for row in batch
            ]
            assert replayed == rows, query

    def test_revived_plans_repickle(self, warmed):
        """Second-generation pickling: a revived, re-executed tree must
        still satisfy the __getstate__ contract (caches rebuilt lazily
        on the revived copy are dropped again)."""
        db, executed = warmed
        query, root, rows, params = executed[0]
        revived = pickle.loads(pickle.dumps(root))
        evaluator = Evaluator(db, params=params)
        ctx = PlanContext(evaluator)
        for _batch in revived.batches(ctx, {}, 16):
            pass
        second = pickle.loads(pickle.dumps(revived))
        evaluator = Evaluator(db, params=params)
        replayed = [
            row
            for batch in second.batches(PlanContext(evaluator), {}, 16)
            for row in batch
        ]
        assert replayed == rows, query

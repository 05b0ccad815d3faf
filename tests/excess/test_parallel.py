"""Parallel sharded execution: exchange operators, the worker pool, and
the parallel/serial equivalence contract.

The exchange operators themselves are pure plan nodes (passthrough when
no shard descriptor is active), so their partitioning math is unit-tested
in-process via :func:`repro.excess.parallel.run_fragment_task`; the pool
integration tests then run real forked workers with ``workers=2`` —
which works on a 1-CPU runner — and assert byte-identical results,
error messages, and ordering against serial execution.
"""

from __future__ import annotations

import multiprocessing
import pickle

import pytest

from repro.errors import EvaluationError, ExcessError
from repro.excess.evaluator import Evaluator
from repro.excess.parallel import (
    ParallelRunner,
    Shard,
    _PoolFailure,
    _Stale,
    run_aggregate_task,
    run_fragment_task,
)
from repro.excess.plan import (
    ExchangeBroadcast,
    ExchangeMerge,
    ExchangePartition,
    PlanContext,
    partition_hash,
    walk_plan,
)
from repro.util import faultinject
from repro.util.workload import CompanyWorkload, build_company_database
from tests.conftest import build_small_company

#: enough employees that the 2048-row partition threshold allows dop=2
#: (but not dop=3: 6000 // 2048 == 2, pinning the cost-model choice)
PARALLEL_SCALE = 6000


@pytest.fixture(scope="module")
def parallel_company():
    db = build_company_database(
        CompanyWorkload(departments=8, employees=PARALLEL_SCALE, seed=1988)
    )
    db.interpreter.workers = 2
    yield db
    db.interpreter.shutdown_parallel()


def both_modes(db, query):
    """(serial result, parallel result) for one query."""
    interpreter = db.interpreter
    interpreter.parallel_mode = "off"
    try:
        serial = db.execute(query)
    finally:
        interpreter.parallel_mode = "process"
    return serial, db.execute(query)


def outcome(db, query):
    """(rows, error message) — exactly one of the two is None."""
    try:
        return db.execute(query).rows, None
    except EvaluationError as exc:
        return None, str(exc)


def cached_plan(db, query, mode="process"):
    """The prepared plan the interpreter cached for ``query`` under
    ``parallel_mode=mode`` (each mode's entry is a separate key)."""
    interpreter = db.interpreter
    saved = interpreter.parallel_mode
    interpreter.parallel_mode = mode
    try:
        prepared = interpreter.plan_cache.get(interpreter._cache_key(query, "dba"))
    finally:
        interpreter.parallel_mode = saved
    if prepared is None:
        raise AssertionError(f"no cached plan for {query!r}")
    return prepared


def cached_root(db, query):
    return cached_plan(db, query).plan_root


FLAGS = ("dba", "closure", "fused", 1024)
#: RANGE_QUERY's one literal travels with each task (slot 0 = 100)
RANGE_FLAGS = FLAGS + (None, 0, (100,))


# ---------------------------------------------------------------------------
# partition_hash
# ---------------------------------------------------------------------------


def _child_hashes(conn):
    conn.send([partition_hash(k) for k in _HASH_KEYS])
    conn.close()


_HASH_KEYS = [0, 1, -3, 2.5, "Emp-17", ("Toys", 2), (1, (2.0, "x")), None]


class TestPartitionHash:
    def test_numeric_canonicalization(self):
        # 1, 1.0, and True are equal under EXCESS comparison, so they
        # must co-partition; 1.5 keeps its fractional identity
        assert partition_hash(1) == partition_hash(1.0) == partition_hash(True)
        assert partition_hash(0) == partition_hash(0.0) == partition_hash(False)
        assert partition_hash(1.5) != partition_hash(1)

    def test_recursive_tuples(self):
        assert partition_hash((1, 2.0)) == partition_hash((1.0, 2))

    def test_deterministic_across_processes(self):
        # crc32 of a canonical repr — immune to PYTHONHASHSEED, which a
        # spawn-start worker would not share with its parent
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("no fork on this platform")
        ctx = multiprocessing.get_context("fork")
        parent_conn, child_conn = ctx.Pipe()
        process = ctx.Process(target=_child_hashes, args=(child_conn,))
        process.start()
        child_conn.close()
        assert parent_conn.recv() == [partition_hash(k) for k in _HASH_KEYS]
        process.join()


# ---------------------------------------------------------------------------
# Fragment execution in-process (no pool)
# ---------------------------------------------------------------------------

RANGE_QUERY = (
    "retrieve (E.name, E.salary) from E in Employees where E.salary > 100"
)
HASH_QUERY = (
    "retrieve (E.name, X.salary) from E in Employees, X in Employees "
    "where E.name = X.name"
)


class TestFragments:
    def test_range_parts_reproduce_serial_stream(self, parallel_company):
        db = parallel_company
        serial, parallel = both_modes(db, RANGE_QUERY)
        assert parallel.rows == serial.rows
        root = cached_root(db, RANGE_QUERY)
        assert isinstance(root, ExchangeMerge)
        frag = pickle.loads(pickle.dumps(root.children[0]))
        gathered = []
        for part in range(root.dop):
            rows, stats = run_fragment_task(
                db, frag, part, root.dop, "range", RANGE_FLAGS
            )
            assert stats  # per-operator counters came back
            gathered.extend(rows)
        assert gathered == serial.rows

    def test_range_parts_are_disjoint_and_ordered(self, parallel_company):
        db = parallel_company
        serial, _parallel = both_modes(db, RANGE_QUERY)
        root = cached_root(db, RANGE_QUERY)
        parts = [
            run_fragment_task(
                db, root.children[0], part, root.dop, "range", RANGE_FLAGS
            )[0]
            for part in range(root.dop)
        ]
        # contiguous, non-overlapping slices of the serial stream
        assert all(part_rows for part_rows in parts)
        assert sum(len(p) for p in parts) == len(serial.rows)

    def test_hash_parts_partition_by_key(self, parallel_company):
        db = parallel_company
        serial, parallel = both_modes(db, HASH_QUERY)
        assert parallel.rows == serial.rows
        root = cached_root(db, HASH_QUERY)
        assert root.mode == "hash"
        partitions = [
            op for op in walk_plan(root) if isinstance(op, ExchangePartition)
        ]
        assert {op.mode for op in partitions} == {"hash"}
        assert any(op.tag_pos for op in partitions)
        # one revived copy per part, as each worker process has: the
        # hash join's build-table memo is per-shard state
        blob = pickle.dumps(root.children[0])
        tagged = []
        for part in range(root.dop):
            rows, _stats = run_fragment_task(
                db, pickle.loads(blob), part, root.dop, "hash", FLAGS
            )
            tagged.append(rows)
        # every input position appears exactly once across all parts …
        positions = sorted(pos for rows in tagged for pos, _row in rows)
        assert positions == list(range(len(serial.rows)))
        # … and the position-sorted union is the serial stream
        merged = sorted(
            (entry for rows in tagged for entry in rows), key=lambda e: e[0]
        )
        assert [row for _pos, row in merged] == serial.rows

    def test_exchange_plan_is_serial_passthrough(self, parallel_company):
        """The parallel-lowered tree run by a plain evaluator (no runner,
        no shard) must produce the serial rows — exchange operators are
        pure passthroughs outside the pool."""
        db = parallel_company
        serial, _parallel = both_modes(db, RANGE_QUERY)
        root = cached_root(db, RANGE_QUERY)
        evaluator = Evaluator(db, params=(100,))
        ctx = PlanContext(evaluator)
        assert ctx.parallel is None and ctx.exchange is None
        rows = [
            row
            for batch in root.batches(ctx, {}, 256)
            for row in batch
        ]
        assert rows == serial.rows


# ---------------------------------------------------------------------------
# Plan choices: threshold, dop, broadcast vs repartition
# ---------------------------------------------------------------------------


class TestPlanChoices:
    def test_small_inputs_stay_serial(self):
        db = build_small_company()
        db.interpreter.workers = 2
        result = db.execute(RANGE_QUERY)
        assert "parallel=serial" in result.plan.describe()
        assert "Exchange" not in result.plan_tree

    def test_parallel_off_is_byte_identical_serial_plan(self, parallel_company):
        db = parallel_company
        serial, parallel = both_modes(db, RANGE_QUERY)
        assert "Exchange" not in serial.plan_tree
        assert "parallel=" not in serial.plan.describe()
        assert "Exchange" in parallel.plan_tree

    def test_dop_capped_by_estimated_rows(self, parallel_company):
        db = parallel_company
        interpreter = db.interpreter
        interpreter.workers = 64
        try:
            query = RANGE_QUERY + " and E.age > 0"
            result = db.execute(query)
        finally:
            interpreter.workers = 2
        # 6000 rows / 2048 per partition -> dop 2 despite 64 workers
        assert "dop=2" in result.plan.describe()

    def test_small_build_side_broadcasts(self, parallel_company):
        db = parallel_company
        query = (
            "retrieve (E.name, D.dname) from E in Employees, "
            "D in Departments where E.dept is D"
        )
        _serial, parallel = both_modes(db, query)
        root = cached_root(db, query)
        kinds = {type(op) for op in walk_plan(root)}
        assert ExchangeBroadcast in kinds
        assert root.mode == "range"

    def test_large_build_side_repartitions(self, parallel_company):
        db = parallel_company
        both_modes(db, HASH_QUERY)
        root = cached_root(db, HASH_QUERY)
        assert root.mode == "hash"
        assert not any(
            isinstance(op, ExchangeBroadcast) for op in walk_plan(root)
        )

    def test_explain_shows_exchange_annotations(self, parallel_company):
        db = parallel_company
        result = db.execute("explain " + RANGE_QUERY)
        assert "exchange=[range, dop=2]" in result.plan_tree
        assert "exchange=[gather, dop=2]" in result.plan_tree
        assert "parallel=dop=2, range" in result.plan.describe()


# ---------------------------------------------------------------------------
# Flags and the plan-cache key
# ---------------------------------------------------------------------------


class TestFlags:
    def test_cache_key_includes_parallel_flags(self, parallel_company):
        interpreter = parallel_company.interpreter
        key_on = interpreter._cache_key(RANGE_QUERY, "dba")
        assert "process" in key_on[0] and 2 in key_on[0]
        interpreter.parallel_mode = "off"
        try:
            key_off = interpreter._cache_key(RANGE_QUERY, "dba")
        finally:
            interpreter.parallel_mode = "process"
        assert key_on != key_off
        interpreter.workers = 3
        try:
            key_3 = interpreter._cache_key(RANGE_QUERY, "dba")
        finally:
            interpreter.workers = 2
        assert key_3 != key_on

    def test_parallel_mode_validated(self, parallel_company):
        with pytest.raises(ExcessError, match="parallel_mode"):
            parallel_company.interpreter.parallel_mode = "threads"

    def test_workers_validated(self, parallel_company):
        interpreter = parallel_company.interpreter
        with pytest.raises(ExcessError, match="workers"):
            interpreter.workers = 0
        with pytest.raises(ExcessError, match="workers"):
            interpreter.workers = True


# ---------------------------------------------------------------------------
# Pool integration (real forked workers, workers=2)
# ---------------------------------------------------------------------------


class TestPoolExecution:
    def test_scan_filter_rows_identical(self, parallel_company):
        serial, parallel = both_modes(parallel_company, RANGE_QUERY)
        assert parallel.rows == serial.rows  # including order

    def test_sorted_query_identical(self, parallel_company):
        query = RANGE_QUERY + " sort by E.salary desc"
        serial, parallel = both_modes(parallel_company, query)
        assert parallel.rows == serial.rows

    def test_broadcast_join_identical(self, parallel_company):
        query = (
            "retrieve (E.name, D.dname) from E in Employees, "
            "D in Departments where E.dept is D and E.salary > 2990"
        )
        serial, parallel = both_modes(parallel_company, query)
        assert parallel.rows == serial.rows

    def test_hash_partitioned_join_identical(self, parallel_company):
        serial, parallel = both_modes(parallel_company, HASH_QUERY)
        assert parallel.rows == serial.rows

    def test_parallel_aggregates_bit_exact(self, parallel_company):
        # partial→final must preserve float addition order, so == (not
        # approx) is the contract
        query = (
            "retrieve (a = avg(E.salary), s = sum(E.salary), "
            "m = max(E.salary)) from E in Employees where E.age > 200"
        )
        serial, parallel = both_modes(parallel_company, query)
        assert parallel.rows == serial.rows

    def test_partitioned_aggregate_bit_exact(self, parallel_company):
        query = (
            "retrieve unique (E.dept.dname, p = avg(E.salary over E.dept)) "
            "from E in Employees sort by E.dept.dname"
        )
        serial, parallel = both_modes(parallel_company, query)
        assert parallel.rows == serial.rows

    def test_rows_scanned_metric_matches_serial(self, parallel_company):
        serial, parallel = both_modes(parallel_company, RANGE_QUERY)
        assert (
            parallel.metrics["rows_scanned"] == serial.metrics["rows_scanned"]
        )

    def test_worker_error_matches_serial_error(self, parallel_company):
        db = parallel_company
        query = "retrieve (E.salary / (E.age - E.age)) from E in Employees"
        interpreter = db.interpreter
        interpreter.parallel_mode = "off"
        try:
            _rows, serial_error = outcome(db, query)
        finally:
            interpreter.parallel_mode = "process"
        _rows, parallel_error = outcome(db, query)
        assert serial_error is not None
        assert parallel_error == serial_error
        # the pool survives the error: next parallel query still works
        serial, parallel = both_modes(db, RANGE_QUERY)
        assert parallel.rows == serial.rows

    def test_hash_mode_error_falls_back_to_serial(self, parallel_company):
        db = parallel_company
        query = (
            "retrieve (E.salary / (E.age - E.age)) from E in Employees, "
            "X in Employees where E.name = X.name"
        )
        interpreter = db.interpreter
        interpreter.parallel_mode = "off"
        try:
            _rows, serial_error = outcome(db, query)
        finally:
            interpreter.parallel_mode = "process"
        _rows, parallel_error = outcome(db, query)
        assert serial_error is not None
        assert parallel_error == serial_error

    def test_data_version_bump_restarts_pool(self, parallel_company):
        db = parallel_company
        interpreter = db.interpreter
        query = (
            'retrieve (E.name) from E in Employees where E.name = "Newcomer"'
        )
        _serial, before = both_modes(db, query)
        assert before.rows == []
        runner = interpreter._parallel_runner
        assert runner is not None and runner.pool is not None
        stale_token = runner.pool.token
        db.execute(
            'append to Employees (name = "Newcomer", age = 33, salary = 1.0)'
        )
        after = db.execute(query)
        assert [row[0].strip() for row in after.rows] == ["Newcomer"]
        # the pool was re-forked at the new snapshot token
        assert runner.pool is not None
        assert runner.pool.token == runner.token()
        assert runner.pool.token != stale_token

    def test_dead_worker_falls_back_then_recovers(self, parallel_company):
        db = parallel_company
        serial, parallel = both_modes(db, RANGE_QUERY)
        runner = db.interpreter._parallel_runner
        assert runner.pool is not None
        runner.pool.workers[0][0].kill()
        fallback = db.execute(RANGE_QUERY)
        assert fallback.rows == serial.rows
        # the failed pool was torn down; the next execution re-forks it
        recovered = db.execute(RANGE_QUERY)
        assert recovered.rows == serial.rows
        assert runner.pool is not None
        assert all(p.is_alive() for p, _conn in runner.pool.workers)

    def test_shutdown_is_idempotent_and_restartable(self, parallel_company):
        db = parallel_company
        db.interpreter.shutdown_parallel()
        db.interpreter.shutdown_parallel()
        serial, parallel = both_modes(db, RANGE_QUERY)
        assert parallel.rows == serial.rows


# ---------------------------------------------------------------------------
# Gating: snapshots and transactions never reach the pool
# ---------------------------------------------------------------------------


class TestGating:
    def test_transaction_snapshot_declines_parallel(self, parallel_company):
        runner = ParallelRunner(parallel_company)
        inside_txn = type("S", (), {"session_stamp": (7, 1)})()
        plain = type("S", (), {"session_stamp": (None, None)})()
        assert not runner._eligible(inside_txn)
        assert runner._eligible(plain)

    def test_open_versions_decline_parallel(self, parallel_company):
        db = parallel_company
        runner = ParallelRunner(db)
        plain = type("S", (), {"session_stamp": (None, None)})()
        assert runner._eligible(plain)
        transactions = getattr(db, "transactions", None)
        if transactions is None:
            pytest.skip("no MVCC layer on this database")
        transactions.versions.append(object())
        try:
            assert not runner._eligible(plain)
        finally:
            transactions.versions.pop()


# ---------------------------------------------------------------------------
# Fault-injection isolation (workers must not inherit armed points)
# ---------------------------------------------------------------------------


def _child_fault_state(conn):
    armed = [
        name
        for name, point in faultinject._points.items()
        if point.trigger is not None
    ]
    conn.send(armed)
    conn.close()


class TestFaultIsolation:
    def test_forked_children_start_disarmed(self):
        points = faultinject.registered_points()
        if not points:
            pytest.skip("no crash points registered")
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("no fork on this platform")
        faultinject.arm(points[0], on_hit=1)
        try:
            ctx = multiprocessing.get_context("fork")
            parent_conn, child_conn = ctx.Pipe()
            process = ctx.Process(target=_child_fault_state, args=(parent_conn,))
            process.start()
            parent_conn.close()
            assert child_conn.recv() == []  # disarmed at fork
            process.join()
            # the parent's arming is untouched
            assert faultinject._points[points[0]].trigger == 1
        finally:
            faultinject.reset()


# ---------------------------------------------------------------------------
# In-process task variants: row-mode coercion, interpreted + sorted
# hash projections, partial-aggregate workers
# ---------------------------------------------------------------------------

SORTED_HASH_QUERY = HASH_QUERY + " sort by E.salary desc"


class TestTaskVariants:
    def test_row_exec_mode_coerced_to_batch(self, parallel_company):
        # workers always run batch-at-a-time; a "row"-mode parent still
        # gets the serial stream back
        db = parallel_company
        serial, _parallel = both_modes(db, RANGE_QUERY)
        root = cached_root(db, RANGE_QUERY)
        frag = pickle.loads(pickle.dumps(root.children[0]))
        gathered = []
        for part in range(root.dop):
            rows, _stats = run_fragment_task(
                db, frag, part, root.dop, "range",
                ("dba", "closure", "row", 512) + RANGE_FLAGS[4:],
            )
            gathered.extend(rows)
        assert gathered == serial.rows

    @pytest.mark.parametrize("compile_mode", ["closure", "off"])
    def test_hash_projection_emits_sort_keys(self, parallel_company, compile_mode):
        # sort above a hash merge: the sharded projection emits
        # (row, sort_keys) pairs tagged with their serial position
        db = parallel_company
        serial_nosort, _parallel = both_modes(db, HASH_QUERY)
        serial, parallel = both_modes(db, SORTED_HASH_QUERY)
        assert parallel.rows == serial.rows
        root = cached_root(db, SORTED_HASH_QUERY)
        merge = next(
            op for op in walk_plan(root) if isinstance(op, ExchangeMerge)
        )
        blob = pickle.dumps(merge.children[0])
        flags = ("dba", compile_mode, "batch", 1024)
        tagged = []
        for part in range(merge.dop):
            rows, _stats = run_fragment_task(
                db, pickle.loads(blob), part, merge.dop, "hash", flags
            )
            tagged.extend(rows)
        tagged.sort(key=lambda entry: entry[0])
        # pre-sort row stream == the unsorted query's serial stream, and
        # each row carries its own sort key (E.salary == row[1])
        assert [row for _pos, (row, _keys) in tagged] == serial_nosort.rows
        assert all(keys == (row[1],) for _pos, (row, keys) in tagged)

    @pytest.mark.parametrize("compile_mode", ["closure", "off"])
    def test_hash_projection_interpreted_unsorted(
        self, parallel_company, compile_mode
    ):
        db = parallel_company
        serial, _parallel = both_modes(db, HASH_QUERY)
        root = cached_root(db, HASH_QUERY)
        blob = pickle.dumps(root.children[0])
        flags = ("dba", compile_mode, "batch", 1024)
        tagged = []
        for part in range(root.dop):
            rows, _stats = run_fragment_task(
                db, pickle.loads(blob), part, root.dop, "hash", flags
            )
            tagged.extend(rows)
        tagged.sort(key=lambda entry: entry[0])
        assert [row for _pos, row in tagged] == serial.rows

    @pytest.mark.parametrize("kind", ["global", "partition"])
    def test_aggregate_task_partials_match_serial(self, parallel_company, kind):
        db = parallel_company
        if kind == "global":
            query = (
                "retrieve (a = avg(E.salary), s = sum(E.salary)) "
                "from E in Employees"
            )
        else:
            query = (
                "retrieve unique (E.dept.dname, p = avg(E.salary over E.dept)) "
                "from E in Employees sort by E.dept.dname"
            )
        serial, parallel = both_modes(db, query)
        assert parallel.rows == serial.rows
        aggregate = cached_plan(db, query).bound.query.aggregates[0]
        # the process-mode execution above parallelized the inner
        # pipeline in place; replay its shards in-process
        evaluator = Evaluator(db)
        inner = evaluator._aggregate_query(aggregate)
        payload = (inner, aggregate.argument, aggregate.inner_key, aggregate.mode)
        blob = pickle.dumps(payload)
        merged: dict = {}
        for part in range(2):
            groups, stats = run_aggregate_task(db, pickle.loads(blob), part, 2, FLAGS)
            assert stats
            for group_key, values in groups.items():
                merged.setdefault(group_key, []).extend(values)
        # one group per output row (global: exactly one), and the
        # partial groups partition the full input — every employee's
        # salary lands in exactly one shard's group
        total = len(db.execute("retrieve (E.name) from E in Employees").rows)
        assert len(merged) == (1 if kind == "global" else len(serial.rows))
        assert sum(len(values) for values in merged.values()) == total


# ---------------------------------------------------------------------------
# Runner edge paths (fake pools: stale tokens, dead pipes, timeouts)
# ---------------------------------------------------------------------------


class _FakeConn:
    def __init__(self, replies=(), poll=True, send_exc=None, recv_exc=None):
        self.replies = list(replies)
        self._poll = poll
        self.send_exc = send_exc
        self.recv_exc = recv_exc
        self.sent: list = []

    def send(self, message):
        if self.send_exc is not None:
            raise self.send_exc
        self.sent.append(message)

    def poll(self, timeout):
        return self._poll

    def recv(self):
        if self.recv_exc is not None:
            raise self.recv_exc
        return self.replies.pop(0)


class _FakePool:
    def __init__(self, conns, token=("t", 0)):
        self.token = token
        self.size = len(conns)
        self.workers = [(None, conn) for conn in conns]
        self.stopped = False

    def stop(self):
        self.stopped = True


OK_REPLY = ("ok", [], [])


class TestRunnerEdgePaths:
    def test_blob_cache_caps_and_keys_stay_monotonic(self, parallel_company):
        runner = ParallelRunner(parallel_company)
        objects = [object() for _ in range(257)]
        keys = [
            runner._blob_for(obj, ("payload", i))[0]
            for i, obj in enumerate(objects)
        ]
        assert len(set(keys)) == 257  # no key reuse across the cap flush
        assert len(runner._keys) <= 256
        key, blob = runner._blob_for(objects[-1], None)  # cached: no repickle
        assert key == keys[-1]
        assert pickle.loads(blob) == ("payload", 256)

    def test_dispatch_timeout_is_pool_failure(self, parallel_company):
        runner = ParallelRunner(parallel_company)
        pool = _FakePool([_FakeConn(poll=False), _FakeConn(replies=[OK_REPLY])])
        with pytest.raises(_PoolFailure, match="timed out"):
            runner._dispatch(pool, [("x",), ("x",)])

    def test_dispatch_dead_pipe_is_pool_failure(self, parallel_company):
        runner = ParallelRunner(parallel_company)
        pool = _FakePool(
            [_FakeConn(recv_exc=EOFError()), _FakeConn(replies=[OK_REPLY])]
        )
        with pytest.raises(_PoolFailure, match="died"):
            runner._dispatch(pool, [("x",), ("x",)])

    def test_dispatch_send_failure_is_pool_failure(self, parallel_company):
        runner = ParallelRunner(parallel_company)
        pool = _FakePool([_FakeConn(send_exc=OSError("gone")), _FakeConn()])
        with pytest.raises(_PoolFailure, match="gone"):
            runner._dispatch(pool, [("x",), ("x",)])

    def test_dispatch_stale_reply_raises_stale(self, parallel_company):
        runner = ParallelRunner(parallel_company)
        pool = _FakePool(
            [_FakeConn(replies=[("stale",)]), _FakeConn(replies=[OK_REPLY])]
        )
        with pytest.raises(_Stale):
            runner._dispatch(pool, [("x",), ("x",)])

    def test_run_parts_restarts_pool_once_on_stale(self, parallel_company):
        runner = ParallelRunner(parallel_company)
        stale = _FakePool([_FakeConn(replies=[("stale",)]), _FakeConn(replies=[OK_REPLY])])
        fresh = _FakePool([_FakeConn(replies=[OK_REPLY]), _FakeConn(replies=[OK_REPLY])])
        pools = [stale, fresh]
        runner._ensure_pool = lambda dop: pools.pop(0)
        replies = runner._run_parts(9, b"blob", "frag", 2, ("range", FLAGS))
        assert [reply[0] for reply in replies] == ["ok", "ok"]
        # the fragment was re-shipped to the fresh pool
        assert all(message[3] == b"blob" for _p, conn in fresh.workers for message in conn.sent)

    def test_run_parts_stale_after_restart_fails(self, parallel_company):
        runner = ParallelRunner(parallel_company)
        pools = [
            _FakePool([_FakeConn(replies=[("stale",)]), _FakeConn(replies=[OK_REPLY])]),
            _FakePool([_FakeConn(replies=[("stale",)]), _FakeConn(replies=[OK_REPLY])]),
        ]
        runner._ensure_pool = lambda dop: pools.pop(0)
        with pytest.raises(_PoolFailure, match="stale"):
            runner._run_parts(9, b"blob", "frag", 2, ("range", FLAGS))

    def test_run_exchange_declines_inside_transaction(self, parallel_company):
        db = parallel_company
        both_modes(db, RANGE_QUERY)
        merge = cached_root(db, RANGE_QUERY)
        runner = ParallelRunner(db)
        ctx = type("C", (), {"session_stamp": (7, 1)})()
        assert runner.run_exchange(merge, ctx) is None

    def test_run_exchange_declines_unpicklable_fragment(self, parallel_company):
        runner = ParallelRunner(parallel_company)
        merge = type(
            "M",
            (),
            {"children": [lambda: None], "dop": 2, "mode": "range"},
        )()
        ctx = type("C", (), {"session_stamp": (None, None)})()
        assert runner.run_exchange(merge, ctx) is None

    @pytest.mark.parametrize(
        "error_reply",
        [("err", None, "unpicklable exc"), ("err", b"not a pickle", "bad blob")],
    )
    def test_run_exchange_bad_error_payload_declines(
        self, parallel_company, error_reply
    ):
        # a range-mode worker error whose exception cannot be revived
        # falls back to the serial path (which raises it natively)
        db = parallel_company
        both_modes(db, RANGE_QUERY)
        merge = cached_root(db, RANGE_QUERY)
        runner = ParallelRunner(db)
        runner._run_parts = lambda *args: [error_reply, OK_REPLY]
        ctx = PlanContext(Evaluator(db))
        assert runner.run_exchange(merge, ctx) is None

    def _partition_aggregate(self, db, mode="process"):
        query = (
            "retrieve unique (E.dept.dname, p = avg(E.salary over E.dept)) "
            "from E in Employees sort by E.dept.dname"
        )
        both_modes(db, query)
        return cached_plan(db, query, mode).bound.query.aggregates[0]

    def test_run_aggregate_gates_mode_and_snapshot(self, parallel_company):
        db = parallel_company
        runner = ParallelRunner(db)
        runner.workers = 2
        evaluator = Evaluator(db)
        correlated = type("A", (), {"mode": "correlated"})()
        assert runner.run_aggregate(evaluator, correlated, {}) is None
        in_txn = type("E", (), {"session_stamp": (7, 1)})()
        global_agg = type("A", (), {"mode": "global"})()
        assert runner.run_aggregate(in_txn, global_agg, {}) is None

    def test_run_aggregate_declines_below_dop_two(self, parallel_company):
        db = parallel_company
        # the off-mode bound: its inner pipeline is not yet parallelized,
        # so the worker budget (1) decides
        aggregate = self._partition_aggregate(db, mode="off")
        runner = ParallelRunner(db)
        runner.workers = 1
        assert runner.run_aggregate(Evaluator(db), aggregate, {}) is None

    def test_run_aggregate_pool_failure_declines(self, parallel_company):
        db = parallel_company
        aggregate = self._partition_aggregate(db)
        runner = ParallelRunner(db)
        runner.workers = 2

        def boom(*args):
            raise _PoolFailure("fake")

        runner._run_parts = boom
        assert runner.run_aggregate(Evaluator(db), aggregate, {}) is None

    def test_run_aggregate_worker_error_declines(self, parallel_company):
        db = parallel_company
        aggregate = self._partition_aggregate(db)
        runner = ParallelRunner(db)
        runner.workers = 2
        runner._run_parts = lambda *args: [("err", None, "boom"), ("ok", {}, [])]
        assert runner.run_aggregate(Evaluator(db), aggregate, {}) is None


# ---------------------------------------------------------------------------
# Shard helper
# ---------------------------------------------------------------------------


def test_shard_slices_cover_exactly():
    partition = ExchangePartition.__new__(ExchangePartition)
    for n in (0, 1, 5, 6000):
        for dop in (2, 3, 7):
            cuts = [partition._slice(n, Shard(part, dop)) for part in range(dop)]
            assert cuts[0][0] == 0 and cuts[-1][1] == n
            for (_lo, hi), (lo2, _hi2) in zip(cuts, cuts[1:]):
                assert hi == lo2

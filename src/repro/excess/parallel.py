"""Process-parallel execution: the worker pool behind the exchange
operators.

The plan layer (:mod:`repro.excess.plan`) stays declarative — a
parallelized pipeline is an ordinary operator tree whose
:class:`~repro.excess.plan.ExchangeMerge` root *asks* this module to run
its fragment, and whose :class:`~repro.excess.plan.ExchangePartition`
leaves restrict each worker to one shard.  This module owns everything
process-shaped:

Worker lifecycle
    A :class:`WorkerPool` holds N daemon processes, each with its own
    pipe.  Workers are started with the ``fork`` method where available,
    so they inherit the database snapshot through copy-on-write page
    tables at near-zero cost (the ``spawn`` fallback pickles the
    database once per worker).  Workers never mutate user data; a
    worker's snapshot — and with it every cache it built — is valid for
    its whole lifetime.

Epoch-based invalidation
    The pool is stamped with the ``(catalog.epoch, data_version)`` token
    it was forked at.  The runner re-checks the token before every
    dispatch and **restarts the pool** when it moved — re-forking is the
    snapshot-refresh mechanism (O(page tables), no data copied).  The
    worker re-checks the token inside every task message as a backstop
    and answers ``("stale",)`` instead of computing against an old
    snapshot, which also invalidates its fragment cache.

Fragment shipping
    Plan fragments are pickled once per (fragment, pool) and cached on
    both sides: the parent caches the pickle bytes, each worker caches
    the revived tree keyed by the parent-assigned fragment id.  Per-node
    runtime caches (``_compiled`` closures, ``_fused`` functions,
    memoized hash builds) are dropped by ``PlanOp.__getstate__`` —
    workers recompile lazily on first execution and keep the result for
    the pool's lifetime.

Error propagation
    A worker exception is pickled back and, for range-partitioned
    fragments, re-raised from the **lowest erroring part** — which is
    exactly the first erroring row of the serial stream, so parallel
    errors are byte-identical to serial ones.  Hash-partitioned
    fragments (where part order no longer follows row order) and any
    infrastructure failure (dead worker, unpicklable payload, timeout)
    instead decline the parallel path entirely: the merge falls back to
    in-process execution, which raises the serial error — or succeeds,
    if the failure was environmental.

Everything here is **process-local by design**: the pool lives in the
parent interpreter, `multiprocessing` pipes are the only channel, and
workers reset :mod:`repro.util.faultinject` at startup so armed crash
points never leak across the process boundary (see that module's
process-locality note).
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading
from typing import Any, Optional

from repro.core.values import NULL
from repro.excess.plan import (
    PlanContext,
    PlanOp,
    parallelize_query_block,
    plan_ops,
    reset_stats,
)
from repro.util import faultinject

__all__ = [
    "Shard",
    "WorkerPool",
    "ParallelRunner",
    "run_fragment_task",
    "run_aggregate_task",
]

#: seconds the parent waits for one worker reply before declaring the
#: pool dead and falling back to serial execution
REPLY_TIMEOUT = 300.0

#: handed to fork children through module state (never set in workers)
_FORK_STATE: Optional[tuple] = None


class Shard:
    """Worker-side shard descriptor: which partition of how many this
    process executes.  Read by :class:`~repro.excess.plan.
    ExchangePartition` and by the fused scan codegen via
    ``ctx.exchange``."""

    __slots__ = ("part", "dop")

    def __init__(self, part: int, dop: int) -> None:
        self.part = part
        self.dop = dop


def _stats_tuple(stats: Any) -> tuple:
    return (
        stats.opens,
        stats.rows_in,
        stats.rows_out,
        stats.builds,
        stats.build_rows,
        stats.probes,
        stats.spill_partitions,
        stats.spill_bytes,
    )


def _fold_stats(root: PlanOp, replies: list) -> None:
    """Accumulate worker-side per-operator counters onto the parent's
    plan tree (same pickled structure ⇒ same pre-order)."""
    ops = plan_ops(root)
    for reply_stats in replies:
        for op, tup in zip(ops, reply_stats):
            stats = op.stats
            stats.opens += tup[0]
            stats.rows_in += tup[1]
            stats.rows_out += tup[2]
            stats.builds += tup[3]
            stats.build_rows += tup[4]
            stats.probes += tup[5]
            stats.spill_partitions += tup[6]
            stats.spill_bytes += tup[7]


def _worker_evaluator(db: Any, flags: tuple) -> Any:
    from repro.excess.evaluator import Evaluator

    # tolerate the shorter tuples of earlier protocols (tests drive the
    # task functions directly); the runner always ships all seven
    user, compile_mode, exec_mode, batch_size = flags[:4]
    remaining_ms = flags[4] if len(flags) > 4 else None
    budget = flags[5] if len(flags) > 5 else 0
    # the statement's literal values travel with every task: the cached
    # fragment is one plan shape, executed under many parameter vectors
    params = flags[6] if len(flags) > 6 else ()
    if exec_mode == "row":
        # workers always run fragments batch-at-a-time; results are
        # mode-independent (pinned by the exec_mode equivalence suite)
        exec_mode = "batch"
    # the parent ships its *remaining* statement time (floored at 1ms
    # when already expired, so the worker's own first cooperative check
    # raises the timeout) and the memory budget; each worker governs
    # its shard independently
    return Evaluator(
        db,
        user=user,
        compile_mode=compile_mode,
        exec_mode=exec_mode,
        batch_size=batch_size,
        statement_timeout_ms=remaining_ms or 0,
        memory_budget=budget or 0,
        params=params,
    )


def run_fragment_task(
    db: Any, frag: PlanOp, part: int, dop: int, mode: str, flags: tuple
) -> tuple[list, list]:
    """Execute one shard of a pipeline fragment against ``db``.

    A pure function of its arguments (also exercised in-process by the
    test suite): builds a worker evaluator carrying the shard
    descriptor, drains the fragment, and returns ``(rows, stats)``.

    ``mode="range"`` runs the fragment as-is — its projection emits
    result tuples (or ``(row, sort_keys)`` pairs) for this shard's
    contiguous member slice.  ``mode="hash"`` runs the projection
    manually so each output row is paired with the ``"#pos"`` stamp the
    hash partition tagged its input row with: the parent restores serial
    order by a stable sort on those positions.
    """
    evaluator = _worker_evaluator(db, flags)
    evaluator.exchange = Shard(part, dop)
    ctx = PlanContext(evaluator)
    reset_stats(frag)
    rows: list = []
    if mode == "range":
        frag_stats = frag.stats
        governor = ctx.governor
        for batch in frag.batches(ctx, {}, ctx.batch_size):
            if governor is not None:
                governor.check_timeout("worker")
            frag_stats.rows_out += len(batch)
            rows.extend(batch)
    else:
        rows = _run_hash_projection(frag, ctx)
    return rows, [_stats_tuple(op.stats) for op in plan_ops(frag)]


def _run_hash_projection(project: Any, ctx: PlanContext) -> list:
    """Mirror ``Project.run_batches`` (sans ``unique``, which the
    parallelizer excludes), keeping each input row's ``"#pos"`` tag:
    returns ``[(pos, row)]`` or ``[(pos, (row, sort_keys))]``."""
    out: list = []
    size = ctx.batch_size
    project.stats.opens += 1
    target_fns, order_fns = project.target_fns(ctx.compiled)
    for batch in project._pull_batches(project.children[0], ctx, {}, size):
        for row_env in batch:
            pos = row_env.pop("#pos")
            row = tuple(fn(row_env, ctx) for fn in target_fns)
            if order_fns:
                keys = tuple(fn(row_env, ctx) for fn in order_fns)
                out.append((pos, (row, keys)))
            else:
                out.append((pos, row))
    project.stats.rows_out += len(out)
    return out


def run_aggregate_task(
    db: Any, payload: tuple, part: int, dop: int, flags: tuple
) -> tuple[dict, list]:
    """Compute one shard's **partial** aggregate groups.

    ``payload`` is ``(inner_query, argument, inner_key, agg_mode)`` —
    the aggregate's range-partitioned inner pipeline plus the
    expressions to evaluate per row.  Returns ``({canonical_key: [raw
    values, in row order]}, stats)``; the parent concatenates the value
    lists in part order and applies the aggregate function **once**, so
    even order-sensitive folds (float summation) are byte-identical to
    serial execution.
    """
    inner, argument, inner_key, agg_mode = payload
    evaluator = _worker_evaluator(db, flags)
    evaluator.exchange = Shard(part, dop)
    evaluate = evaluator._eval_expr
    from repro.excess.evaluator import canonical_key

    groups: dict[Any, list] = {}
    tables: dict = {}
    root = inner.plan
    if root is not None:
        # workers cache revived payloads across statements
        reset_stats(root)
    for env in evaluator._query_rows(inner, {}, tables):
        value = evaluate(argument, env, tables)
        if value is NULL:
            continue
        if agg_mode == "partition":
            key = canonical_key(evaluate(inner_key, env, tables))
        else:
            key = ()
        groups.setdefault(key, []).append(value)
    stats = [_stats_tuple(op.stats) for op in plan_ops(root)] if root else []
    return groups, stats


def _worker_main(  # pragma: no cover — runs only in child processes
    conn: Any, db: Any = None, token: Any = None
) -> None:
    """Worker process loop: revive fragments, run shards, reply.

    Runs only in child processes (excluded from coverage — the parent's
    tracer does not follow forks); the task bodies it calls are the
    pure functions above, covered in-process.
    """
    global _FORK_STATE
    if db is None:
        db, token = _FORK_STATE  # type: ignore[misc]
    _FORK_STATE = None
    # crash points and ablation state are process-local: a worker must
    # behave as a clean interpreter even if the parent armed fault
    # injection after this process forked
    faultinject.reset()
    cache: dict[int, Any] = {}
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        kind = message[0]
        if kind == "stop":
            return
        try:
            if message[1] != token:
                # stale snapshot: refuse (and implicitly invalidate the
                # fragment cache — the parent restarts the pool)
                conn.send(("stale",))
                continue
            if kind == "frag":
                _k, _t, fkey, blob, part, dop, mode, flags = message
                if blob is not None:
                    cache[fkey] = pickle.loads(blob)
                rows, stats = run_fragment_task(
                    db, cache[fkey], part, dop, mode, flags
                )
                conn.send(("ok", rows, stats))
            elif kind == "agg":
                _k, _t, fkey, blob, part, dop, flags = message
                if blob is not None:
                    cache[fkey] = pickle.loads(blob)
                groups, stats = run_aggregate_task(
                    db, cache[fkey], part, dop, flags
                )
                conn.send(("ok", groups, stats))
            else:
                conn.send(("err", None, f"unknown message {kind!r}"))
        except Exception as exc:
            try:
                blob = pickle.dumps(exc)
            except Exception:
                blob = None
            try:
                conn.send(("err", blob, repr(exc)))
            except Exception:
                return


class WorkerPool:
    """``size`` daemon worker processes, one pipe each, stamped with the
    snapshot token they were started at."""

    def __init__(self, db: Any, token: tuple, size: int, start_method: str):
        global _FORK_STATE
        self.token = token
        self.size = size
        self.workers: list[tuple[Any, Any]] = []
        context = multiprocessing.get_context(start_method)
        fork = start_method == "fork"
        if fork:
            _FORK_STATE = (db, token)
        try:
            for _ in range(size):
                parent_conn, child_conn = context.Pipe()
                args = (child_conn,) if fork else (child_conn, db, token)
                process = context.Process(
                    target=_worker_main, args=args, daemon=True
                )
                process.start()
                child_conn.close()
                self.workers.append((process, parent_conn))
        finally:
            if fork:
                _FORK_STATE = None

    def stop(self) -> None:
        for process, conn in self.workers:
            try:
                conn.send(("stop",))
            except (OSError, ValueError):
                pass
            conn.close()
        for process, _conn in self.workers:
            process.join(timeout=2.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=2.0)
        self.workers = []


class _Stale(Exception):
    """A worker refused a task: its snapshot token no longer matches."""


class _PoolFailure(Exception):
    """Infrastructure failure (dead worker, timeout, bad payload)."""


class ParallelRunner:
    """Parent-side dispatcher: owns the pool, the pickled-fragment
    cache, and the gather/merge logic.  One per interpreter, shared
    across statements; thread-safe (one dispatch at a time)."""

    def __init__(self, db: Any, start_method: Optional[str] = None):
        self.db = db
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self.start_method = start_method
        #: worker budget (the interpreter re-stamps this from its
        #: ``workers`` flag before each statement)
        self.workers = 1
        self.pool: Optional[WorkerPool] = None
        self._lock = threading.Lock()
        self._next_key = 0
        #: id(obj) → (key, obj) — the obj ref pins ids against reuse
        self._keys: dict[int, tuple[int, Any]] = {}
        self._blobs: dict[int, bytes] = {}
        self._shipped: set[tuple[int, int]] = set()

    # -- lifecycle -------------------------------------------------------

    def token(self) -> tuple:
        return (self.db.catalog.epoch, self.db.data_version)

    def stop(self) -> None:
        with self._lock:
            self._stop_pool()

    def _stop_pool(self) -> None:
        if self.pool is not None:
            self.pool.stop()
            self.pool = None
        self._shipped.clear()

    def _ensure_pool(self, dop: int) -> WorkerPool:
        token = self.token()
        pool = self.pool
        if pool is not None and (pool.token != token or pool.size < dop):
            self._stop_pool()
            pool = None
        if pool is None:
            pool = WorkerPool(self.db, token, dop, self.start_method)
            self.pool = pool
        return pool

    # -- gating ----------------------------------------------------------

    def _eligible(self, ctx_or_evaluator: Any) -> bool:
        """Parallel execution requires the parent's plain, current
        snapshot: inside a transaction (or with any other session's
        snapshot open) the forked workers could not see the same state
        the statement must see, so the plan runs serially instead."""
        stamp = getattr(ctx_or_evaluator, "session_stamp", (None, None))
        if stamp != (None, None):
            return False
        transactions = getattr(self.db, "transactions", None)
        if transactions is not None and getattr(transactions, "versions", None):
            return False
        return True

    # -- shipping --------------------------------------------------------

    def _blob_for(self, obj: Any, payload: Any) -> tuple[int, bytes]:
        entry = self._keys.get(id(obj))
        if entry is not None:
            key = entry[0]
            return key, self._blobs[key]
        if len(self._keys) >= 256:
            # plan-cache churn: drop the pickle cache (workers keep
            # their copies keyed by id, which stay valid until restart)
            self._keys.clear()
            self._blobs.clear()
        key = self._next_key
        self._next_key += 1
        blob = pickle.dumps(payload)
        self._keys[id(obj)] = (key, obj)
        self._blobs[key] = blob
        return key, blob

    def _dispatch(self, pool: WorkerPool, messages: list[tuple]) -> list:
        """Send one message per part, collect one reply per part (in
        part order); raises :class:`_Stale` / :class:`_PoolFailure`."""
        for part, message in enumerate(messages):
            _process, conn = pool.workers[part]
            try:
                conn.send(message)
            except (OSError, ValueError) as exc:
                raise _PoolFailure(str(exc)) from exc
        replies = []
        stale = False
        failure: Optional[str] = None
        for part in range(len(messages)):
            process, conn = pool.workers[part]
            try:
                if not conn.poll(REPLY_TIMEOUT):
                    failure = failure or f"worker {part} timed out"
                    replies.append(None)
                    continue
                reply = conn.recv()
            except (EOFError, OSError) as exc:
                failure = failure or f"worker {part} died: {exc!r}"
                replies.append(None)
                continue
            if reply[0] == "stale":
                stale = True
                replies.append(None)
            else:
                replies.append(reply)
        if failure is not None:
            raise _PoolFailure(failure)
        if stale:
            raise _Stale
        return replies

    def _run_parts(
        self, key: int, blob: bytes, kind: str, dop: int, extra: tuple
    ) -> list:
        """Ship + run one task on parts 0..dop-1, restarting the pool
        once on a stale-token reply."""
        for attempt in (0, 1):
            pool = self._ensure_pool(dop)
            messages = []
            for part in range(dop):
                send_blob = blob if (part, key) not in self._shipped else None
                if kind == "frag":
                    mode, flags = extra
                    messages.append(
                        ("frag", pool.token, key, send_blob, part, dop, mode, flags)
                    )
                else:
                    (flags,) = extra
                    messages.append(
                        ("agg", pool.token, key, send_blob, part, dop, flags)
                    )
            try:
                replies = self._dispatch(pool, messages)
            except _Stale:
                self._stop_pool()
                if attempt == 1:
                    raise _PoolFailure("stale token after pool restart")
                continue
            for part in range(dop):
                self._shipped.add((part, key))
            return replies
        raise _PoolFailure("unreachable")  # pragma: no cover

    @staticmethod
    def _flags(ctx: PlanContext) -> tuple:
        evaluator = ctx.evaluator
        governor = getattr(evaluator, "governor", None)
        return (
            evaluator.user,
            getattr(evaluator, "compile_mode", "closure"),
            getattr(evaluator, "exec_mode", "fused"),
            ctx.batch_size,
            governor.remaining_ms() if governor is not None else None,
            governor.memory_budget if governor is not None else 0,
            ctx.params,
        )

    # -- exchange fragments ----------------------------------------------

    def run_exchange(self, merge: Any, ctx: PlanContext) -> Optional[list]:
        """Run an :class:`~repro.excess.plan.ExchangeMerge` fragment on
        the pool; returns the gathered rows in serial order, or None to
        make the merge fall back to in-process execution."""
        with self._lock:
            if not self._eligible(ctx):
                return None
            frag = merge.children[0]
            dop = merge.dop
            try:
                key, blob = self._blob_for(frag, frag)
                replies = self._run_parts(
                    key, blob, "frag", dop, (merge.mode, self._flags(ctx))
                )
            except _PoolFailure:
                self._stop_pool()
                return None
            except Exception:
                # unpicklable fragment or similar — decline, run serially
                return None
            errors = [
                (part, reply)
                for part, reply in enumerate(replies)
                if reply[0] == "err"
            ]
            if errors:
                if merge.mode != "range":
                    # hash parts no longer follow row order, so the
                    # lowest-part error may not be the serial one:
                    # re-run serially for byte-identical error behavior
                    return None
                part, reply = errors[0]
                if reply[1] is None:
                    return None
                try:
                    exc = pickle.loads(reply[1])
                except Exception:
                    return None
                # the lowest erroring range part holds the first
                # erroring row of the serial stream
                raise exc
            _fold_stats(frag, [reply[2] for reply in replies])
            if merge.mode == "range":
                rows: list = []
                for reply in replies:
                    rows.extend(reply[1])
                return rows
            tagged: list = []
            for reply in replies:
                tagged.extend(reply[1])
            tagged.sort(key=lambda entry: entry[0])  # stable: ties stay put
            return [item for _pos, item in tagged]

    # -- partial aggregates ----------------------------------------------

    def run_aggregate(
        self, evaluator: Any, aggregate: Any, tables: dict
    ) -> Optional[dict]:
        """Compute a global/partition aggregate's table on the pool
        (partial groups per shard, combined in part order, the aggregate
        function applied once by the parent).  Returns the computed
        table, or None to make the evaluator run the serial path."""
        with self._lock:
            if aggregate.mode not in ("global", "partition"):
                return None
            if not self._eligible(evaluator):
                return None
            inner = evaluator._aggregate_query(aggregate)
            try:
                dop = parallelize_query_block(
                    inner, self.db.catalog, self.workers
                )
            except Exception:
                return None
            if dop < 2:
                return None
            governor = getattr(evaluator, "governor", None)
            flags = (
                evaluator.user,
                getattr(evaluator, "compile_mode", "closure"),
                getattr(evaluator, "exec_mode", "fused"),
                getattr(evaluator, "batch_size", 1024),
                governor.remaining_ms() if governor is not None else None,
                governor.memory_budget if governor is not None else 0,
                getattr(evaluator, "params", ()),
            )
            payload = (
                inner,
                aggregate.argument,
                aggregate.inner_key,
                aggregate.mode,
            )
            try:
                key, blob = self._blob_for(aggregate, payload)
                replies = self._run_parts(key, blob, "agg", dop, (flags,))
            except _PoolFailure:
                self._stop_pool()
                return None
            except Exception:
                return None
            if any(reply[0] == "err" for reply in replies):
                # deterministic errors re-raise identically on the
                # serial path; environmental ones heal there
                return None
            root = inner.plan
            if root is not None:
                reset_stats(root)
                _fold_stats(root, [reply[2] for reply in replies])
                evaluator._absorb_stats(root)
            groups: dict[Any, list] = {}
            for reply in replies:
                for group_key, values in reply[1].items():
                    groups.setdefault(group_key, []).extend(values)
            return {
                group_key: aggregate.function.impl(values)
                for group_key, values in groups.items()
            }

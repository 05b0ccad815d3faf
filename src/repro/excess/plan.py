"""The physical plan IR: a Volcano-style pipeline of pull operators.

The optimizer *lowers* a bound (and annotated) query into a tree of
composable iterator operators — the paper's §4.1.3 architecture of a
table-driven optimizer emitting plans over pluggable access methods,
reproduced at small scale.  Each operator follows the classic
open/next/close lifecycle and keeps its own counters (rows in/out, opens,
hash builds/probes), so EXPLAIN can print the operator tree with
estimated and actual row counts and a statement's metrics aggregate from
operator counters (:func:`plan_counters`) instead of ad-hoc increments.

Operator inventory
------------------

Row sources (bind one range variable per input row):

* :class:`SeqScan` — live members of a named set (or slots of a named
  array), in insertion order;
* :class:`IndexScan` — an equality or range probe through a physical
  index chosen by the optimizer's access-method selection;
* :class:`PathExpand` — members of a set-valued path under an
  already-bound parent variable (the paper's nested-set iteration);
* :class:`FunctionScan` — values produced by a registered iterator
  function (e.g. ``interval``).

Row transformers:

* :class:`Filter` — residual/where predicates, kept only when definitely
  true (three-valued logic);
* :class:`SemiJoinProbe` — a membership predicate over a named set,
  answered against a memoized member-key set;
* :class:`NestedLoopJoin` — re-opens its inner subtree per outer row;
* :class:`HashJoin` — builds a hash table over its build subtree once
  (memoized across executions until the database's data version moves)
  and probes it per outer row;
* :class:`UniversalCheck` — ∀ semantics: an input row survives iff the
  predicate holds for every combination of the universal bindings;
* :class:`Aggregate` — computes aggregate partition tables at open, then
  streams its input through.

Row finishers (tuple-level, above the binding pipeline):

* :class:`Project` — evaluates the target list (with optional duplicate
  elimination and sort-key computation);
* :class:`Sort` — stable multi-key sort, null keys deterministically
  last in both directions;
* :class:`StoreInto` — materializes the result as a named set
  (``retrieve ... into``).

Execution contract
------------------

The binding pipeline streams **one shared environment dict**, mutated in
place as scans bind their variables (this is what keeps the plan IR as
fast as the pre-IR nested-loop interpreter: no per-candidate-row dict
copies).  Consumers that retain rows must snapshot:
:meth:`repro.excess.evaluator.Evaluator.query_envs` copies each
qualifying environment, and the tuple-level operators produce fresh row
tuples.  A fused region (``exec_mode="fused"``) is the exception: the
generated function returns private per-row snapshots, which nobody
copies again (see :meth:`PlanOp._pull`).  Operator statistics
accumulate across re-opens within one execution and are reset by the
executor before each execution, so ``stats`` always describes the most
recent run.
"""

from __future__ import annotations

import heapq
import zlib
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import Any, Iterator, Optional

from repro.core.governor import row_footprint
from repro.core.values import (
    NULL,
    ArrayInstance,
    Ref,
    SetInstance,
    TupleInstance,
)
from repro.errors import EvaluationError
from repro.storage.spill import SpillFile
from repro.excess.binder import (
    AdtCall,
    AggregateRef,
    AttrStep,
    Binary,
    BoundAggregate,
    BoundAppend,
    BoundExpr,
    BoundQuery,
    BoundReplace,
    BoundRetrieve,
    Const,
    ExcessCall,
    IndexStepB,
    IteratorSource,
    Membership,
    NamedSetSource,
    NamedValue,
    Param,
    PathSource,
    RangeBinding,
    Unary,
    VarRef,
)
from repro.excess.compile import (
    aggregate_sink,
    compile_all,
    compiled_label,
    fused_pipeline,
    lowers_fully,
)

__all__ = [
    "PlanContext",
    "OpStats",
    "PlanOp",
    "Singleton",
    "SeqScan",
    "IndexScan",
    "PathExpand",
    "FunctionScan",
    "Filter",
    "SemiJoinProbe",
    "NestedLoopJoin",
    "HashJoin",
    "UniversalCheck",
    "Aggregate",
    "WritePlan",
    "Project",
    "Sort",
    "StoreInto",
    "ExchangePartition",
    "ExchangeMerge",
    "ExchangeBroadcast",
    "join_key",
    "partition_hash",
    "shared_passes",
    "sort_rows",
    "parallelize_pipeline",
    "parallelize_query_block",
    "lower_query",
    "lower_retrieve",
    "ensure_query_plan",
    "ensure_retrieve_plan",
    "lower_write",
    "ensure_write_plan",
    "describe_expr",
    "render_plan",
    "snapshot_stats",
    "plan_ops",
    "walk_plan",
    "reset_stats",
    "reset_counters",
    "runnable_region",
    "fusable_ops",
    "fused_regions",
    "pipeline_sources",
    "plan_counters",
]

Env = dict

#: sentinel distinguishing "binding name absent from env" from None values
_MISSING = object()

#: operator classes whose output rows count as "rows scanned" (candidate
#: members enumerated from binding sources) in a statement's metrics
SCAN_OPS: tuple = ()  # filled in below, after the classes exist

#: fan-out of Grace hash-join and aggregate spills (number of on-disk
#: partitions); enough that each partition's rebuilt table is ~1/8 of
#: the over-budget build while keeping file handles trivial
SPILL_PARTITIONS = 8


def _budgeted(ctx: "PlanContext") -> bool:
    """True when the statement runs under a ``memory_budget``."""
    governor = ctx.governor
    return governor is not None and governor.memory_budget > 0


def runnable_region(op: "PlanOp", ctx: "PlanContext") -> Optional[Any]:
    """The fused region (:func:`~repro.excess.compile.fused_pipeline`)
    rooted at ``op`` that this execution runs, or None: row mode (the
    oracle never builds or calls a region), ``op`` roots no region, or
    the region probes a hash join under a ``memory_budget``, whose build
    may spill (the row operators take that Grace path)."""
    if ctx.exec_mode == "row":
        return None
    fused = fused_pipeline(op, ctx.compiled)
    if fused is None or (fused.hash_join and _budgeted(ctx)):
        return None
    return fused


def _spill_note(stats: "OpStats") -> str:
    """The ``spill=[partitions=N, bytes=M]`` EXPLAIN suffix (empty when
    the operator stayed in memory)."""
    if not stats.spill_partitions:
        return ""
    return (
        f" spill=[partitions={stats.spill_partitions},"
        f" bytes={stats.spill_bytes}]"
    )


# ---------------------------------------------------------------------------
# Execution context and statistics
# ---------------------------------------------------------------------------


class PlanContext:
    """Per-execution state shared by every operator of one plan run.

    Holds the evaluator (expression evaluation, dereferencing, the
    database) and the aggregate tables filled by :class:`Aggregate` at
    open.  Plans themselves are immutable and shareable (they live in the
    plan cache); everything execution-scoped lives here or in operator
    stats.  A statement's :class:`~repro.excess.evaluator.Evaluator` is
    the context its top-level plan runs under; ``PlanContext(evaluator,
    tables)`` is a view of it with other tables, for the runs nested in
    that statement.
    """

    __slots__ = (
        "evaluator",
        "tables",
        "db",
        "objects",
        "compiled",
        "exec_mode",
        "session_stamp",
        "exchange",
        "parallel",
        "governor",
        "params",
    )

    def __init__(self, evaluator: Any, tables: Optional[dict] = None):
        self.evaluator = evaluator
        self.tables = {} if tables is None else tables
        # the evaluator's per-execution state (documented there), copied:
        # operators and generated code read it per row or per call
        self.db = evaluator.db
        self.objects = evaluator.objects
        self.session_stamp = evaluator.session_stamp
        self.compiled = evaluator.compiled
        self.exec_mode = evaluator.exec_mode
        self.exchange = evaluator.exchange
        self.parallel = evaluator.parallel
        self.governor = evaluator.governor
        self.params = evaluator.params


@dataclass
class OpStats:
    """Per-operator execution counters (reset before each execution)."""

    #: times the operator was opened (inner sides of joins re-open)
    opens: int = 0
    #: rows pulled from the primary input
    rows_in: int = 0
    #: rows produced
    rows_out: int = 0
    #: hash tables built (HashJoin)
    builds: int = 0
    #: rows loaded into hash tables (HashJoin)
    build_rows: int = 0
    #: probe lookups performed (HashJoin)
    probes: int = 0
    #: on-disk partitions/runs this operator spilled into (0 = in memory)
    spill_partitions: int = 0
    #: bytes written to spill files (build + probe / runs / partitions)
    spill_bytes: int = 0


# ---------------------------------------------------------------------------
# Operator base
# ---------------------------------------------------------------------------


class PlanOp:
    """One physical operator: open/next/close over environments or rows.

    Subclasses implement :meth:`_run`, a generator over the incoming
    environment; the base class provides the Volcano protocol and the
    bookkeeping (``stats.rows_out`` counted in :meth:`next`).  Adding an
    operator (parallel scan, batch probe, external sort) means adding a
    subclass and a lowering rule — no evaluator changes.
    """

    label = "Op"

    def __init__(self, children: Optional[list["PlanOp"]] = None):
        self.children: list[PlanOp] = list(children or [])
        self.stats = OpStats()
        #: optimizer's cardinality guess for this operator's output
        self.est_rows: Optional[int] = None
        # Plans are shared across executions (they live in the plan cache
        # and on bound statements), and a recursive EXCESS function can
        # re-enter a tree that is already mid-iteration.  Each open()
        # therefore pushes a fresh generator on a stack instead of
        # clobbering a single slot; next()/close() act on the top.
        self._iters: list[Iterator] = []
        #: executor depth — outermost run resets/absorbs stats
        self.running: int = 0

    # -- lifecycle -------------------------------------------------------

    def open(self, ctx: PlanContext, env: Env) -> None:
        """Prepare to produce rows for one incoming environment."""
        self.stats.opens += 1
        self._iters.append(self._run(ctx, env))

    def next(self) -> Optional[Any]:
        """The next row, or None when exhausted."""
        assert self._iters, f"{self.label}.next() before open()"
        row = next(self._iters[-1], None)
        if row is not None:
            self.stats.rows_out += 1
        return row

    def close(self) -> None:
        """Release the current iteration (children close recursively via
        their generators' ``finally`` blocks)."""
        if self._iters:
            self._iters.pop().close()

    def __getstate__(self) -> dict:
        # bound statements (and their cached plans) are pickled by
        # transaction snapshots, and plan fragments are shipped to
        # parallel workers; generators are transient execution state,
        # and compiled closures are unpicklable by nature — every
        # per-node runtime cache is dropped here and rebuilt lazily
        # after unpickling (workers recompile on first execution)
        state = dict(self.__dict__)
        state["_iters"] = []
        state["running"] = 0
        state.pop("_compiled", None)
        state.pop("_fused", None)
        state.pop("_plan_ops", None)
        state.pop("_counters", None)
        state.pop("_fragment_key", None)
        if "_memo" in state:
            # memoized hash-build tables hold live object references and
            # a stamp from the building process — never ship them
            state["_memo"] = None
        return state

    def _run(self, ctx: PlanContext, env: Env) -> Iterator[Any]:
        raise NotImplementedError

    # -- helpers ---------------------------------------------------------

    def _pull(self, child: "PlanOp", ctx: PlanContext, env: Env) -> Iterator[Any]:
        """Stream ``child``'s rows for ``env`` — the one place a child is
        pulled — counting its ``rows_out`` and, for the primary input
        (``children[0]``), this operator's ``rows_in``; under a
        governor that is watching (a deadline, an armed injection
        point), one cooperative timeout check per row.

        A child that roots a region this execution runs
        (:func:`runnable_region`) is one call of its generated function,
        whose rows are private snapshots. Any other child runs its
        :meth:`_run`, iterated directly rather than through ``next()``;
        its binding-level rows are the one shared environment, so a
        consumer that keeps them must copy them (as
        :meth:`~repro.excess.evaluator.Evaluator.query_envs` does).
        """
        fused = runnable_region(child, ctx)
        if fused is None:
            child.open(ctx, env)
            rows = child._iters[-1]
        else:
            rows = fused.fn(ctx, env)
        child_stats = child.stats
        stats = self.stats if child is self.children[0] else OpStats()
        governor = ctx.governor
        watching = governor is not None and governor.watching
        try:
            for row in rows:
                if watching:
                    governor.check_timeout("pull")
                child_stats.rows_out += 1
                stats.rows_in += 1
                yield row
        finally:
            if fused is None:
                child.close()

    def _pull_all(self, child: "PlanOp", ctx: PlanContext, env: Env) -> list:
        """Every row of ``child`` (:meth:`_pull`), for the operators that
        materialize their input: a region's rows are its function's own
        list, with no per-row generator hop and one timeout check."""
        fused = runnable_region(child, ctx)
        if fused is None:
            return list(self._pull(child, ctx, env))
        rows = fused.fn(ctx, env)
        if ctx.governor is not None:
            ctx.governor.check_timeout("pull")
        child.stats.rows_out += len(rows)
        self.stats.rows_in += len(rows)
        return rows

    # -- description -----------------------------------------------------

    def describe(self, params: tuple = ()) -> str:
        """One-line operator description for the rendered plan tree;
        parameter slots print the value ``params`` gives them (the
        value the plan was prepared with when ``params`` is empty)."""
        return self.label

    def child_roles(self) -> list[tuple[str, "PlanOp"]]:
        """Children annotated with their role (for tree rendering)."""
        return [("", child) for child in self.children]

    def extra_counters(self, stats: "OpStats") -> str:
        """Operator-specific counters appended to the actuals display,
        read from ``stats`` (live or a snapshot of this operator's)."""
        return ""

    # -- expressions -----------------------------------------------------

    def exprs(self) -> list[BoundExpr]:
        """The bound expressions this operator evaluates (none for
        operators that only move rows)."""
        return []

    def compiled_exprs(self, compiled: bool) -> tuple[list, bool]:
        """``(fns, full)`` for :meth:`exprs`, in order: one callable
        ``fn(env, ctx)`` per expression from :func:`~repro.excess.
        compile.compile_all`, which alone decides what ``compiled``
        means.  Cached on the node per mode — function-body plans are
        shared by ``closure`` and ``off`` executions — in the
        ``_compiled`` slot that ``__getstate__`` drops."""
        cache = self.__dict__.get("_compiled")
        if cache is None:
            cache = self.__dict__["_compiled"] = {}
        entry = cache.get(compiled)
        if entry is None:
            entry = cache[compiled] = compile_all(self.exprs(), compiled)
        return entry

    def compiled_note(self, compiled: bool = True) -> Optional[str]:
        """``closure``/``fallback``/``off`` for operators that evaluate
        expressions, None otherwise — the per-operator ``compiled=``
        annotation of the rendered plan, read off the lowering (so
        rendering generates and ``exec``s no function)."""
        exprs = self.exprs()
        if not exprs:
            return None
        return compiled_label(compiled and lowers_fully(exprs), compiled)

    def exchange_note(self) -> Optional[str]:
        """``[hash(k), dop=N]``-style annotation for exchange operators,
        None for ordinary (serial) operators — the ``exchange=``
        annotation of the rendered plan."""
        return None


# ---------------------------------------------------------------------------
# Row sources
# ---------------------------------------------------------------------------


def _live_of(collection: Any, ctx: PlanContext) -> list:
    """A set's live members, or an array's live non-null slots in order
    (dangling references skipped, GEM null-on-dangle)."""
    live = ctx.objects.store.live
    if isinstance(collection, ArrayInstance):
        return collection.live_slots(live)
    return collection.live_members(live)


def _scan_members(ctx: PlanContext, set_name: str) -> list:
    """Live members of a named set (or a named array's live, non-null
    slots, in order): the row-mode ``SeqScan``'s source, and the
    range-partitioning exchange's."""
    collection = ctx.db.named(set_name).value
    if not isinstance(collection, (ArrayInstance, SetInstance)):
        raise EvaluationError(f"{set_name!r} is not a collection")
    return _live_of(collection, ctx)


class Singleton(PlanOp):
    """Produces the incoming (outer) environment exactly once — the seed
    of a pipeline with no range bindings (``retrieve (Today)``)."""

    label = "Singleton"

    def __init__(self) -> None:
        super().__init__()
        self.est_rows = 1

    def _run(self, ctx: PlanContext, env: Env) -> Iterator[Env]:
        yield env


class _BindingOp(PlanOp):
    """Base for operators that bind one range variable in the shared
    environment, restoring any shadowed value on close."""

    #: True when the binding's element is a first-class object (``ref`` /
    #: ``own ref``): every member is a Ref, so fused code iterates the
    #: set's Refs (an index's OIDs) and looks each record up once.
    #: Stamped by :func:`_source_op`; the class default keeps plans
    #: pickled without it on the generic path.
    is_object = False

    def __init__(self, var: str) -> None:
        super().__init__()
        self.var = var


class SeqScan(_BindingOp):
    """Scan the live members of a named set (or a named array's live,
    non-null slots, in order)."""

    label = "SeqScan"

    def __init__(self, set_name: str, var: str) -> None:
        super().__init__(var)
        self.set_name = set_name

    def describe(self, params: tuple = ()) -> str:
        return f"SeqScan {self.set_name} as {self.var}"

    def _run(self, ctx: PlanContext, env: Env) -> Iterator[Env]:
        members = _scan_members(ctx, self.set_name)
        saved = env.get(self.var, _MISSING)
        try:
            for member in members:
                env[self.var] = member
                yield env
        finally:
            if saved is _MISSING:
                env.pop(self.var, None)
            else:
                env[self.var] = saved


class IndexScan(_BindingOp):
    """Probe a physical index with an equality or range key.

    The key expression is evaluated against the incoming environment at
    open, so correlated probes (keys referencing earlier bindings) work;
    a null key produces no rows (3VL: nothing compares to null).
    """

    label = "IndexScan"

    def __init__(self, binding: RangeBinding) -> None:
        super().__init__(binding.name)
        self.descriptor = binding.index_descriptor
        self.op = binding.index_op
        self.key_expr = binding.index_key

    def describe(self, params: tuple = ()) -> str:
        return (
            f"IndexScan {self.descriptor.name} ({self.op} "
            f"{describe_expr(self.key_expr, params)}) as {self.var}"
        )

    def exprs(self) -> list[BoundExpr]:
        return [self.key_expr]

    def _run(self, ctx: PlanContext, env: Env) -> Iterator[Env]:
        oids = self._probe_oids(ctx, env)
        if oids is None:
            return
        db = ctx.db
        saved = env.get(self.var, _MISSING)
        try:
            for oid in oids:
                if db.objects.is_live(oid):
                    env[self.var] = Ref(oid)
                    yield env
        finally:
            if saved is _MISSING:
                env.pop(self.var, None)
            else:
                env[self.var] = saved

    def _probe_oids(self, ctx: PlanContext, env: Env) -> Optional[list]:
        """Evaluate the key once against ``env`` and probe the index;
        None when the key is null (3VL: nothing compares to null)."""
        (key_fn,), _full = self.compiled_exprs(ctx.compiled)
        key = key_fn(env, ctx)
        if key is NULL:
            return None
        index = self.descriptor.index
        if self.op == "=":
            return list(index.search(key))
        if not getattr(index, "supports_range", False):
            raise EvaluationError("index does not support range scans")
        if self.op in ("<", "<="):
            pairs = index.range_scan(None, key, include_high=(self.op == "<="))
        else:
            pairs = index.range_scan(key, None, include_low=(self.op == ">="))
        return [oid for _key, oid in pairs]


class PathExpand(_BindingOp):
    """Expand a set- or array-valued path under an already-bound parent
    variable (implicit nested-set join, paper §3.3)."""

    label = "PathExpand"

    #: the binder's component spec of each step (None: not stamped, so
    #: fused code tests each step value's class); class default for
    #: plans pickled without it
    specs = None

    def __init__(self, source: PathSource, var: str) -> None:
        super().__init__(var)
        self.parent = source.parent
        self.steps = list(source.steps)
        self.specs = source.specs

    def describe(self, params: tuple = ()) -> str:
        path = ".".join([self.parent, *self.steps])
        return f"PathExpand {path} as {self.var}"

    def _resolve_collection(self, ctx: PlanContext, env: Env) -> Any:
        """Walk the path under the bound parent; None when any step is
        null, dangling, or not an object (the binding produces no rows)."""
        evaluator = ctx.evaluator
        current: Any = evaluator._resolve_instance(env.get(self.parent))
        for step in self.steps:
            if not isinstance(current, TupleInstance):
                return None
            value = current.get(step)
            if value is NULL:
                return None
            if isinstance(value, Ref):
                value = evaluator._deref(value)
                if value is None:
                    return None
            current = value
        return current

    def _run(self, ctx: PlanContext, env: Env) -> Iterator[Env]:
        current = self._resolve_collection(ctx, env)
        if current is None:
            return
        saved = env.get(self.var, _MISSING)
        try:
            if isinstance(current, (ArrayInstance, SetInstance)):
                for member in _live_of(current, ctx):
                    env[self.var] = member
                    yield env
        finally:
            if saved is _MISSING:
                env.pop(self.var, None)
            else:
                env[self.var] = saved


class FunctionScan(_BindingOp):
    """Iterate the values of a registered iterator function; a null
    argument produces no rows."""

    label = "FunctionScan"

    def __init__(self, source: IteratorSource, var: str) -> None:
        super().__init__(var)
        self.function = source.function
        self.args = list(source.args)

    def describe(self, params: tuple = ()) -> str:
        args = ", ".join(describe_expr(a, params) for a in self.args)
        return f"FunctionScan {self.function.name}({args}) as {self.var}"

    def exprs(self) -> list[BoundExpr]:
        return self.args

    def _run(self, ctx: PlanContext, env: Env) -> Iterator[Env]:
        fns, _full = self.compiled_exprs(ctx.compiled)
        args = [fn(env, ctx) for fn in fns]
        if any(a is NULL for a in args):
            return
        saved = env.get(self.var, _MISSING)
        try:
            for value in self.function.impl(*args):
                env[self.var] = value
                yield env
        finally:
            if saved is _MISSING:
                env.pop(self.var, None)
            else:
                env[self.var] = saved


# ---------------------------------------------------------------------------
# Row transformers
# ---------------------------------------------------------------------------


class Filter(PlanOp):
    """Keep rows whose predicates are all definitely true (3VL)."""

    label = "Filter"

    def __init__(self, child: PlanOp, predicates: list[BoundExpr]) -> None:
        super().__init__([child])
        self.predicates = list(predicates)

    def describe(self, params: tuple = ()) -> str:
        return "Filter " + " and ".join(
            describe_expr(p, params) for p in self.predicates
        )

    def exprs(self) -> list[BoundExpr]:
        return self.predicates

    def _run(self, ctx: PlanContext, env: Env) -> Iterator[Env]:
        fns, _full = self.compiled_exprs(ctx.compiled)
        if len(fns) == 1:
            predicate = fns[0]
            for row in self._pull(self.children[0], ctx, env):
                if predicate(row, ctx) is True:
                    yield row
        else:
            for row in self._pull(self.children[0], ctx, env):
                for predicate in fns:
                    if predicate(row, ctx) is not True:
                        break
                else:
                    yield row


class SemiJoinProbe(PlanOp):
    """A (possibly negated) membership predicate over a named set,
    answered against the evaluator's memoized member-key set instead of
    rescanning the collection per candidate row."""

    label = "SemiJoinProbe"

    def __init__(self, child: PlanOp, membership: Membership) -> None:
        super().__init__([child])
        self.membership = membership

    def describe(self, params: tuple = ()) -> str:
        return f"SemiJoinProbe {describe_expr(self.membership, params)}"

    def exprs(self) -> list[BoundExpr]:
        # Membership always lowers to an interpreter callback (the
        # memoized key-set machinery lives on the evaluator)
        return [self.membership]

    def _run(self, ctx: PlanContext, env: Env) -> Iterator[Env]:
        (member_of,), _full = self.compiled_exprs(ctx.compiled)
        for row in self._pull(self.children[0], ctx, env):
            self.stats.probes += 1
            if member_of(row, ctx) is True:
                yield row

    def extra_counters(self, stats: OpStats) -> str:
        return f" probes={stats.probes}"


class NestedLoopJoin(PlanOp):
    """Re-open the inner subtree for every outer row.

    Because the pipeline streams one shared environment, the inner
    subtree sees the outer row's bindings simply by being opened after
    the outer scan bound them — the implicit-join semantics of the
    original nested-loop interpreter, now an explicit operator.
    """

    label = "NestedLoopJoin"

    def __init__(self, outer: PlanOp, inner: PlanOp) -> None:
        super().__init__([outer, inner])

    def child_roles(self) -> list[tuple[str, PlanOp]]:
        return [("outer", self.children[0]), ("inner", self.children[1])]

    def _run(self, ctx: PlanContext, env: Env) -> Iterator[Env]:
        outer, inner = self.children
        for row in self._pull(outer, ctx, env):
            # the inner subtree sees the outer row as its environment
            yield from self._pull(inner, ctx, row)


class _SpilledBuild:
    """A hash-join build side that overflowed its memory budget.

    Holds the Grace partitions (``SpillFile`` of ``(key, member)``
    records, routed by ``partition_hash(key)``); the probe phase
    partitions its own input the same way and joins partition by
    partition. One-shot: the files are consumed by the probe that
    triggered the build and never memoized on the plan.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: list) -> None:
        self.parts = parts

    def close(self) -> None:
        for part in self.parts:
            part.close()


class HashJoin(PlanOp):
    """Equi-join: build a hash table over the build subtree once, probe
    it per outer row.

    The build side is env-independent by construction (the optimizer only
    annotates full scans of named sets), so the table is memoized **on
    the plan** and reused across executions until the database's data
    version moves — any append/delete/replace/set invalidates it.  Null
    keys follow 3VL: ``=`` drops them on both sides; ``is`` keeps them
    (``null is null`` is true).

    Under an active ``memory_budget`` the build accounts each loaded
    member against the statement's governor; a refused reservation
    switches to a Grace-style spilled build (see :class:`_SpilledBuild`)
    whose probe phase reproduces the in-memory output byte for byte:
    probe rows are tagged with their input position, partitions join
    independently, and a final stable sort by position restores the
    probe-driven output order (member order within a position is the
    build-side insertion order either way).
    """

    label = "HashJoin"

    #: True when the build binding's element is a first-class object:
    #: every table member is then a Ref (see ``_BindingOp.is_object``)
    is_object = False

    def __init__(
        self,
        outer: PlanOp,
        build: PlanOp,
        binding: RangeBinding,
        cardinality: int = 0,
    ) -> None:
        super().__init__([outer, build])
        self.var = binding.name
        self.is_object = binding.element.semantics.is_object
        self.build_key = binding.hash_build_key
        self.probe_key = binding.hash_probe_key
        self.join_op = binding.hash_join_op
        self.detail = binding.join_detail
        self.build_cardinality = cardinality
        #: memoized build table as one (stamp, table) tuple — written
        #: and read with single attribute operations so concurrent
        #: readers sharing a cached plan across threads always see a
        #: consistent pair (never a table paired with another's stamp)
        self._memo: Optional[tuple] = None

    def describe(self, params: tuple = ()) -> str:
        op = self.join_op
        return (
            f"HashJoin {describe_expr(self.probe_key, params)} {op} "
            f"{describe_expr(self.build_key, params)} as {self.var}"
        )

    def child_roles(self) -> list[tuple[str, PlanOp]]:
        return [("outer", self.children[0]), ("build", self.children[1])]

    def extra_counters(self, stats: OpStats) -> str:
        return f" builds={stats.builds} probes={stats.probes}{_spill_note(stats)}"

    def invalidate(self) -> None:
        """Drop the memoized build table (tests / explicit flushes)."""
        self._memo = None

    def exprs(self) -> list[BoundExpr]:
        return [self.build_key, self.probe_key]

    def _table_for(self, ctx: PlanContext) -> Any:
        budgeted = _budgeted(ctx)
        stamp = (ctx.db.data_version, ctx.session_stamp, self._build_params(ctx))
        memo = self._memo  # single read: thread-consistent pair
        if not budgeted and memo is not None and memo[0] == stamp:
            return memo[1]
        table = self._build(ctx)
        if budgeted or isinstance(table, _SpilledBuild):
            # spilled partitions are consumed by this probe, and a
            # budgeted statement must account every build it uses — a
            # memoized table is exactly the unbounded cross-statement
            # memory a budget forbids, so neither is ever memoized
            return table
        self._memo = (stamp, table)
        return table

    def _build_params(self, ctx: PlanContext) -> tuple:
        """The parameter values the build side reads — part of the memo
        stamp, so a table built under one literal is never probed under
        another.  All of ``ctx.params`` when some build expression's
        inputs cannot be told from its tree."""
        slots = self.__dict__.get("_build_slots", _MISSING)
        if slots is _MISSING:
            nodes = [self.build_key]
            for op in walk_plan(self.children[1]):
                nodes.extend(op.exprs())
            slots = self.__dict__["_build_slots"] = _param_slots(nodes)
        if slots is None:
            return ctx.params
        return tuple(ctx.params[slot] for slot in slots)

    def _build_entries(self, ctx: PlanContext) -> Iterator[tuple]:
        """Stream the build side as ``(key, member)`` pairs, counting
        build stats exactly as the in-memory build always did."""
        (build_fn, _probe_fn), _full = self.compiled_exprs(ctx.compiled)
        stats = self.stats
        var = self.var
        join_op = self.join_op
        for row in self._pull(self.children[1], ctx, {}):
            stats.build_rows += 1
            key = join_key(build_fn(row, ctx), join_op)
            if key is None:
                continue
            yield key, row[var]

    def _build(self, ctx: PlanContext) -> Any:
        self.stats.builds += 1
        table: dict[Any, list] = {}
        governor = ctx.governor
        budgeted = _budgeted(ctx)
        entries = self._build_entries(ctx)
        reserved = 0
        for key, member in entries:
            if budgeted:
                cost = row_footprint(member)
                if not governor.reserve(cost):
                    governor.release(reserved)
                    governor.spilled()
                    return self._spill_build(table, [(key, member)], entries)
                reserved += cost
            table.setdefault(key, []).append(member)
        return table

    def _spill_build(
        self, table: dict, head: list, entries: Iterator[tuple]
    ) -> _SpilledBuild:
        """Partition the partial in-memory ``table`` plus the rest of the
        build stream into Grace spill files.

        Per-key member order is preserved: every member of a key lands in
        the same partition file, prefix members (from ``table``) before
        the rest, both in build order.
        """
        parts = [SpillFile() for _ in range(SPILL_PARTITIONS)]
        for key, members in table.items():
            part = parts[partition_hash(key) % SPILL_PARTITIONS]
            for member in members:
                part.append((key, member))
        for key, member in chain(head, entries):
            parts[partition_hash(key) % SPILL_PARTITIONS].append((key, member))
        stats = self.stats
        stats.spill_partitions = SPILL_PARTITIONS
        stats.spill_bytes = sum(part.bytes_written for part in parts)
        return _SpilledBuild(parts)

    def _grace_rows(
        self, spill: _SpilledBuild, ctx: PlanContext, env: Env
    ) -> Iterator[Env]:
        """Probe a spilled build: partition the probe input the same way
        (remembering each row's position), join partition by partition,
        then restore probe order with a stable sort on position. A probe
        row is pickled as it is partitioned, so a row of the shared
        environment needs no copy; every output row is private."""
        stats = self.stats
        var = self.var
        join_op = self.join_op
        (_build_fn, probe_fn), _full = self.compiled_exprs(ctx.compiled)
        dop = len(spill.parts)
        probes = [SpillFile() for _ in range(dop)]
        try:
            pos = 0
            for row in self._pull(self.children[0], ctx, env):
                stats.probes += 1
                key = join_key(probe_fn(row, ctx), join_op)
                if key is not None:
                    probes[partition_hash(key) % dop].append((pos, key, row))
                pos += 1
            tagged: list = []
            for part in range(dop):
                table: dict[Any, list] = {}
                for key, member in spill.parts[part]:
                    table.setdefault(key, []).append(member)
                for ppos, key, row in probes[part]:
                    members = table.get(key)
                    if not members:
                        continue
                    if len(members) == 1:
                        row[var] = members[0]
                        tagged.append((ppos, row))
                    else:
                        for member in members:
                            match = dict(row)
                            match[var] = member
                            tagged.append((ppos, match))
            # stable: rows of one position keep build insertion order
            tagged.sort(key=lambda entry: entry[0])
            stats.spill_bytes += sum(f.bytes_written for f in probes)
            for _pos, row in tagged:
                yield row
        finally:
            spill.close()
            for f in probes:
                f.close()

    def _run(self, ctx: PlanContext, env: Env) -> Iterator[Env]:
        table = self._table_for(ctx)
        if isinstance(table, _SpilledBuild):
            yield from self._grace_rows(table, ctx, env)
            return
        saved = env.get(self.var, _MISSING)
        (_build_fn, probe_fn), _full = self.compiled_exprs(ctx.compiled)
        try:
            for row in self._pull(self.children[0], ctx, env):
                self.stats.probes += 1
                key = join_key(probe_fn(row, ctx), self.join_op)
                if key is None:
                    continue
                for member in table.get(key, ()):
                    row[self.var] = member
                    yield row
        finally:
            if saved is _MISSING:
                env.pop(self.var, None)
            else:
                env[self.var] = saved


class UniversalCheck(PlanOp):
    """∀ semantics: an input row survives iff the where clause is
    definitely true for every combination of the universal bindings.

    The universal sources are ordinary scan subtrees re-opened per check
    (their rows count as scanned rows); the check early-exits on the
    first failing combination.  Lowering never emits this operator when
    the query has no where clause — ∀ over anything is then vacuously
    true and the universal sets are never iterated.
    """

    label = "UniversalCheck"

    def __init__(
        self,
        child: PlanOp,
        checks: list[tuple[RangeBinding, PlanOp]],
        where: BoundExpr,
    ) -> None:
        super().__init__([child] + [subtree for _b, subtree in checks])
        self.checks = checks
        self.where = where

    def describe(self, params: tuple = ()) -> str:
        names = ", ".join(b.name for b, _s in self.checks)
        return f"UniversalCheck forall {names}: {describe_expr(self.where, params)}"

    def child_roles(self) -> list[tuple[str, PlanOp]]:
        roles = [("", self.children[0])]
        roles.extend(
            (f"forall {b.name}", subtree) for b, subtree in self.checks
        )
        return roles

    def exprs(self) -> list[BoundExpr]:
        return [self.where]

    def _run(self, ctx: PlanContext, env: Env) -> Iterator[Env]:
        (where,), _full = self.compiled_exprs(ctx.compiled)
        for row in self._pull(self.children[0], ctx, env):
            if self._holds(where, ctx, row, 0):
                yield row

    def _holds(self, where: Any, ctx: PlanContext, env: Env, depth: int) -> bool:
        if depth == len(self.checks):
            return where(env, ctx) is True
        binding, subtree = self.checks[depth]
        saved = env.get(binding.name, _MISSING)
        subtree.open(ctx, env)
        subtree_iter = subtree._iters[-1]
        subtree_stats = subtree.stats
        try:
            for _ in subtree_iter:
                subtree_stats.rows_out += 1
                if not self._holds(where, ctx, env, depth + 1):
                    return False
            return True
        finally:
            subtree.close()
            if saved is _MISSING:
                env.pop(binding.name, None)
            else:
                env[binding.name] = saved


class Aggregate(PlanOp):
    """Compute the query's aggregate partition tables at open, then
    stream the input through unchanged.

    Global and partitioned aggregates materialize their tables by running
    their (separately lowered) inner pipelines once; correlated
    aggregates register a memo filled on demand during expression
    evaluation.  Sitting at the top of the binding pipeline guarantees
    the tables exist before any downstream expression is evaluated.
    """

    label = "Aggregate"

    def __init__(self, child: PlanOp, query: BoundQuery) -> None:
        super().__init__([child])
        self.query = query

    def describe(self, params: tuple = ()) -> str:
        modes = ", ".join(a.mode for a in self.query.aggregates)
        return f"Aggregate [{modes}]"

    def exprs(self) -> list[BoundExpr]:
        # input extraction: each aggregate's argument, then its
        # partition key when it has one (the evaluator's precompute
        # unpacks the compiled list in this order)
        exprs: list[BoundExpr] = []
        for aggregate in self.query.aggregates:
            exprs.append(aggregate.argument)
            if aggregate.inner_key is not None:
                exprs.append(aggregate.inner_key)
        return exprs

    def extra_counters(self, stats: OpStats) -> str:
        return _spill_note(stats)

    def open(self, ctx: PlanContext, env: Env) -> None:
        # tables must be filled before any downstream next() — eagerly,
        # not inside the lazy generator
        ctx.evaluator._precompute_aggregates(self, env, ctx)
        super().open(ctx, env)

    def _run(self, ctx: PlanContext, env: Env) -> Iterator[Env]:
        yield from self._pull(self.children[0], ctx, env)


def shared_passes(aggregates: list[BoundAggregate]) -> list[list[BoundAggregate]]:
    """Group global/partition aggregates whose inner iteration is the
    same — equal range bindings and an equal aggregate-local ``where`` —
    so that one loop fills every table of a group. Groups keep
    first-occurrence order."""
    passes: list[list[BoundAggregate]] = []
    for aggregate in aggregates:
        for group in passes:
            if (
                group[0].where == aggregate.where
                and group[0].inner_bindings == aggregate.inner_bindings
            ):
                group.append(aggregate)
                break
        else:
            passes.append([aggregate])
    return passes


# ---------------------------------------------------------------------------
# Row finishers (tuple level)
# ---------------------------------------------------------------------------


class Project(PlanOp):
    """Evaluate the target list per environment, producing row tuples.

    With ``unique`` set, duplicates (by canonical key) are dropped before
    sort keys are computed.  When the retrieve has a sort clause the
    operator emits ``(row, sort_keys)`` pairs for the Sort above it.
    """

    label = "Project"

    def __init__(
        self,
        child: PlanOp,
        targets: list,
        unique: bool = False,
        order: Optional[list] = None,
    ) -> None:
        super().__init__([child])
        self.targets = targets
        self.unique = unique
        self.order = order or []

    def describe(self, params: tuple = ()) -> str:
        cols = ", ".join(t.label for t in self.targets)
        unique = "unique " if self.unique else ""
        return f"Project {unique}[{cols}]"

    def exprs(self) -> list[BoundExpr]:
        return [t.expression for t in self.targets] + [
            expr for expr, _desc in self.order
        ]

    def target_fns(self, compiled: bool) -> tuple[list, list]:
        """``(target_fns, order_fns)`` — :meth:`compiled_exprs` split
        back into the target list and the sort keys."""
        fns, _full = self.compiled_exprs(compiled)
        n = len(self.targets)
        return fns[:n], fns[n:]

    def _run(self, ctx: PlanContext, env: Env) -> Iterator[Any]:
        from repro.excess.evaluator import canonical_key

        seen: set = set()
        target_fns, order_fns = self.target_fns(ctx.compiled)
        for row_env in self._pull(self.children[0], ctx, env):
            row = tuple(fn(row_env, ctx) for fn in target_fns)
            if self.unique:
                key = tuple(canonical_key(v) for v in row)
                if key in seen:
                    continue
                seen.add(key)
            if order_fns:
                keys = tuple(fn(row_env, ctx) for fn in order_fns)
                yield row, keys
            else:
                yield row


class Sort(PlanOp):
    """Materialize and stably sort the input rows by their sort keys;
    null keys deterministically last regardless of direction."""

    label = "Sort"

    def __init__(self, child: PlanOp, order: list) -> None:
        super().__init__([child])
        self.order = order

    def describe(self, params: tuple = ()) -> str:
        keys = ", ".join(
            describe_expr(expr, params) + (" desc" if desc else "")
            for expr, desc in self.order
        )
        return f"Sort [{keys}]"

    def extra_counters(self, stats: OpStats) -> str:
        return _spill_note(stats)

    def _run(self, ctx: PlanContext, env: Env) -> Iterator[tuple]:
        if _budgeted(ctx):
            yield from self._external_sort(ctx, env, ctx.governor)
            return
        pairs = self._pull_all(self.children[0], ctx, env)
        yield from sort_rows(pairs, self.order)

    def _flush_run(self, pending: list, order: list) -> SpillFile:
        """Sort one in-memory run and spill it as ``(seq, keys, row)``."""
        run = SpillFile()
        for (row, seq), keys in sort_pairs(pending, order):
            run.append((seq, keys, row))
        return run

    def _external_sort(self, ctx: PlanContext, env: Env, governor: Any) -> list:
        """Budget-accounted sort: accumulate ``(row, keys)`` pairs until
        a reservation is refused, spill the sorted run, and merge all
        runs under :class:`_OrderKey` — which reproduces the in-memory
        order (and, via the fallback below, its error behaviour).
        """
        order = self.order
        descs = [descending for _expr, descending in order]
        runs: list[SpillFile] = []
        #: [((row, seq), keys)] — seq is the global input position, the
        #: stability tiebreak the merge needs across runs
        pending: list = []
        reserved = 0
        seq = 0
        try:
            for row, keys in self._pull(self.children[0], ctx, env):
                cost = row_footprint(row) + row_footprint(keys)
                if not governor.reserve(cost):
                    if pending:
                        runs.append(self._flush_run(pending, order))
                        pending = []
                        governor.release(reserved)
                        reserved = 0
                        governor.spilled()
                    if governor.reserve(cost):
                        reserved += cost
                    # else: a single row over budget — hold it anyway
                else:
                    reserved += cost
                pending.append(((row, seq), keys))
                seq += 1
            if not runs:  # everything fit: identical to the serial path
                return [entry[0][0] for entry in sort_pairs(pending, order)]
            tail = [
                (entry[0][1], entry[1], entry[0][0])
                for entry in sort_pairs(pending, order)
            ]
            self.stats.spill_partitions = len(runs)
            self.stats.spill_bytes = sum(run.bytes_written for run in runs)
            streams = [iter(run) for run in runs]
            if tail:
                streams.append(iter(tail))
            merged = heapq.merge(
                *streams,
                key=lambda rec: _OrderKey(rec[1], rec[0], descs),
            )
            try:
                return [rec[2] for rec in merged]
            except TypeError:
                # incomparable keys: redo the sort in memory over the
                # input order so the error (or result) is byte-identical
                # to the serial path's
                everything: list = []
                for run in runs:
                    everything.extend(run)
                everything.extend(tail)
                everything.sort(key=lambda rec: rec[0])
                return sort_rows(
                    [(rec[2], rec[1]) for rec in everything], order
                )
        finally:
            for run in runs:
                run.close()


class StoreInto(PlanOp):
    """Materialize the finished rows as a named set of tuples
    (``retrieve ... into Name``), passing the rows through."""

    label = "StoreInto"

    def __init__(self, child: PlanOp, bound: BoundRetrieve) -> None:
        super().__init__([child])
        self.bound = bound
        #: human-readable outcome of the last store (result message)
        self.message = ""

    def describe(self, params: tuple = ()) -> str:
        return f"StoreInto {self.bound.into}"

    def _run(self, ctx: PlanContext, env: Env) -> Iterator[tuple]:
        rows = self._pull_all(self.children[0], ctx, env)
        self.message = ctx.evaluator._store_rows(self.bound, rows)
        yield from rows


# ---------------------------------------------------------------------------
# Exchange operators (parallel execution)
# ---------------------------------------------------------------------------


def _canonical_partition(value: Any) -> Any:
    """Collapse values that compare (and hash-bucket) equal in serial
    execution onto one representation: ``1``, ``1.0`` and ``True`` are
    the same dict key, so they must land in the same partition."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, tuple):
        return tuple(_canonical_partition(item) for item in value)
    return value


def partition_hash(key: Any) -> int:
    """A process-stable hash of a canonical join key.

    Python's ``hash()`` is randomized per process (PYTHONHASHSEED), so
    spawn-started workers would disagree about bucket assignment.
    CRC-32 over the repr of the canonicalized key is stable everywhere;
    collisions are harmless (partitioning only needs co-location, not
    injectivity).
    """
    text = repr(_canonical_partition(key))
    return zlib.crc32(text.encode("utf-8", "backslashreplace"))


class ExchangePartition(PlanOp):
    """Restrict the child's stream to the current worker's partition.

    With no shard descriptor on the context (serial execution, or the
    parent process running the plan itself), the operator is a pure
    passthrough — the same plan object executes serially and in
    parallel workers without rewriting.

    ``mode="range"`` partitions a :class:`SeqScan` (the only child the
    parallelizer gives it) into contiguous slices of its member list,
    sliced *before* row dicts are built, so concatenating the parts in
    part order reproduces the serial stream exactly.  ``mode="hash"`` routes each row by
    ``partition_hash(join_key(key))`` so all rows of one key value land
    in one partition; ``tag_pos=True`` additionally stamps the row's
    global input position into ``"#pos"`` so the merge can restore
    serial order.
    """

    label = "ExchangePartition"

    def __init__(
        self,
        child: PlanOp,
        mode: str,
        dop: int,
        key: Optional[BoundExpr] = None,
        key_op: str = "=",
        tag_pos: bool = False,
    ) -> None:
        super().__init__([child])
        self.mode = mode
        self.dop = dop
        self.key = key
        self.key_op = key_op
        self.tag_pos = tag_pos
        self.est_rows = child.est_rows

    def describe(self, params: tuple = ()) -> str:
        if self.mode == "hash":
            return f"ExchangePartition hash({describe_expr(self.key)})"
        return "ExchangePartition range"

    def exchange_note(self) -> Optional[str]:
        if self.mode == "hash":
            return f"[hash({describe_expr(self.key)}), dop={self.dop}]"
        return f"[range, dop={self.dop}]"

    def exprs(self) -> list[BoundExpr]:
        return [self.key] if self.mode == "hash" else []

    def _slice(self, n: int, shard: Any) -> tuple[int, int]:
        return (shard.part * n) // shard.dop, ((shard.part + 1) * n) // shard.dop

    def _run(self, ctx: PlanContext, env: Env) -> Iterator[Env]:
        shard = ctx.exchange
        child = self.children[0]
        if shard is None:
            yield from self._pull(child, ctx, env)
        elif self.mode == "range":
            # slice the scan's member list before building row dicts:
            # the whole point of range partitioning is that each worker
            # pays only for its 1/dop share of the scan
            child.stats.opens += 1
            members = _scan_members(ctx, child.set_name)
            lo, hi = self._slice(len(members), shard)
            child.stats.rows_out += hi - lo
            self.stats.rows_in += hi - lo
            var = child.var
            for member in members[lo:hi]:
                yield {**env, var: member}
        else:
            yield from self._hash_rows(ctx, env, shard)

    def _hash_rows(self, ctx: PlanContext, env: Env, shard: Any) -> Iterator[Env]:
        part, dop = shard.part, shard.dop
        (key_fn,), _full = self.compiled_exprs(ctx.compiled)
        key_op = self.key_op
        tag = self.tag_pos
        pos = -1
        for row in self._pull(self.children[0], ctx, env):
            pos += 1
            try:
                key = join_key(key_fn(row, ctx), key_op)
            except EvaluationError:
                # a partition-key failure is a placement decision, not
                # an error: keep the row locally so the operator that
                # evaluates this expression for real raises (or a filter
                # in between drops the row, as serially)
                key = None
            if (partition_hash(key) if key is not None else pos) % dop != part:
                continue
            if tag:
                row["#pos"] = pos
            yield row


class ExchangeMerge(PlanOp):
    """Gather the partitioned pipeline below from the worker pool.

    When the executing evaluator carries a parallel runner (parent
    process, ``parallel_mode=process``), the merge hands its subtree to
    the runner, which ships it to the workers and returns the gathered
    rows — order-preserving for both modes (range parts concatenate in
    part order; hash parts carry ``"#pos"`` tags and are stably
    re-sorted).  Without a runner — or when the runner declines (MVCC
    snapshot active, pool failure) — the merge is a passthrough and the
    subtree runs serially in-process, bit-identically.
    """

    label = "ExchangeMerge"

    def __init__(
        self, child: PlanOp, dop: int, mode: str, ordered: bool = True
    ) -> None:
        super().__init__([child])
        self.dop = dop
        self.mode = mode
        self.ordered = ordered
        self.est_rows = child.est_rows

    def describe(self, params: tuple = ()) -> str:
        return "ExchangeMerge"

    def exchange_note(self) -> Optional[str]:
        return f"[gather, dop={self.dop}]"

    def _gather(self, ctx: PlanContext, env: Env) -> Optional[list]:
        runner = ctx.parallel
        if runner is None or env:
            return None
        rows = runner.run_exchange(self, ctx)
        if rows is not None:
            self.stats.rows_in += len(rows)
        return rows

    def _run(self, ctx: PlanContext, env: Env) -> Iterator[Any]:
        rows = self._gather(ctx, env)
        if rows is not None:
            yield from rows
            return
        yield from self._pull(self.children[0], ctx, env)


class ExchangeBroadcast(PlanOp):
    """Mark a subtree as replicated to every worker.

    Execution is a pure passthrough: each worker simply runs the subtree
    in full against its inherited snapshot (no rows cross processes), so
    the operator only exists to make the replication decision visible in
    EXPLAIN and auditable by tests.
    """

    label = "ExchangeBroadcast"

    def __init__(self, child: PlanOp, dop: int) -> None:
        super().__init__([child])
        self.dop = dop
        self.est_rows = child.est_rows

    def describe(self, params: tuple = ()) -> str:
        return "ExchangeBroadcast"

    def exchange_note(self) -> Optional[str]:
        return f"[broadcast, dop={self.dop}]"

    def _run(self, ctx: PlanContext, env: Env) -> Iterator[Any]:
        yield from self._pull(self.children[0], ctx, env)


SCAN_OPS = (SeqScan, IndexScan, PathExpand, FunctionScan)


# ---------------------------------------------------------------------------
# Shared algorithms
# ---------------------------------------------------------------------------


def join_key(value: Any, op: str) -> Optional[Any]:
    """The hash key for one side of a join conjunct.

    Returns None when the row cannot match anything: a null value under
    ``=`` is unknown against every member (3VL), so it neither enters
    the build table nor probes, and a NaN equals nothing (not even the
    same float object, which a dict lookup would match).  A boolean is
    keyed apart from the ``1``/``0`` it hashes equal to, because
    ``value_equal`` lets a boolean equal only a boolean.  Under ``is``,
    an object keys by its OID, null keys *do* participate (as
    ``canonical_key(NULL)``) — ``null is null`` is true (both denote no
    object) — and non-objects raise exactly as nested-loop ``is`` would.
    """
    from repro.excess.evaluator import NULL_KEY, canonical_key

    if op == "is":
        if value is NULL:
            return NULL_KEY
        if isinstance(value, Ref):
            return value.oid
        if isinstance(value, TupleInstance) and value.oid is not None:
            return value.oid
        raise EvaluationError(
            f"'is'/'isnot' compares object references, got {value!r}"
        )
    if value is NULL:
        return None
    if value.__class__ is bool:
        return ("bool", value)
    if value.__class__ is float and value != value:
        return None
    return canonical_key(value)


def sort_pairs(pairs: list, order: list) -> list:
    """Stable multi-key sort of ``(row, keys)`` pairs; nulls sort last
    regardless of direction. Returns the sorted pairs (keys kept — the
    external run-merge needs them for merging).

    Sorting is applied key by key, least significant first: Python's
    sort is stable (including under ``reverse=True``), so each more
    significant pass preserves the less significant ordering, and rows
    with equal keys keep their input order deterministically.
    """
    decorated = list(pairs)
    for position in reversed(range(len(order))):
        _expr, descending = order[position]
        nulls = [pair for pair in decorated if pair[1][position] is NULL]
        rest = [pair for pair in decorated if pair[1][position] is not NULL]

        def key_of(pair, position=position):
            value = pair[1][position]
            if isinstance(value, Ref):
                return value.oid
            if isinstance(value, bool):
                return int(value)
            return value

        try:
            rest.sort(key=key_of, reverse=descending)
        except TypeError as exc:
            raise EvaluationError(
                f"sort keys are not mutually comparable: {exc}"
            ) from exc
        decorated = rest + nulls
    return decorated


def sort_rows(pairs: list[tuple[tuple, tuple]], order: list) -> list[tuple]:
    """:func:`sort_pairs`, undecorated to just the rows."""
    return [row for row, _keys in sort_pairs(pairs, order)]


def _merge_key_value(value: Any) -> Any:
    """The comparison image of one sort-key value (``key_of`` above)."""
    if isinstance(value, Ref):
        return value.oid
    if isinstance(value, bool):
        return int(value)
    return value


class _OrderKey:
    """Total-order wrapper over ``(keys, seq)`` for merging sorted runs.

    Implements most-significant-key-first comparison with exactly the
    semantics :func:`sort_pairs` realizes through its stable
    least-significant-first passes — per position: nulls after every
    non-null in both directions, ``Ref`` by oid, bool as int, direction
    by reversal — with the global input sequence number as the final
    tiebreak, which is precisely what stability gives the in-memory
    sort. Merging runs under this order therefore reproduces the
    in-memory order row for row.
    """

    __slots__ = ("keys", "seq", "descs")

    def __init__(self, keys: tuple, seq: int, descs: list) -> None:
        self.keys = keys
        self.seq = seq
        self.descs = descs

    def __lt__(self, other: "_OrderKey") -> bool:
        for position, descending in enumerate(self.descs):
            a = self.keys[position]
            b = other.keys[position]
            a_null = a is NULL
            b_null = b is NULL
            if a_null or b_null:
                if a_null and b_null:
                    continue
                return b_null  # the non-null side sorts first
            a = _merge_key_value(a)
            b = _merge_key_value(b)
            if a == b:
                continue
            less = a < b  # may raise TypeError: caller falls back
            return (not less) if descending else less
        return self.seq < other.seq


# ---------------------------------------------------------------------------
# Lowering: annotated BoundQuery → operator tree
# ---------------------------------------------------------------------------


def _is_semi_membership(node: BoundExpr) -> bool:
    return (
        isinstance(node, Membership)
        and node.semi_join
        and node.collection.kind == "named"
    )


def _flatten_conjuncts(where: Optional[BoundExpr]) -> list[BoundExpr]:
    if where is None:
        return []
    if isinstance(where, Binary) and where.kind == "bool" and where.op == "and":
        return _flatten_conjuncts(where.left) + _flatten_conjuncts(where.right)
    return [where]


def _source_op(binding: RangeBinding, catalog: Any) -> PlanOp:
    """Lower one binding's source to its access-method operator.

    Estimates come from the optimizer's cost-model annotations when it
    ran (``est_base_rows``); the structural defaults below cover
    unoptimized lowering (optimizer off, function bodies) so every
    operator always carries a non-None ``est_rows``.
    """
    source = binding.source
    is_object = binding.element.semantics.is_object
    if isinstance(source, NamedSetSource):
        if binding.access == "index" and binding.index_descriptor is not None:
            op: PlanOp = IndexScan(binding)
            cardinality = catalog.cardinality(source.set_name)
            op.est_rows = (
                binding.est_base_rows
                if binding.est_base_rows is not None
                else (1 if binding.index_op == "=" else max(1, cardinality // 3))
            )
        else:
            op = SeqScan(source.set_name, binding.name)
            op.est_rows = (
                binding.est_base_rows
                if binding.est_base_rows is not None
                else catalog.cardinality(source.set_name)
            )
        op.is_object = is_object
        return op
    if isinstance(source, PathSource):
        op = PathExpand(source, binding.name)
        # nested sets are small in this workload family
        op.est_rows = (
            binding.est_base_rows if binding.est_base_rows is not None else 4
        )
        op.is_object = is_object
        return op
    if isinstance(source, IteratorSource):
        op = FunctionScan(source, binding.name)
        op.est_rows = (
            binding.est_base_rows if binding.est_base_rows is not None else 8
        )
        return op
    raise EvaluationError(f"unknown binding source {type(source).__name__}")


def _binding_subtree(binding: RangeBinding, catalog: Any) -> PlanOp:
    """Lower one binding: access method, then residual filters (semi-join
    memberships become probes against memoized key sets)."""
    op = _source_op(binding, catalog)
    residual = [r for r in binding.residual if not _is_semi_membership(r)]
    semis = [r for r in binding.residual if _is_semi_membership(r)]
    if residual:
        filtered = Filter(op, residual)
        filtered.est_rows = (
            binding.est_rows
            if binding.est_rows is not None
            else max(1, (op.est_rows or 1) // 3)
        )
        op = filtered
    for node in semis:
        probe = SemiJoinProbe(op, node)
        probe.est_rows = (
            binding.est_rows
            if binding.est_rows is not None
            else max(1, (op.est_rows or 1) // 2)
        )
        op = probe
    return op


def lower_query(query: BoundQuery, catalog: Any) -> PlanOp:
    """Lower a bound (and optimizer-annotated) query to its binding
    pipeline: the row source shared by retrieve and update statements.

    Lowering rules (absorbing the old interpreter's special cases):

    1. existential bindings become a left-deep join tree in optimizer
       order — hash-annotated bindings lower to :class:`HashJoin`,
       everything else to :class:`NestedLoopJoin` over the binding's
       access-method subtree;
    2. residual predicates lower to :class:`Filter`/:class:`SemiJoinProbe`
       inside the binding's subtree, so they fire as soon as the variable
       is bound;
    3. a remaining where clause lowers to semi-join probes plus one
       filter — unless universal bindings exist, in which case the whole
       clause moves into :class:`UniversalCheck` (∀ semantics);
    4. aggregates add an :class:`Aggregate` table-building operator at
       the top of the pipeline.
    """
    existential = [b for b in query.bindings if not b.universal]
    universal = [b for b in query.bindings if b.universal]
    root: PlanOp = Singleton()
    for binding in existential:
        if binding.join_strategy == "hash" and binding.hash_probe_key is not None:
            build = _binding_subtree(binding, catalog)
            cardinality = 0
            if isinstance(binding.source, NamedSetSource):
                cardinality = catalog.cardinality(binding.source.set_name)
            join: PlanOp = HashJoin(root, build, binding, cardinality)
            join.est_rows = (
                binding.est_cum_rows
                if binding.est_cum_rows is not None
                else max(root.est_rows or 1, build.est_rows or 1)
            )
            root = join
        else:
            inner = _binding_subtree(binding, catalog)
            if isinstance(root, Singleton):
                root = inner
            else:
                join = NestedLoopJoin(root, inner)
                join.est_rows = (
                    binding.est_cum_rows
                    if binding.est_cum_rows is not None
                    else (root.est_rows or 1) * (inner.est_rows or 1)
                )
                root = join
    if query.where is not None:
        if universal:
            checks = [(b, _source_op(b, catalog)) for b in universal]
            check = UniversalCheck(root, checks, query.where)
            check.est_rows = max(1, (root.est_rows or 1) // 2)
            root = check
        else:
            conjuncts = _flatten_conjuncts(query.where)
            semis = [c for c in conjuncts if _is_semi_membership(c)]
            rest = [c for c in conjuncts if not _is_semi_membership(c)]
            for node in semis:
                probe = SemiJoinProbe(root, node)
                probe.est_rows = max(1, (root.est_rows or 1) // 2)
                root = probe
            if rest:
                filtered = Filter(root, rest)
                filtered.est_rows = (
                    query.est_rows
                    if query.est_rows is not None
                    else max(1, (root.est_rows or 1) // 3)
                )
                root = filtered
    if query.aggregates:
        aggregate = Aggregate(root, query)
        aggregate.est_rows = root.est_rows
        root = aggregate
    return root


def lower_retrieve(bound: BoundRetrieve, catalog: Any) -> PlanOp:
    """Lower a retrieve to its full pipeline:
    ``StoreInto?(Sort?(Project(row source)))``."""
    root: PlanOp = Project(
        ensure_query_plan(bound.query, catalog),
        bound.targets,
        unique=bound.unique,
        order=bound.order,
    )
    root.est_rows = root.children[0].est_rows
    if bound.order:
        sort = Sort(root, bound.order)
        sort.est_rows = root.est_rows
        root = sort
    if bound.into:
        store = StoreInto(root, bound)
        store.est_rows = root.est_rows
        root = store
    return root


def ensure_query_plan(query: BoundQuery, catalog: Any) -> PlanOp:
    """The (lazily lowered, cached) binding pipeline of a bound query."""
    if query.plan is None:
        query.plan = lower_query(query, catalog)
    return query.plan


def ensure_retrieve_plan(bound: BoundRetrieve, catalog: Any) -> PlanOp:
    """The (lazily lowered, cached) full pipeline of a bound retrieve."""
    if bound.pipeline is None:
        bound.pipeline = lower_retrieve(bound, catalog)
    return bound.pipeline


class WritePlan:
    """What an ``append``, ``replace`` or ``set`` does per qualifying
    row, lowered once and cached with the statement's plan.

    The payload expressions compile once per compile mode through the
    compile seam, as :meth:`PlanOp.compiled_exprs` does for operators.
    The index upkeep list names what a write must maintain, so an
    update reads the catalog's indexes at lowering time, not per row.
    """

    def __init__(self, payload: list[BoundExpr], upkeep: tuple = ()):
        #: the expressions evaluated per qualifying row, in the order
        #: the statement's evaluator method unpacks them
        self.payload = payload
        #: ``(set name, assigned attributes indexed on it)`` for every
        #: named set with an index over an assigned attribute; a target
        #: object is maintained in those of them it belongs to
        self.upkeep = upkeep
        self._compiled: dict[bool, list] = {}

    def fns(self, compiled: bool) -> list:
        """One callable ``fn(env, ctx)`` per payload expression."""
        fns = self._compiled.get(compiled)
        if fns is None:
            fns = self._compiled[compiled] = compile_all(self.payload, compiled)[0]
        return fns

    def __getstate__(self) -> dict:
        # closures are unpicklable; they are rebuilt on first use
        return {"payload": self.payload, "upkeep": self.upkeep, "_compiled": {}}


def _index_upkeep(catalog: Any, attributes: list[str]) -> tuple:
    """``(set name, attributes)`` for every named set whose indexes
    cover one of ``attributes`` (an attribute indexed twice is listed
    once)."""
    upkeep: dict[str, list[str]] = {}
    for descriptor in catalog.indexes.all_indexes():
        if descriptor.attribute in attributes:
            indexed = upkeep.setdefault(descriptor.set_name, [])
            if descriptor.attribute not in indexed:
                indexed.append(descriptor.attribute)
    return tuple((name, tuple(indexed)) for name, indexed in upkeep.items())


def lower_write(bound: Any, catalog: Any) -> WritePlan:
    """The per-row write of a bound append, replace or set statement."""
    if isinstance(bound, BoundAppend):
        if bound.assignments:
            return WritePlan([expr for _attr, expr in bound.assignments])
        return WritePlan([bound.expression])
    if isinstance(bound, BoundReplace):
        attributes = [attr for attr, _expr in bound.assignments]
        return WritePlan(
            [bound.target] + [expr for _attr, expr in bound.assignments],
            _index_upkeep(catalog, attributes),
        )
    kind = bound.location[0]
    if kind == "slot":
        _kind, base, attribute = bound.location
        return WritePlan(
            [bound.expression, base], _index_upkeep(catalog, [attribute])
        )
    if kind == "index":
        _kind, base, index = bound.location
        return WritePlan([bound.expression, base, index])
    return WritePlan([bound.expression])  # a named singleton


def ensure_write_plan(bound: Any, catalog: Any) -> WritePlan:
    """The (lazily lowered, cached) per-row write of an update."""
    if bound.write is None:
        bound.write = lower_write(bound, catalog)
    return bound.write


# ---------------------------------------------------------------------------
# Parallelization: exchange insertion over a lowered pipeline
# ---------------------------------------------------------------------------

#: operators a parallel fragment may contain — everything here executes
#: correctly against a forked database snapshot with no cross-process
#: coordination (scans enumerate the snapshot, joins build local tables,
#: semi-probes memoize local key sets)
_PARALLEL_FRAGMENT_OPS = (
    SeqScan,
    IndexScan,
    Filter,
    SemiJoinProbe,
    NestedLoopJoin,
    HashJoin,
    PathExpand,
)


def _key_var(expr: Optional[BoundExpr]) -> Optional[str]:
    """The range variable a key expression is rooted at (``E.dept.name``
    → ``E``), or None for anything more exotic."""
    if isinstance(expr, VarRef):
        return expr.name
    if isinstance(expr, AttrStep):
        return _key_var(expr.base)
    if isinstance(expr, IndexStepB):
        return _key_var(expr.base)
    return None


def _fragment_shape(qroot: PlanOp) -> tuple[Optional[list], Optional[SeqScan]]:
    """``(spine, anchor)`` of a parallelizable binding pipeline, or
    ``(None, None)``.

    Eligible pipelines contain only :data:`_PARALLEL_FRAGMENT_OPS` and
    their outer spine (the ``children[0]`` descent) must bottom out at a
    :class:`SeqScan` — the partitionable row source.  ``spine`` is the
    descent path, qroot first, anchor excluded.
    """
    for op in walk_plan(qroot):
        if not isinstance(op, _PARALLEL_FRAGMENT_OPS):
            return None, None
    spine: list[PlanOp] = []
    current = qroot
    while not isinstance(current, SeqScan):
        if not current.children:
            return None, None
        spine.append(current)
        current = current.children[0]
    return spine, current


def _choose_dop(anchor: SeqScan, catalog: Any, workers: int) -> int:
    """Degree of parallelism from the anchor's estimated rows: one
    partition per :data:`~repro.core.statistics.
    PARALLEL_MIN_PARTITION_ROWS` estimated input rows, capped at the
    worker count — small inputs are not worth the dispatch overhead."""
    from repro.core.statistics import PARALLEL_MIN_PARTITION_ROWS

    base = anchor.est_rows
    if base is None:
        base = catalog.cardinality(anchor.set_name)
    return min(workers, max(1, int(base or 0) // PARALLEL_MIN_PARTITION_ROWS))


def parallelize_pipeline(
    root: PlanOp, catalog: Any, workers: int
) -> tuple[PlanOp, Optional[dict]]:
    """Insert exchange operators into a lowered retrieve pipeline.

    Returns ``(root, info)`` — the possibly rewritten pipeline plus an
    ``{"dop", "mode", "broadcasts"}`` summary — or ``(root, None)`` when
    the plan stays serial: too few estimated rows for ``workers``, or an
    ineligible shape (unique projection, object-valued targets or sort
    keys, aggregates, universal quantifiers, a non-SeqScan anchor).

    Strategy: the anchor scan is partitioned across ``dop`` workers —
    by contiguous **range** normally, or by **hash** of the probe key
    when the spine carries a hash join whose build side is too large to
    replicate (build estimate > :data:`~repro.core.statistics.
    PARALLEL_BROADCAST_MAX_ROWS`) and whose probe key is rooted at the
    anchor variable; that join's build side is then hash-partitioned on
    the build key so each worker builds only its bucket.  Every other
    hash-join build side is marked :class:`ExchangeBroadcast` (each
    worker builds the full, small table from its snapshot).  An
    :class:`ExchangeMerge` above the projection gathers the parts in
    serial order.

    The rewritten tree still executes serially — and bit-identically —
    when no worker pool drives it: every exchange operator degrades to a
    passthrough.
    """
    from repro.core.statistics import PARALLEL_BROADCAST_MAX_ROWS

    for op in walk_plan(root):
        if isinstance(op, ExchangeMerge):
            # already parallelized (cached pipeline re-lowered)
            broadcasts = sum(
                isinstance(o, ExchangeBroadcast) for o in walk_plan(root)
            )
            return root, {
                "dop": op.dop,
                "mode": op.mode,
                "broadcasts": broadcasts,
            }
    store = root if isinstance(root, StoreInto) else None
    below = store.children[0] if store is not None else root
    sort = below if isinstance(below, Sort) else None
    project = sort.children[0] if sort is not None else below
    if not isinstance(project, Project) or project.unique:
        return root, None
    if any(t.expression.is_object for t in project.targets):
        # object-valued results must be the parent's live instances, not
        # pickled worker copies
        return root, None
    if any(expr.is_object for expr, _desc in project.order):
        return root, None
    qroot = project.children[0]
    spine, anchor = _fragment_shape(qroot)
    if anchor is None:
        return root, None
    dop = _choose_dop(anchor, catalog, workers)
    if dop < 2:
        return root, None

    repartition: Optional[HashJoin] = None
    for op in spine:
        if not isinstance(op, HashJoin):
            continue
        build = op.children[1]
        build_est = (
            build.est_rows if build.est_rows is not None else op.build_cardinality
        )
        if (build_est or 0) > PARALLEL_BROADCAST_MAX_ROWS and _key_var(
            op.probe_key
        ) == anchor.var:
            repartition = op  # keep the deepest qualifying join

    if repartition is not None:
        mode = "hash"
        partition = ExchangePartition(
            anchor,
            "hash",
            dop,
            key=repartition.probe_key,
            key_op=repartition.join_op,
            tag_pos=True,
        )
        repartition.children[1] = ExchangePartition(
            repartition.children[1],
            "hash",
            dop,
            key=repartition.build_key,
            key_op=repartition.join_op,
        )
    else:
        mode = "range"
        partition = ExchangePartition(anchor, "range", dop)

    broadcasts = 0
    for op in walk_plan(qroot):
        if isinstance(op, HashJoin) and op is not repartition:
            op.children[1] = ExchangeBroadcast(op.children[1], dop)
            broadcasts += 1

    owner = spine[-1] if spine else project
    owner.children[0] = partition
    merge = ExchangeMerge(project, dop, mode)
    if sort is not None:
        sort.children[0] = merge
    elif store is not None:
        store.children[0] = merge
    else:
        root = merge
    for op in walk_plan(root):
        # the tree changed shape: drop any memoized walks/fusions
        op.__dict__.pop("_plan_ops", None)
        op.__dict__.pop("_fused", None)
    return root, {"dop": dop, "mode": mode, "broadcasts": broadcasts}


def parallelize_query_block(query: BoundQuery, catalog: Any, workers: int) -> int:
    """Range-partition a bound query's binding pipeline in place — the
    aggregate-inner-block analogue of :func:`parallelize_pipeline`
    (no projection above; the worker evaluates aggregate arguments over
    its slice of the pipeline's environments).

    Returns the chosen degree of parallelism (0 = stays serial).
    Idempotent: an already partitioned pipeline reports its dop.
    """
    qroot = ensure_query_plan(query, catalog)
    for op in walk_plan(qroot):
        if isinstance(op, ExchangePartition):
            return op.dop
    spine, anchor = _fragment_shape(qroot)
    if anchor is None:
        return 0
    dop = _choose_dop(anchor, catalog, workers)
    if dop < 2:
        return 0
    partition = ExchangePartition(anchor, "range", dop)
    if spine:
        spine[-1].children[0] = partition
    else:
        query.plan = partition
    for op in walk_plan(query.plan):
        op.__dict__.pop("_plan_ops", None)
        op.__dict__.pop("_fused", None)
    return dop


# ---------------------------------------------------------------------------
# Introspection: walking, stats, rendering
# ---------------------------------------------------------------------------


def walk_plan(root: PlanOp) -> Iterator[PlanOp]:
    """Every operator of the tree, pre-order."""
    yield root
    for child in root.children:
        yield from walk_plan(child)


def plan_ops(root: PlanOp) -> list[PlanOp]:
    """The tree's operators (pre-order), memoized on the root.

    The tree is immutable after lowering, and the per-statement hot path
    walks it twice (reset, metrics) — a cached flat tuple beats
    re-running the recursive generator.  The memo leaves the root out:
    holding it would make every plan a reference cycle, left with its
    memoized hash-build tables to the cyclic collector.
    """
    below = root.__dict__.get("_plan_ops")
    if below is None:
        below = root.__dict__["_plan_ops"] = tuple(walk_plan(root))[1:]
    return [root, *below]


def plan_counters(root: PlanOp) -> tuple[tuple, tuple, tuple]:
    """``(every operator's stats, the scans', the hash joins')`` of the
    tree — what a drain resets before it runs and folds into the
    statement's ``rows_scanned`` / ``hash_builds`` / ``hash_probes``
    after — memoized on the root (``OpStats`` objects live as long as
    their operators; generated regions hold them too)."""
    counters = root.__dict__.get("_counters")
    if counters is None:
        ops = plan_ops(root)
        counters = root.__dict__["_counters"] = (
            tuple(op.stats for op in ops),
            tuple(op.stats for op in ops if isinstance(op, SCAN_OPS)),
            tuple(op.stats for op in ops if isinstance(op, HashJoin)),
        )
    return counters


def reset_stats(root: PlanOp) -> None:
    """Zero every operator's counters (called before each execution)."""
    reset_counters(plan_counters(root)[0])


def reset_counters(every: tuple) -> None:
    """Zero each ``OpStats`` of ``every``."""
    for stats in every:
        stats.opens = stats.rows_in = stats.rows_out = stats.builds = 0
        stats.build_rows = stats.probes = 0
        stats.spill_partitions = stats.spill_bytes = 0


def fusable_ops(op: PlanOp) -> Optional[list[PlanOp]]:
    """The operators of the fusable region rooted at ``op`` (pre-order,
    root first), or None when ``op`` does not root one.

    The region grammar — every shape the compiler can emit as one
    Python function, with no per-operator handoff inside::

        region := Project? Aggregate? body
                | Project? Aggregate Singleton
        body   := Filter* source
        source := Exchange[range](SeqScan) | SeqScan | IndexScan
                | PathExpand | NestedLoopJoin(body, Filter* PathExpand)
                | HashJoin(body, build)

    A range-mode :class:`ExchangePartition` over a SeqScan joins the
    region (the generated loop slices the member list when a worker
    shard is active); hash-mode partitions never fuse — they need the
    generic per-row routing path.  An :class:`Aggregate` fuses as a
    call to the aggregate precompute before the loop; a nested loop
    whose inner side expands a path fuses as a nested ``for`` loop (a
    path expansion over the incoming environment, as in a correlated
    aggregate's inner query, is a one-loop region of its own).  A hash
    join fuses its probe: the key is computed inline per probe row and
    the matching build members are a nested ``for``; the ``build``
    subtree is not part of the region (it is read once per call through
    :meth:`HashJoin._table_for`, and roots its own region).
    """
    chain: list[PlanOp] = []
    current = op
    if isinstance(current, Project):
        chain.append(current)
        current = current.children[0]
    if isinstance(current, Aggregate):
        chain.append(current)
        current = current.children[0]
        if isinstance(current, Singleton):
            chain.append(current)
            return chain
    body = _fusable_body(current)
    return None if body is None else chain + body


def _fusable_body(op: PlanOp) -> Optional[list[PlanOp]]:
    """The operators of ``body`` in :func:`fusable_ops`' grammar rooted
    at ``op`` (pre-order), or None."""
    chain: list[PlanOp] = []
    while isinstance(op, Filter):
        chain.append(op)
        op = op.children[0]
    if (
        isinstance(op, ExchangePartition)
        and op.mode == "range"
        and isinstance(op.children[0], SeqScan)
    ):
        return chain + [op, op.children[0]]
    if isinstance(op, (SeqScan, IndexScan, PathExpand)):
        return chain + [op]
    if isinstance(op, HashJoin):
        outer = _fusable_body(op.children[0])
        return None if outer is None else chain + [op] + outer
    if isinstance(op, NestedLoopJoin):
        outer = _fusable_body(op.children[0])
        if outer is None:
            return None
        inner: list[PlanOp] = []
        current = op.children[1]
        while isinstance(current, Filter):
            inner.append(current)
            current = current.children[0]
        if not isinstance(current, PathExpand):
            return None
        return chain + [op] + outer + inner + [current]
    return None


def fused_regions(root: PlanOp) -> list[list[PlanOp]]:
    """Every fusable region of the tree (each a chain, root first),
    exactly as ``exec_mode="fused"`` would execute them.

    Mirrors the executor's dispatch: a region fires at the tree root and
    wherever :meth:`PlanOp._pull` pulls a child — every input, including
    nested-loop inner and hash-join build sides (a fused hash join's
    build subtree is visited too).  UniversalCheck's ∀ subtrees are
    re-opened per check by the operator itself and are never fused.
    """
    regions: list[list[PlanOp]] = []

    def visit(op: PlanOp) -> None:
        chain = fusable_ops(op)
        if chain is not None:
            regions.append(chain)
            for member in chain:
                if isinstance(member, HashJoin):
                    visit(member.children[1])
            return
        if isinstance(op, UniversalCheck):
            visit(op.children[0])
            return
        for _role, child in op.child_roles():
            visit(child)

    visit(root)
    # the recursive closure refers to itself through its cell; emptying
    # the cell frees it without the cyclic collector
    del visit
    return regions


def pipeline_sources(
    root: PlanOp, compiled: bool = True, params: tuple = ()
) -> str:
    """The generated Python source of every fused region of the plan,
    for inspection (the ``Result.pipeline_source`` debug hook): each
    region's operators as header comments (rendered under ``params``),
    then its function — followed by the aggregate sinks of the plan's
    global and partition aggregates that have run."""
    sources: list[str] = []
    for region in fused_regions(root):
        fused = fused_pipeline(region[0], compiled)
        if fused is not None:
            header = [f"# {op.describe(params)}" for op in region]
            sources.append("\n".join(header + [fused.source]))
    for op in plan_ops(root):
        if not isinstance(op, Aggregate):
            continue
        tabled = [a for a in op.query.aggregates if a.mode != "correlated"]
        for group in shared_passes(tabled):
            inner = group[0].inner_query
            if inner is None or inner.plan is None:
                continue
            sink = aggregate_sink(inner.plan, group, compiled)
            if sink is not None:
                filled = ", ".join(
                    f"$agg{aggregate.aggregate_id} = {aggregate.function.name}"
                    f"({describe_expr(aggregate.argument, params)})"
                    for aggregate in group
                )
                header = [f"# aggregate sink {filled}"] + [
                    f"# {o.describe(params)}" for o in fusable_ops(inner.plan)
                ]
                sources.append("\n".join(header + [sink.source]))
    return "\n\n".join(sources)


def describe_expr(node: Optional[BoundExpr], params: tuple = ()) -> str:
    """A compact, human-readable rendering of a bound expression for
    operator descriptions (best effort — not a full unparser).  A
    parameter slot prints as the literal ``params`` holds for it, or the
    one its plan was prepared with when ``params`` is empty."""

    def show(child: Optional[BoundExpr]) -> str:
        return describe_expr(child, params)

    if node is None:
        return "?"
    if isinstance(node, Const):
        if isinstance(node, Param):
            value = params[node.slot] if params else node.first
        else:
            value = node.value
        if value is NULL:
            return "null"
        if isinstance(value, str):
            return f'"{value}"'
        return str(value)
    if isinstance(node, VarRef):
        return node.name.lstrip("@")
    if isinstance(node, NamedValue):
        return node.name
    if isinstance(node, AttrStep):
        return f"{show(node.base)}.{node.attribute}"
    if isinstance(node, IndexStepB):
        return f"{show(node.base)}[{show(node.index)}]"
    if isinstance(node, Binary):
        return f"{show(node.left)} {node.op} {show(node.right)}"
    if isinstance(node, Unary):
        return f"{node.op} {show(node.operand)}"
    if isinstance(node, Membership):
        collection = node.collection
        name = (
            collection.name
            if collection.kind == "named"
            else show(collection.base)
            + ("." + ".".join(collection.steps) if collection.steps else "")
        )
        op = "not in" if node.negated else "in"
        return f"{show(node.element)} {op} {name}"
    if isinstance(node, AggregateRef):
        return f"$agg{node.aggregate_id}"
    if isinstance(node, AdtCall):
        args = ", ".join(show(a) for a in node.args)
        return f"{node.function.name}({args})"
    if isinstance(node, ExcessCall):
        args = ", ".join(show(a) for a in node.args)
        return f"{node.name}({args})"
    return type(node).__name__


def _param_slots(nodes: list) -> Optional[tuple[int, ...]]:
    """The parameter slots the bound expressions ``nodes`` read, or None
    when one of them takes input from outside its own tree (aggregate
    tables, memoized member sets) and so may depend on any slot."""
    slots: set[int] = set()
    stack = [node for node in nodes if node is not None]
    while stack:
        node = stack.pop()
        if isinstance(node, Param):
            slots.add(node.slot)
        elif isinstance(node, (Const, VarRef, NamedValue)):
            pass
        elif isinstance(node, AttrStep):
            stack.append(node.base)
        elif isinstance(node, IndexStepB):
            stack.extend([node.base, node.index])
        elif isinstance(node, Binary):
            stack.extend([node.left, node.right])
        elif isinstance(node, Unary):
            stack.append(node.operand)
        elif isinstance(node, (AdtCall, ExcessCall)):
            stack.extend(node.args)
        else:
            return None
    return tuple(sorted(slots))


def snapshot_stats(stats: tuple) -> list[tuple]:
    """Every counter of each ``OpStats`` in ``stats`` (a tree's
    :func:`plan_counters`), in ``OpStats`` field order — for deferred
    rendering, and for shipping a worker's counters to its parent.

    The live counters are reset by the next execution of a cached plan,
    so a :class:`Result` that renders its tree lazily must freeze them
    at execution time.
    """
    return list(map(_COUNTS, stats))


#: every counter of one ``OpStats``, as a tuple in field order
_COUNTS = attrgetter(*OpStats.__dataclass_fields__)


def render_plan(
    root: PlanOp,
    actuals: bool = True,
    snapshot: Optional[list] = None,
    compile_mode: Optional[str] = None,
    exec_mode: Optional[str] = None,
    params: tuple = (),
) -> str:
    """Pretty-print the operator tree, one operator per line, with the
    estimated and (when ``actuals``) last-execution row counts — from
    ``snapshot`` (:func:`snapshot_stats` of the tree's counters) when
    given, else live.
    Parameter slots print the literals of ``params`` (the execution
    being rendered; a cached plan has run under many).

    With ``compile_mode`` given, expression-bearing operators carry a
    ``compiled=`` annotation: ``closure`` (every expression lowered to a
    direct closure), ``fallback`` (some expression runs through an
    interpreter callback), or ``off`` (ablation: interpretation forced).

    With ``exec_mode`` given, every operator carries an ``exec=``
    annotation: ``fused`` (the operator's work is folded into a
    generated whole-pipeline function) or ``row`` (the operator runs
    itself — the whole tree in ``row`` mode, and every operator outside
    the fused regions in ``fused`` mode).
    """
    lines: list[str] = []
    frozen = (
        None if snapshot is None
        else {
            id(op): OpStats(*counts)
            for op, counts in zip(plan_ops(root), snapshot)
        }
    )
    fused_ids: set[int] = set()
    if exec_mode == "fused":
        for region in fused_regions(root):
            fused_ids.update(id(op) for op in region)

    def emit(op: PlanOp, depth: int, role: str) -> None:
        prefix = "  " * depth
        tag = f"[{role}] " if role else ""
        est = "?" if op.est_rows is None else str(op.est_rows)
        counters = f"(est={est}"
        if actuals:
            stats = op.stats if frozen is None else frozen[id(op)]
            counters += f", rows={stats.rows_out}{op.extra_counters(stats)}"
        exchange = op.exchange_note()
        if exchange is not None:
            counters += f", exchange={exchange}"
        if compile_mode is not None:
            note = op.compiled_note(compile_mode == "closure")
            if note is not None:
                counters += f", compiled={note}"
        if exec_mode is not None:
            counters += f", exec={'fused' if id(op) in fused_ids else 'row'}"
        counters += ")"
        lines.append(f"{prefix}{tag}{op.describe(params)} {counters}")
        for child_role, child in op.child_roles():
            emit(child, depth + 1, child_role)

    emit(root, 0, "")
    # the recursive closure refers to itself through its cell; emptying
    # the cell frees it without the cyclic collector
    del emit
    return "\n".join(lines)

"""The EXCESS evaluator: a thin executor over the physical plan IR.

Executes bound (and optimized) statements against a
:class:`~repro.core.database.Database`. All iteration strategy lives in
:mod:`repro.excess.plan`: the bound query is lowered to a Volcano-style
operator pipeline (scans, index probes, path expansions, filters,
nested-loop/hash joins, semi-join probes, universal checks, aggregate
table building) and this module merely opens/next/closes that tree,
evaluates expressions for the operators, and aggregates per-operator
counters into :class:`ExecMetrics`. What remains here:

* **expression evaluation** — comparison and boolean logic follow
  QUEL-style three-valued semantics: any comparison with null is
  unknown, Kleene logic connects unknowns, and a row qualifies only when
  the where clause is definitely true; dangling references (targets
  deleted since the reference was stored) read as null everywhere,
  implementing GEM referential integrity;
* **aggregate tables** — global and partitioned aggregates are
  precomputed by running their (separately lowered) inner pipelines;
  correlated aggregates evaluate per-row with memoization;
* **mutation application** — update statements collect their qualifying
  environments from the shared row-source pipeline first and apply
  mutations afterwards, so an update never observes its own effects
  (QUEL's snapshot semantics) and iteration never races with mutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

from repro.core.database import Database
from repro.core.schema import SchemaType
from repro.core.types import (
    BOOLEAN,
    ComponentSpec,
    FLOAT8,
    IntegerType,
    Semantics,
    SetType,
    TEXT,
    TupleType,
    Type,
    own,
    ref as ref_spec,
)
from repro.core.values import (
    NULL,
    ArrayInstance,
    Ref,
    SetInstance,
    TupleInstance,
    check_slot,
    copy_value,
    value_equal,
)
from repro.errors import EvaluationError, IntegrityError
from repro.excess.binder import (
    AdtCall,
    AggregateRef,
    AttrStep,
    Binary,
    BoundAggregate,
    BoundAppend,
    BoundDelete,
    BoundExpr,
    BoundQuery,
    BoundReplace,
    BoundRetrieve,
    BoundSetStatement,
    CollectionTarget,
    Const,
    ExcessCall,
    IndexStepB,
    Membership,
    NamedSetSource,
    NamedValue,
    Param,
    PathSource,
    RangeBinding,
    Unary,
    VarRef,
)
from repro.core.governor import ResourceGovernor, row_footprint
from repro.excess.compile import aggregate_sink
from repro.excess.flags import Flags
from repro.excess.plan import (
    Aggregate,
    HashJoin,
    PlanContext,
    PlanOp,
    SCAN_OPS,
    SPILL_PARTITIONS,
    ensure_query_plan,
    ensure_retrieve_plan,
    ensure_write_plan,
    partition_hash,
    plan_ops,
    reset_stats,
    runnable_region,
    shared_passes,
)
from repro.storage.spill import SpillFile
from repro.excess.result import Result

__all__ = ["Evaluator", "ExecMetrics", "canonical_key"]

Env = dict


@dataclass
class ExecMetrics:
    """Per-statement execution counters surfaced by EXPLAIN and ``--time``."""

    #: candidate members enumerated from binding sources (all loops)
    rows_scanned: int = 0
    #: hash tables built for hash-join build sides
    hash_builds: int = 0
    #: probe-side lookups into hash-join tables
    hash_probes: int = 0
    #: member-key sets materialized for semi-join memberships
    semi_builds: int = 0
    #: plan-cache outcome ("hit" | "miss" | "" when caching not involved)
    cache: str = ""
    #: True when the hit re-used a plan prepared for other literal
    #: values (same statement shape, different constants)
    shape_hit: bool = False
    #: end-to-end statement wall time (filled in by the interpreter)
    wall_ms: float = 0.0

    def as_dict(self) -> dict:
        return {
            "rows_scanned": self.rows_scanned,
            "hash_builds": self.hash_builds,
            "hash_probes": self.hash_probes,
            "semi_builds": self.semi_builds,
            "cache": self.cache,
            "shape_hit": self.shape_hit,
            "wall_ms": round(self.wall_ms, 3),
        }

    def describe(self) -> str:
        return (
            f"rows_scanned={self.rows_scanned} hash_builds={self.hash_builds} "
            f"hash_probes={self.hash_probes} semi_builds={self.semi_builds}"
        )


#: scalar types that are their own canonical key
_SELF_KEYED = frozenset((str, int, float, bool))

#: the canonical key of null (and the ``is``-join key of a null reference)
NULL_KEY = ("null",)


def canonical_key(value: Any) -> Any:
    """A hashable canonical form for grouping and duplicate elimination."""
    if type(value) in _SELF_KEYED:
        return value
    if value is NULL:
        return NULL_KEY
    if isinstance(value, Ref):
        return ("ref", value.oid)
    if isinstance(value, TupleInstance):
        if value.oid is not None:
            return ("ref", value.oid)
        return tuple(
            (name, canonical_key(slot))
            for name, slot in value.attributes().items()
        )
    if isinstance(value, SetInstance):
        return ("set",) + tuple(sorted(canonical_key(m) for m in value))
    if isinstance(value, ArrayInstance):
        return ("array",) + tuple(canonical_key(s) for s in value)
    try:
        hash(value)
    except TypeError:
        return ("repr", repr(value))
    return value


def oid_keyed(key: Optional[BoundExpr]) -> bool:
    """True when a key expression (an ``over`` key, a ``unique`` target,
    an ``is`` probe) is statically an object reference: a range variable
    or attribute whose value is a Ref or null (a dangling reference
    already reads as null), so its OID can key it."""
    return key is not None and key.is_object and isinstance(key, (VarRef, AttrStep))


def _oid_key(value: Any) -> Optional[int]:
    return None if value is NULL else value.oid


def partition_key(key: Optional[BoundExpr]) -> Callable[[Any], Any]:
    """The one function that keys a partition aggregate's table, chosen
    from the static type of its ``over`` key (``BoundAggregate.
    inner_key``): an object reference keys by OID (None for null), any
    other value by :func:`canonical_key`. Every producer of the table —
    the fused sink, the drained, governed and parallel paths — and every
    lookup of it use this choice."""
    return _oid_key if oid_keyed(key) else canonical_key


class Evaluator:
    """Executes bound statements against one database."""

    MAX_FUNCTION_DEPTH = 32

    def __init__(
        self,
        database: Database,
        user: str = "dba",
        flags: Flags = Flags(),
        session: Any = None,
        params: tuple = (),
    ):
        self.db = database
        self.user = user
        self.session = session
        #: this execution's literal values by slot (what the statement's
        #: :class:`~repro.excess.binder.Param` nodes evaluate to)
        self.params = params
        #: snapshot component of the hash-build memo stamp: executions
        #: inside a transaction key their memoized build tables by
        #: (snapshot timestamp, transaction id) so a table built against
        #: one snapshot is never served to a different one (the data
        #: version alone does not move when versions rewind)
        if session is not None and session.txn is not None:
            txn = session.txn
            self.session_stamp = (txn.snapshot_ts, txn.txn_id)
        else:
            self.session_stamp = (None, None)
        self._function_depth = 0
        self.metrics = ExecMetrics()
        #: id(membership node) → materialized member-key set (semi-join)
        self._semi_sets: dict[int, set] = {}
        #: the execution flags (see :class:`~repro.excess.flags.Flags`);
        #: the three the plan context reads are copied out
        self.flags = flags
        self.compile_mode = flags.compile_mode
        self.exec_mode = flags.exec_mode
        self.batch_size = flags.batch_size
        #: parent-side worker-pool dispatcher (interpreter-attached when
        #: parallel_mode=process; exchange merges and aggregate
        #: precompute consult it, everything else ignores it)
        self.parallel: Any = None
        #: worker-side shard descriptor (set only inside pool workers:
        #: restricts ExchangePartition — and fused scans — to one part)
        self.exchange: Any = None
        #: per-statement resource governor (deadline + memory budget);
        #: None when neither flag is active, so ungoverned execution
        #: pays nothing — operators read it through PlanContext
        self.governor: Optional[ResourceGovernor] = (
            ResourceGovernor(flags.statement_timeout_ms, flags.memory_budget)
            if flags.statement_timeout_ms or flags.memory_budget
            else None
        )

    def _invalidate_exec_caches(self) -> None:
        """Invalidate memoized execution state before data mutates.

        Called before an update statement applies its pending mutations.
        Bumping the database's data version invalidates every hash-join
        build table memoized on cached plans (they are keyed by it), and
        the semi-join key sets of this evaluator are dropped so a later
        statement executed by it (procedures, EXCESS functions) never
        sees stale members.
        """
        self.db.data_version += 1
        self._semi_sets.clear()

    # ------------------------------------------------------------------
    # Retrieve
    # ------------------------------------------------------------------

    def run_retrieve(
        self, bound: BoundRetrieve, base_env: Optional[Env] = None
    ) -> Result:
        """Execute a retrieve by draining its lowered operator pipeline
        (``StoreInto?(Sort?(Project(row source)))``)."""
        pipeline = ensure_retrieve_plan(bound, self.db.catalog)
        rows = self._plan_rows(pipeline, dict(base_env or {}), PlanContext(self))
        columns = [t.label for t in bound.targets]
        result = Result(kind="retrieve", columns=columns, rows=rows)
        if bound.into:
            # the pipeline root is the StoreInto operator
            result.message = pipeline.message
        return result

    def _store_rows(self, bound: BoundRetrieve, rows: list[tuple]) -> str:
        """Materialize finished rows as a named set of tuples
        (``retrieve ... into``); returns the status message."""
        specs: list[tuple[str, ComponentSpec]] = []
        for index, target in enumerate(bound.targets):
            expr = target.expression
            if expr.is_object and isinstance(expr.type, SchemaType):
                spec = ref_spec(expr.type)
            elif expr.type is not None:
                spec = own(expr.type)
            else:
                spec = own(self._infer_type(rows, index))
            specs.append((target.label, spec))
        row_type = TupleType(specs)
        named = self.db.create_named(
            bound.into, own(SetType(own(row_type))), user=self.user
        )
        collection: SetInstance = named.value
        for row in rows:
            instance = TupleInstance(row_type)
            for (label, spec), value in zip(specs, row):
                instance._slots[label] = (
                    copy_value(value)
                    if spec.semantics is Semantics.OWN and value is not NULL
                    else value
                )
            collection.insert(instance)
        return f"stored {len(rows)} row(s) into {bound.into!r}"

    @staticmethod
    def _infer_type(rows: list[tuple], index: int) -> Type:
        for row in rows:
            value = row[index]
            if value is NULL:
                continue
            if isinstance(value, bool):
                return BOOLEAN
            if isinstance(value, int):
                return IntegerType(8)
            if isinstance(value, float):
                return FLOAT8
            if isinstance(value, str):
                return TEXT
            break
        return TEXT

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def run_append(
        self, bound: BoundAppend, base_env: Optional[Env] = None
    ) -> Result:
        """Execute an append statement."""
        ctx = PlanContext(self)
        fns = ensure_write_plan(bound, self.db.catalog).fns(ctx.compiled)
        envs = self.query_envs(bound.query, base_env, ctx)
        pending: list[tuple[Env, Any]] = []
        if bound.assignments:
            attributes = [attribute for attribute, _expr in bound.assignments]
            for env in envs:
                values = [fn(env, ctx) for fn in fns]
                pending.append((env, {
                    attribute: value
                    for attribute, value in zip(attributes, values)
                    if value is not NULL
                }))
        else:
            (fn,) = fns
            pending = [(env, fn(env, ctx)) for env in envs]
        count = 0
        self._invalidate_exec_caches()
        for env, payload in pending:
            if self._append_one(bound.target, payload, env, ctx.tables):
                count += 1
        return Result(kind="append", count=count, message=f"appended {count}")

    def _append_one(
        self, target: CollectionTarget, payload: Any, env: Env, tables: dict
    ) -> bool:
        undo = self.db.objects.undo
        if target.kind == "named":
            named = self.db.named(target.name)
            collection = named.value
            if isinstance(collection, ArrayInstance):
                if undo is not None:
                    undo.save_array(collection)
                collection.append(self._array_payload(collection, payload))
                return True
            if isinstance(payload, dict):
                return self.db.insert(target.name, **payload) is not None
            return self.db.insert(target.name, payload) is not None
        # path collection: resolve the owner instance per env
        owner, collection = self._resolve_collection(target, env, tables)
        if collection is None:
            return False
        if undo is not None:
            undo.save_value(collection)
            if isinstance(owner, TupleInstance):
                undo.note_dirty(owner.oid)
        if isinstance(collection, ArrayInstance):
            collection.append(self._array_payload(collection, payload))
            self._mark_owner_dirty(owner)
            return True
        element = collection.element
        if element.semantics is Semantics.OWN:
            member = self.db.integrity._build_own_value(element.type, payload)
            stored = collection.insert(member)
        elif isinstance(payload, dict):
            if element.semantics is Semantics.REF:
                raise IntegrityError(
                    "inline construction requires an own ref collection"
                )
            assert isinstance(element.type, SchemaType)
            owner_oid = owner.oid if isinstance(owner, TupleInstance) else None
            member = self.db.integrity.create_object(
                element.type, payload, owner=owner_oid
            )
            stored = collection.insert(member)
        else:
            if not isinstance(payload, Ref):
                raise EvaluationError(
                    f"cannot append {payload!r} to a reference collection"
                )
            self.db.integrity.check_ref_target(element, payload)
            if element.semantics is Semantics.OWN_REF:
                owner_oid = owner.oid if isinstance(owner, TupleInstance) else None
                if owner_oid is not None:
                    self.db.objects.claim(payload.oid, owner=owner_oid)
            stored = collection.insert(payload)
        self._mark_owner_dirty(owner)
        return stored is not None

    def _array_payload(self, collection: ArrayInstance, payload: Any) -> Any:
        if isinstance(payload, dict):
            element = collection.element
            if element.semantics is Semantics.OWN:
                return self.db.integrity._build_own_value(element.type, payload)
            raise EvaluationError(
                "inline construction into reference arrays is not supported"
            )
        return payload

    def _mark_owner_dirty(self, owner: Any) -> None:
        if isinstance(owner, TupleInstance) and owner.oid is not None:
            self.db.objects.mark_dirty(owner)

    def _resolve_collection(
        self, target: CollectionTarget, env: Env, tables: dict
    ) -> tuple[Any, Optional[Any]]:
        """Resolve a path collection target to (owner_instance, collection)."""
        assert target.base is not None
        base_value = self._eval(target.base, env, tables)
        instance = self._resolve_instance(base_value)
        if instance is None:
            return None, None
        current: Any = instance
        owner: Any = instance
        for index, step in enumerate(target.steps):
            if not isinstance(current, TupleInstance):
                return None, None
            owner = current
            value = current.get(step)
            if value is NULL:
                return None, None
            if isinstance(value, Ref):
                value = self._deref(value)
                if value is None:
                    return None, None
            current = value
        if isinstance(current, (SetInstance, ArrayInstance)):
            return owner, current
        return None, None

    def run_delete(
        self, bound: BoundDelete, base_env: Optional[Env] = None
    ) -> Result:
        """Execute a delete statement."""
        binding = next(
            b for b in bound.query.bindings if b.name == bound.variable
        )
        victims: list[tuple[Any, Optional[SetInstance], Optional[str]]] = []
        seen: set = set()
        for env in self.query_envs(bound.query, base_env, PlanContext(self)):
            member = env[bound.variable]
            key = canonical_key(member)
            if key in seen:
                continue
            seen.add(key)
            collection, set_name = self._binding_collection(binding, env)
            victims.append((member, collection, set_name))
        deleted = 0
        self._invalidate_exec_caches()
        for member, collection, set_name in victims:
            if isinstance(member, Ref):
                deleted += 1 if self.db.delete(member) else 0
            elif collection is not None:
                if set_name is not None:
                    named = self.db.named(set_name)
                    self.db.integrity.remove_member(named, collection, member)
                else:
                    undo = self.db.objects.undo
                    if undo is not None:
                        undo.save_set(collection)
                    collection.remove(member)
                deleted += 1
        return Result(kind="delete", count=deleted, message=f"deleted {deleted}")

    def _binding_collection(
        self, binding: RangeBinding, env: Env
    ) -> tuple[Optional[SetInstance], Optional[str]]:
        source = binding.source
        if isinstance(source, NamedSetSource):
            named = self.db.named(source.set_name)
            value = named.value
            return (value if isinstance(value, SetInstance) else None), source.set_name
        if isinstance(source, PathSource):
            parent = env.get(source.parent)
            instance = self._resolve_instance(parent)
            current: Any = instance
            for step in source.steps:
                if not isinstance(current, TupleInstance):
                    return None, None
                value = current.get(step)
                if isinstance(value, Ref):
                    value = self._deref(value)
                current = value
            if isinstance(current, SetInstance):
                return current, None
        return None, None

    def run_replace(
        self, bound: BoundReplace, base_env: Optional[Env] = None
    ) -> Result:
        """Execute a replace statement."""
        ctx = PlanContext(self)
        write = ensure_write_plan(bound, self.db.catalog)
        target_fn, *fns = write.fns(ctx.compiled)
        attributes = [attribute for attribute, _expr in bound.assignments]
        pending: list[tuple[Any, dict[str, Any]]] = []
        for env in self.query_envs(bound.query, base_env, ctx):
            target_value = target_fn(env, ctx)
            if target_value is NULL:
                continue
            values = [fn(env, ctx) for fn in fns]
            pending.append((target_value, dict(zip(attributes, values))))
        count = 0
        self._invalidate_exec_caches()
        for target_value, changes in pending:
            if isinstance(target_value, Ref):
                self._apply_indexed_changes(target_value, changes, write.upkeep)
                count += 1
            elif isinstance(target_value, TupleInstance):
                self.db.apply_changes(target_value, changes)
                count += 1
        return Result(kind="replace", count=count, message=f"replaced {count}")

    def _apply_indexed_changes(
        self, reference: Ref, changes: dict, upkeep: tuple
    ) -> None:
        """Apply changes to an object, maintaining the indexes ``upkeep``
        names (see :class:`~repro.excess.plan.WritePlan`) on every set
        of it the object belongs to."""
        instance = self._deref(reference)
        if instance is None:
            return
        db = self.db
        member_of = []
        for set_name, attributes in upkeep:
            collection = db.named(set_name).value
            if isinstance(collection, SetInstance) and collection.contains(reference):
                member_of.append(
                    (set_name, attributes, db._key_snapshot(instance, attributes))
                )
        db.apply_changes(instance, changes)
        for set_name, attributes, old_keys in member_of:
            new_keys = db._key_snapshot(instance, attributes)
            db.catalog.indexes.on_update(
                set_name, reference.oid, old_keys.get, new_keys.get
            )
        new_row = {name: instance.get(name) for name in changes}
        db.note_member_update(reference, new_row)

    def run_set(
        self, bound: BoundSetStatement, base_env: Optional[Env] = None
    ) -> Result:
        """Execute a set (slot assignment) statement.

        Every qualifying binding's value *and* target are resolved
        before anything changes. Two bindings that assign one target —
        the same named singleton, object slot, or array element — would
        leave whichever row came last, so the statement's effect would
        depend on row order (and a cold WAL replay could choose another
        order than the acknowledged run): it raises instead, having
        changed nothing. WAL replay is the exception: a log written
        before this rule may hold such a statement, acknowledged with
        the last row winning, and replay applies it that way (no
        statement logged under the rule assigns any target twice).
        """
        ctx = PlanContext(self)
        write = ensure_write_plan(bound, self.db.catalog)
        # the value, then the location's base (and index) expressions
        value_fn, *location_fns = write.fns(ctx.compiled)
        kind = bound.location[0]
        #: (value, target): the slot owner's (base, instance) or the
        #: array's (base, index); None for a named singleton
        pending: list[tuple[Any, Any]] = []
        assigned: set = set()
        for env in self.query_envs(bound.query, base_env, ctx):
            value = value_fn(env, ctx)
            if kind == "named":
                target: Any = None
                key: Any = ()
            elif kind == "slot":
                base = location_fns[0](env, ctx)
                instance = self._resolve_instance(base)
                if instance is None:
                    continue
                target = (base, instance)
                key = instance.oid if instance.oid is not None else id(instance)
            else:  # index
                base = location_fns[0](env, ctx)
                index = location_fns[1](env, ctx)
                if base is NULL or index is NULL:
                    continue
                if not isinstance(base, ArrayInstance):
                    raise EvaluationError("set target is not an array")
                target = (base, index)
                key = (id(base), canonical_key(index))
            if key in assigned and not self.db.replaying:
                raise EvaluationError(
                    "set assigns one target from more than one qualifying "
                    "row; the result would depend on row order"
                )
            assigned.add(key)
            pending.append((value, target))
        count = 0
        self._invalidate_exec_caches()
        for value, target in pending:
            if kind == "named":
                named = self.db.named(bound.location[1])
                canonical = check_slot(named.spec, value)
                if named.spec.semantics is Semantics.OWN and canonical is not NULL:
                    canonical = copy_value(canonical)
                if isinstance(canonical, Ref):
                    self.db.integrity.check_ref_target(named.spec, canonical)
                undo = self.db.objects.undo
                if undo is not None:
                    undo.save_named_binding(named)
                named.value = canonical
            elif kind == "slot":
                base, instance = target
                changes = {bound.location[2]: value}
                if isinstance(base, Ref):
                    self._apply_indexed_changes(base, changes, write.upkeep)
                else:
                    self.db.apply_changes(instance, changes)
            else:
                base, index = target
                if isinstance(value, Ref):
                    self.db.integrity.check_ref_target(base.element, value)
                undo = self.db.objects.undo
                if undo is not None:
                    undo.save_array(base)
                base.set(index, value)
            count += 1
        return Result(kind="set", count=count, message=f"set {count}")

    # ------------------------------------------------------------------
    # Plan execution
    # ------------------------------------------------------------------

    def _plan_rows(self, root: PlanOp, env: Env, ctx: PlanContext) -> list:
        """Every row of one operator tree. A root whose fused region
        this execution runs (:func:`~repro.excess.plan.runnable_region`)
        is one call of the generated function, inside the same counter
        reset/absorb, ``rows_out`` count, root timeout check and
        ``running`` nesting as :meth:`_run_plan`, which drains every
        other tree (row mode, roots that do not fuse)."""
        fused = None if ctx.exec_mode == "row" else runnable_region(root, ctx)
        if fused is None:
            rows: list = []
            for batch in self._run_plan(root, env, ctx):
                rows.extend(batch)
            return rows
        nested = root.running > 0
        if not nested:
            reset_stats(root)
        root.running += 1
        try:
            rows = fused.fn(ctx, env)
            if rows and ctx.governor is not None:
                ctx.governor.check_timeout("root")
            root.stats.rows_out += len(rows)
            return rows
        finally:
            root.running -= 1
            if not nested:
                self._absorb_stats(root)

    def _run_plan(
        self, root: PlanOp, env: Env, ctx: PlanContext
    ) -> Iterator[list]:
        """Drain one operator tree as lists of rows: reset its counters,
        run it, then absorb the counters into this statement's metrics.
        Fused execution yields the root's batches (counting its
        ``rows_out`` per batch, per the batch stats contract); row
        execution opens/nexts/closes the tree and yields one-row lists.

        Plans are shared (they live on cached bound statements), so a
        recursive EXCESS function can re-enter a tree that is already
        running; the nested run skips the reset/absorb — its rows simply
        accumulate into the outer run's counters.
        """
        nested = root.running > 0
        if not nested:
            reset_stats(root)
        root.running += 1
        governor = ctx.governor
        root_stats = root.stats
        try:
            if ctx.exec_mode != "row":
                for batch in root.batches(ctx, env, ctx.batch_size):
                    if governor is not None:
                        governor.check_timeout("root")
                    root_stats.rows_out += len(batch)
                    yield batch
                return
            root.open(ctx, env)
            try:
                for row in root._iters[-1]:
                    if governor is not None:
                        governor.check_timeout("root")
                    root_stats.rows_out += 1
                    yield [row]
            finally:
                root.close()
        finally:
            root.running -= 1
            if not nested:
                self._absorb_stats(root)

    def _absorb_stats(self, root: PlanOp) -> None:
        """Fold per-operator counters into the statement metrics."""
        metrics = self.metrics
        for op in plan_ops(root):
            if isinstance(op, SCAN_OPS):
                metrics.rows_scanned += op.stats.rows_out
            elif isinstance(op, HashJoin):
                metrics.hash_builds += op.stats.builds
                metrics.hash_probes += op.stats.probes

    def _query_rows(
        self, query: BoundQuery, base_env: Env, ctx: PlanContext
    ) -> Iterator[Env]:
        """Stream the environments of a query's binding pipeline (row
        mode yields one *shared* environment: callers must not retain
        it — see :meth:`query_envs`)."""
        plan = ensure_query_plan(query, self.db.catalog)
        for batch in self._run_plan(plan, dict(base_env), ctx):
            yield from batch

    def query_envs(
        self, query: BoundQuery, base_env: Optional[Env], ctx: PlanContext
    ) -> list[Env]:
        """The shared row-source layer: one private environment per
        qualifying row of the query's lowered binding pipeline, drained
        batch by batch.

        Append, delete, replace, set, and procedure invocation all
        consume it, so every strategy decision (access methods, join
        order, hash vs nested-loop) lives in the plan IR. ``ctx.tables``
        receives the aggregate tables the pipeline builds; evaluate the
        returned envs under the same ``ctx``.
        """
        plan = ensure_query_plan(query, self.db.catalog)
        env = dict(base_env or {})
        if ctx.exec_mode != "row":
            # fused-mode rows are already private per-row snapshots
            return self._plan_rows(plan, env, ctx)
        # row mode yields its one shared environment, copied here
        return [
            dict(row) for batch in self._run_plan(plan, env, ctx) for row in batch
        ]

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------

    def _aggregate_query(self, aggregate: BoundAggregate) -> BoundQuery:
        """The aggregate's inner iteration as a (plan-carrying) query."""
        if aggregate.inner_query is None:
            aggregate.inner_query = BoundQuery(
                bindings=aggregate.inner_bindings, where=aggregate.where
            )
        return aggregate.inner_query

    def _precompute_aggregates(
        self, op: Aggregate, base_env: Env, ctx: PlanContext
    ) -> None:
        """Fill ``ctx.tables`` for global and partitioned aggregates by
        running their inner pipelines; correlated ones get a memo dict
        filled on demand, paired with their compiled argument (the
        :class:`~repro.excess.plan.Aggregate` operator calls this at
        open, before any downstream evaluation).

        Aggregates whose inner iteration is the same share one pass
        (:func:`shared_passes`), in every exec mode, so ``rows_scanned``
        counts each pass once. Arguments and partition keys are the
        operator's compiled expressions. Its counters take the spill
        accounting for EXPLAIN; an active governor adds cooperative
        timeout checks per inner row and may spill the accumulating
        groups to disk partitions (:meth:`_governed_aggregates`).
        """
        tables = ctx.tables
        governor = self.governor
        fns = iter(op.compiled_exprs(ctx.compiled)[0])
        #: aggregate_id → (compiled argument, compiled key or None)
        compiled: dict[int, tuple] = {}
        serial: list[BoundAggregate] = []
        for aggregate in op.query.aggregates:
            argument = next(fns)
            key = next(fns) if aggregate.inner_key is not None else None
            if aggregate.mode == "correlated":
                tables[aggregate.aggregate_id] = (
                    "correlated", aggregate, ({}, argument)
                )
                continue
            if self.parallel is not None and not base_env:
                # partial→final on the worker pool; None = stay serial
                computed = self.parallel.run_aggregate(self, aggregate, tables)
                if computed is not None:
                    tables[aggregate.aggregate_id] = (
                        aggregate.mode, aggregate, computed
                    )
                    continue
            compiled[aggregate.aggregate_id] = (argument, key)
            serial.append(aggregate)
        for group in shared_passes(serial):
            inner = self._aggregate_query(group[0])
            fills = [
                (
                    aggregate,
                    *compiled[aggregate.aggregate_id],
                    partition_key(aggregate.inner_key),
                )
                for aggregate in group
            ]
            if governor is not None:
                computed = self._governed_aggregates(
                    fills, inner, base_env, ctx, governor, op.stats
                )
            else:
                groups = self._sink_groups(group, inner, base_env, ctx)
                if groups is None:
                    groups = self._drained_groups(fills, inner, base_env, ctx)
                computed = [
                    {key: aggregate.function.impl(values) for key, values in table.items()}
                    for aggregate, table in zip(group, groups)
                ]
            for aggregate, table in zip(group, computed):
                tables[aggregate.aggregate_id] = (aggregate.mode, aggregate, table)

    def _sink_groups(
        self,
        aggregates: list[BoundAggregate],
        inner: BoundQuery,
        base_env: Env,
        ctx: PlanContext,
    ) -> Optional[list]:
        """Each aggregate's ``{key: [values]}`` from one generated loop
        over the shared inner pipeline (:func:`~repro.excess.compile.
        aggregate_sink`), or None when execution is row-at-a-time or the
        pipeline is not a fusable body. Counters are reset and absorbed
        exactly as :meth:`_run_plan` does for the drained path."""
        if self.exec_mode == "row":
            return None
        plan = ensure_query_plan(inner, self.db.catalog)
        sink = aggregate_sink(plan, aggregates, ctx.compiled)
        if sink is None:
            return None
        nested = plan.running > 0
        if not nested:
            reset_stats(plan)
        plan.running += 1
        try:
            return sink.fn(ctx, base_env)
        finally:
            plan.running -= 1
            if not nested:
                self._absorb_stats(plan)

    def _drained_groups(
        self, fills: list, inner: BoundQuery, base_env: Env, ctx: PlanContext
    ) -> list[dict]:
        """Each aggregate's ``{key: [values]}`` by draining the shared
        inner pipeline's rows once and evaluating every compiled
        argument (and partition key) per row. ``fills`` holds one
        ``(aggregate, argument, key_fn, key_of)`` per aggregate."""
        groups: list[dict] = [{} for _ in fills]
        for env in self._query_rows(inner, base_env, ctx):
            for (_aggregate, argument, key_fn, key_of), table in zip(fills, groups):
                value = argument(env, ctx)
                if value is NULL:
                    continue
                key = key_of(key_fn(env, ctx)) if key_fn is not None else ()
                table.setdefault(key, []).append(value)
        return groups

    def _governed_aggregates(
        self,
        fills: list,
        inner: BoundQuery,
        base_env: Env,
        ctx: PlanContext,
        governor: ResourceGovernor,
        stats: Any,
    ) -> list[dict]:
        """The governed accumulation path of one shared pass: timeout
        checks per inner row, and group values spilled to hash
        partitions past the budget. Returns each aggregate's computed
        table.

        Groups are keyed ``(position, key)`` by the aggregate's position
        in ``fills``. Spilling preserves per-group value order (a group's
        values land in one partition file, flushed prefix first, then
        streamed in encounter order), so non-commutative aggregate
        functions see the exact sequence the in-memory path feeds them.
        The computed tables are only ever read by key lookup, so their
        (partition-major) dict order is unobservable.
        """
        groups: dict[Any, list] = {}
        parts: Optional[list] = None
        reserved = 0
        try:
            for env in self._query_rows(inner, base_env, ctx):
                governor.check_timeout("aggregate")
                for position, (_aggregate, argument, key_fn, key_of) in enumerate(
                    fills
                ):
                    value = argument(env, ctx)
                    if value is NULL:
                        continue
                    key = (
                        position,
                        key_of(key_fn(env, ctx)) if key_fn is not None else (),
                    )
                    if parts is None:
                        cost = row_footprint(value)
                        if governor.reserve(cost):
                            reserved += cost
                            groups.setdefault(key, []).append(value)
                            continue
                        # over budget: spill what accumulated, then stream
                        parts = [SpillFile() for _ in range(SPILL_PARTITIONS)]
                        for gkey, values in groups.items():
                            part = parts[partition_hash(gkey) % SPILL_PARTITIONS]
                            for held in values:
                                part.append((gkey, held))
                        groups = {}
                        governor.release(reserved)
                        reserved = 0
                        governor.spilled()
                    parts[partition_hash(key) % SPILL_PARTITIONS].append(
                        (key, value)
                    )

            def regrouped(parts: list) -> Iterator[dict]:
                # one spilled partition in memory at a time
                for part in parts:
                    pgroups: dict[Any, list] = {}
                    for key, value in part:
                        pgroups.setdefault(key, []).append(value)
                    yield pgroups

            computed: list[dict] = [{} for _ in fills]
            for table in [groups] if parts is None else regrouped(parts):
                for (position, key), values in table.items():
                    computed[position][key] = fills[position][0].function.impl(values)
            if parts is not None and stats is not None:
                stats.spill_partitions += len(parts)
                stats.spill_bytes += sum(p.bytes_written for p in parts)
            return computed
        finally:
            if parts is not None:
                for part in parts:
                    part.close()

    def _eval_aggregate_ref(
        self, node: AggregateRef, env: Env, tables: dict
    ) -> Any:
        mode, aggregate, computed = tables[node.aggregate_id]
        if mode == "global":
            if () in computed:
                return self._null_if_none(computed[()])
            return self._empty_aggregate(aggregate)
        if mode == "partition":
            assert node.outer_key is not None
            key = partition_key(aggregate.inner_key)(
                self._eval(node.outer_key, env, tables)
            )
            if key in computed:
                return self._null_if_none(computed[key])
            return self._empty_aggregate(aggregate)
        # correlated: evaluate over nested sets under the current env
        memo, argument = computed
        memo_key = tuple(
            canonical_key(env.get(dep, NULL)) for dep in aggregate.outer_deps
        )
        if memo_key in memo:
            return memo[memo_key]
        values: list = []
        inner = self._aggregate_query(aggregate)
        ctx = PlanContext(self, tables)
        for inner_env in self._query_rows(inner, env, ctx):
            value = argument(inner_env, ctx)
            if value is not NULL:
                values.append(value)
        if values:
            result = self._null_if_none(aggregate.function.impl(values))
        else:
            result = self._empty_aggregate(aggregate)
        memo[memo_key] = result
        return result

    def _empty_aggregate(self, aggregate: BoundAggregate) -> Any:
        if aggregate.function.empty_value is not None:
            return aggregate.function.empty_value
        return NULL

    @staticmethod
    def _null_if_none(value: Any) -> Any:
        return NULL if value is None else value

    # ------------------------------------------------------------------
    # Expression evaluation
    # ------------------------------------------------------------------

    def _deref(self, reference: Ref) -> Optional[TupleInstance]:
        return self.db.objects.deref(reference.oid)

    def _resolve_instance(self, value: Any) -> Optional[TupleInstance]:
        if isinstance(value, Ref):
            return self._deref(value)
        if isinstance(value, TupleInstance):
            return value
        return None

    def _normalize_ref(self, value: Any) -> Any:
        """A dangling reference reads as null (GEM semantics)."""
        if isinstance(value, Ref) and not self.db.objects.is_live(value.oid):
            return NULL
        return value

    def _eval(self, node: BoundExpr, env: Env, tables: dict) -> Any:
        """Evaluate a bound expression; unknowns surface as NULL."""
        if isinstance(node, Param):
            return self.params[node.slot]
        if isinstance(node, Const):
            return node.value
        if isinstance(node, VarRef):
            value = env.get(node.name, NULL)
            return self._normalize_ref(value)
        if isinstance(node, NamedValue):
            named = self.db.named(node.name)
            return self._normalize_ref(named.value)
        if isinstance(node, AttrStep):
            base = self._eval(node.base, env, tables)
            instance = self._resolve_instance(base)
            if instance is None:
                return NULL
            value = instance.get(node.attribute)
            return self._normalize_ref(value)
        if isinstance(node, IndexStepB):
            base = self._eval(node.base, env, tables)
            index = self._eval(node.index, env, tables)
            if base is NULL or index is NULL:
                return NULL
            if not isinstance(base, ArrayInstance):
                raise EvaluationError(f"indexing a non-array value {base!r}")
            if not isinstance(index, int) or isinstance(index, bool):
                raise EvaluationError("array index must be an integer")
            if index < 1 or index > len(base):
                return NULL  # reads beyond the end are null; writes error
            return self._normalize_ref(base.get(index))
        if isinstance(node, Binary):
            return self._eval_binary(node, env, tables)
        if isinstance(node, Unary):
            return self._eval_unary(node, env, tables)
        if isinstance(node, AdtCall):
            return self._eval_adt_call(node, env, tables)
        if isinstance(node, ExcessCall):
            return self._eval_excess_call(node, env, tables)
        if isinstance(node, AggregateRef):
            return self._eval_aggregate_ref(node, env, tables)
        if isinstance(node, Membership):
            return self._eval_membership(node, env, tables)
        raise EvaluationError(f"cannot evaluate {type(node).__name__}")

    def _eval_binary(self, node: Binary, env: Env, tables: dict) -> Any:
        if node.kind == "bool":
            return self._eval_bool(node, env, tables)
        if node.kind == "object":
            return self._eval_object_equality(node, env, tables)
        left = self._eval(node.left, env, tables)
        right = self._eval(node.right, env, tables)
        if node.kind == "concat":
            if left is NULL or right is NULL:
                return NULL
            return str(left) + str(right)
        if left is NULL or right is NULL:
            return NULL
        if node.kind == "compare":
            if node.enum_labels is not None:
                left, right = self._enum_ordinals(node.enum_labels, left, right)
            return self._compare(node.op, left, right)
        # arithmetic
        try:
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            if node.op == "*":
                return left * right
            if node.op == "/":
                if right == 0:
                    raise EvaluationError("division by zero")
                if isinstance(left, int) and isinstance(right, int):
                    return left // right if left % right == 0 else left / right
                return left / right
            if node.op == "%":
                if right == 0:
                    raise EvaluationError("modulo by zero")
                return left % right
        except TypeError as exc:
            raise EvaluationError(f"bad arithmetic operands: {exc}") from exc
        raise EvaluationError(f"unknown arithmetic operator {node.op!r}")

    @staticmethod
    def _enum_ordinals(labels: tuple, left: Any, right: Any) -> tuple:
        """Map enum labels to their declaration-order ordinals so that
        comparisons follow the enumeration's order."""
        def ordinal(value: Any) -> Any:
            if isinstance(value, str):
                try:
                    return labels.index(value)
                except ValueError:
                    raise EvaluationError(
                        f"{value!r} is not a label of the enumeration"
                    ) from None
            return value

        return ordinal(left), ordinal(right)

    def _compare(self, op: str, left: Any, right: Any) -> Any:
        try:
            if op == "=":
                return value_equal(left, right)
            if op == "!=":
                return not value_equal(left, right)
            if op == "<":
                return left < right
            if op == "<=":
                return left <= right
            if op == ">":
                return left > right
            if op == ">=":
                return left >= right
        except TypeError as exc:
            raise EvaluationError(f"incomparable values: {exc}") from exc
        raise EvaluationError(f"unknown comparison {op!r}")

    def _eval_bool(self, node: Binary, env: Env, tables: dict) -> Any:
        """Kleene three-valued and/or (NULL = unknown)."""
        left = self._as_truth(self._eval(node.left, env, tables))
        if node.op == "and":
            if left is False:
                return False
            right = self._as_truth(self._eval(node.right, env, tables))
            if right is False:
                return False
            if left is None or right is None:
                return NULL
            return True
        if node.op == "or":
            if left is True:
                return True
            right = self._as_truth(self._eval(node.right, env, tables))
            if right is True:
                return True
            if left is None or right is None:
                return NULL
            return False
        raise EvaluationError(f"unknown boolean operator {node.op!r}")

    @staticmethod
    def _as_truth(value: Any) -> Optional[bool]:
        if value is NULL:
            return None
        if isinstance(value, bool):
            return value
        raise EvaluationError(f"boolean operand expected, got {value!r}")

    def _eval_object_equality(self, node: Binary, env: Env, tables: dict) -> Any:
        left = self._normalize_ref(self._eval(node.left, env, tables))
        right = self._normalize_ref(self._eval(node.right, env, tables))
        if left is NULL or right is NULL:
            # `X is null` tests for null-ness; two nulls are the same
            # (both denote no object), a null and anything else are not.
            same = left is NULL and right is NULL
        else:
            same = self._object_oid(left) == self._object_oid(right)
        return same if node.op == "is" else not same

    @staticmethod
    def _object_oid(value: Any) -> Optional[int]:
        if value is NULL:
            return None
        if isinstance(value, Ref):
            return value.oid
        if isinstance(value, TupleInstance) and value.oid is not None:
            return value.oid
        raise EvaluationError(
            f"'is'/'isnot' compares object references, got {value!r}"
        )

    def _eval_unary(self, node: Unary, env: Env, tables: dict) -> Any:
        value = self._eval(node.operand, env, tables)
        if node.op == "not":
            truth = self._as_truth(value)
            if truth is None:
                return NULL
            return not truth
        if node.op == "-":
            if value is NULL:
                return NULL
            try:
                return -value
            except TypeError as exc:
                raise EvaluationError(f"cannot negate {value!r}") from exc
        raise EvaluationError(f"unknown unary operator {node.op!r}")

    def _eval_adt_call(self, node: AdtCall, env: Env, tables: dict) -> Any:
        args = [self._eval(a, env, tables) for a in node.args]
        if any(a is NULL for a in args):
            return NULL
        try:
            result = node.function.impl(*args)
        except EvaluationError:
            raise
        except Exception as exc:
            raise EvaluationError(
                f"ADT function {node.function.name!r} failed: {exc}"
            ) from exc
        return NULL if result is None else result

    def _eval_excess_call(self, node: ExcessCall, env: Env, tables: dict) -> Any:
        from repro.excess.functions import call_function

        args = [self._eval(a, env, tables) for a in node.args]
        if self._function_depth >= self.MAX_FUNCTION_DEPTH:
            raise EvaluationError(
                f"EXCESS function recursion deeper than {self.MAX_FUNCTION_DEPTH}"
            )
        self._function_depth += 1
        try:
            return call_function(self, node.name, node.fixed_function, args)
        finally:
            self._function_depth -= 1

    def _eval_membership(self, node: Membership, env: Env, tables: dict) -> Any:
        element = self._normalize_ref(self._eval(node.element, env, tables))
        if node.semi_join and node.collection.kind == "named":
            keys = self._semi_keys(node)
            if keys is not None:
                if element is NULL:
                    return NULL
                probe = element
                if isinstance(element, TupleInstance) and element.oid is not None:
                    probe = Ref(element.oid)
                if isinstance(probe, Ref):
                    found = canonical_key(
                        probe
                    ) in keys and self.db.objects.is_live(probe.oid)
                else:
                    found = canonical_key(probe) in keys
                return (not found) if node.negated else found
        collection = self._membership_collection(node.collection, env, tables)
        if collection is None:
            return NULL
        if element is NULL:
            return NULL
        found = self._collection_contains(collection, element)
        return (not found) if node.negated else found

    def _semi_keys(self, node: Membership) -> Optional[set]:
        """The memoized member-key set for a semi-join membership over a
        named set; None when the named object is not a set (the caller
        falls back to the direct containment scan)."""
        keys = self._semi_sets.get(id(node))
        if keys is not None:
            return keys
        value = self.db.named(node.collection.name).value
        if not isinstance(value, SetInstance):
            return None
        self.metrics.semi_builds += 1
        keys = {canonical_key(member) for member in value}
        self._semi_sets[id(node)] = keys
        return keys

    def _membership_collection(
        self, target: CollectionTarget, env: Env, tables: dict
    ) -> Optional[Any]:
        if target.kind == "named":
            value = self.db.named(target.name).value
            return value if isinstance(value, (SetInstance, ArrayInstance)) else None
        _owner, collection = self._resolve_collection(target, env, tables)
        return collection

    def _collection_contains(self, collection: Any, element: Any) -> bool:
        probe = element
        if isinstance(element, TupleInstance) and element.oid is not None:
            probe = Ref(element.oid)
        if isinstance(collection, SetInstance):
            if isinstance(probe, Ref):
                return collection.contains(probe) and self.db.objects.is_live(
                    probe.oid
                )
            return collection.contains(probe)
        if isinstance(collection, ArrayInstance):
            for slot in collection:
                if isinstance(probe, Ref):
                    if isinstance(slot, Ref) and slot.oid == probe.oid:
                        return self.db.objects.is_live(probe.oid)
                elif value_equal(slot, probe):
                    return True
            return False
        return False

"""Expression compilation: bound expressions lowered to Python closures.

The evaluator's :meth:`~repro.excess.evaluator.Evaluator._eval` walks a
:class:`~repro.excess.binder.BoundExpr` tree per row, paying an
``isinstance`` dispatch chain plus operator-kind tests for every node on
every candidate row. This module removes that per-row interpretation:
:func:`compile_expr` translates a bound expression **once** into a tree
of nested Python closures — each node becomes a function ``fn(env, ctx)
-> value`` whose body contains only the work that node actually does,
with EXCESS null semantics (three-valued comparison and Kleene logic,
dangling references reading as null) baked in at compile time.

Compilation is total: every expression compiles. Node types whose
evaluation is entangled with per-statement evaluator state —
:class:`~repro.excess.binder.AdtCall` (registered ADT functions),
:class:`~repro.excess.binder.ExcessCall` (recursion-depth accounting,
dynamic dispatch), a correlated :class:`~repro.excess.binder.
AggregateRef` (per-row memo), :class:`~repro.excess.binder.Membership`
(memoized semi-join key sets) — compile to a thin callback into the
existing interpreter, so mixed expressions still run their compilable
subtrees as closures. A compiled expression therefore never needs a
plan-level bailout; operators report ``closure`` when the whole tree
compiled directly and ``fallback`` when any callback remains.

Closures are deliberately stateless: they capture only the expression's
constants and sub-closures, and take the per-execution state (the shared
environment dict and the :class:`~repro.excess.plan.PlanContext`) as
arguments — a literal the plan cache lifted into a parameter slot
(:class:`~repro.excess.binder.Param`) is read from ``ctx.params`` on
every evaluation, never baked. That keeps compiled plans shareable
across executions exactly like the operator trees that carry them, and
keeps them out of pickled transaction snapshots (plan nodes drop their
compiled caches on ``__getstate__`` and recompile lazily).

Semantics are pinned against the interpreter by a Hypothesis property
(``tests/property/test_query_equivalence.py``) and a per-figure parity
suite (``tests/integration/test_compile_parity.py``): for every query,
``compile_mode="closure"`` and ``compile_mode="off"`` must produce
identical rows, messages, and errors.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, NamedTuple, Optional

from repro.core.schema import SchemaType
from repro.core.types import ArrayType, CharType, FloatType, IntegerType, TextType
from repro.core.values import (
    NULL,
    ArrayInstance,
    Ref,
    SetInstance,
    TupleInstance,
    value_equal,
)
from repro.errors import EvaluationError
from repro.excess.binder import (
    AggregateRef,
    AttrStep,
    Binary,
    BoundExpr,
    Const,
    ExcessCall,
    IndexStepB,
    NamedValue,
    Param,
    Unary,
    VarRef,
)

__all__ = [
    "CompiledExpr",
    "compile_expr",
    "compile_all",
    "compiled_label",
    "FusedPipeline",
    "fused_pipeline",
    "aggregate_sink",
]

#: a compiled expression: ``fn(env, ctx) -> value`` where ``env`` is the
#: shared environment dict and ``ctx`` the plan's execution context
CompiledFn = Callable[[dict, Any], Any]


class CompiledExpr(NamedTuple):
    """One compiled expression and how completely it compiled."""

    fn: CompiledFn
    #: True when the whole tree lowered to direct closures; False when
    #: any node fell back to an interpreter callback
    full: bool


# ---------------------------------------------------------------------------
# Shared runtime helpers (mirroring the evaluator's semantics exactly)
# ---------------------------------------------------------------------------


def _truth(value: Any) -> Optional[bool]:
    """Three-valued truth: NULL is unknown, non-booleans are errors."""
    if value is NULL:
        return None
    if isinstance(value, bool):
        return value
    raise EvaluationError(f"boolean operand expected, got {value!r}")


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


#: value comparators per operator; ``=``/``!=`` use structural equality
_COMPARATORS: dict[str, Callable[[Any, Any], Any]] = {
    "=": value_equal,
    "!=": lambda left, right: not value_equal(left, right),
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


# ---------------------------------------------------------------------------
# Node compilers
# ---------------------------------------------------------------------------


def _compile_fallback(node: BoundExpr) -> CompiledExpr:
    """A thin callback into the interpreter for nodes that need
    per-statement evaluator state (ADT/EXCESS calls, aggregates,
    memberships) — and, defensively, any unrecognized shape."""

    def run(env: dict, ctx: Any, _node: BoundExpr = node) -> Any:
        return ctx.evaluator._eval(_node, env, ctx.tables)

    return CompiledExpr(run, False)


def _compile_const(node: Const) -> CompiledExpr:
    value = node.value

    def run(env: dict, ctx: Any) -> Any:
        return value

    return CompiledExpr(run, True)


def _compile_param(node: Param) -> CompiledExpr:
    slot = node.slot

    def run(env: dict, ctx: Any) -> Any:
        return ctx.params[slot]

    return CompiledExpr(run, True)


def _compile_var(node: VarRef) -> CompiledExpr:
    name = node.name

    def run(env: dict, ctx: Any) -> Any:
        value = env.get(name, NULL)
        if isinstance(value, Ref) and not ctx.objects.is_live(value.oid):
            return NULL  # dangling reference reads as null (GEM)
        return value

    return CompiledExpr(run, True)


def _compile_named(node: NamedValue) -> CompiledExpr:
    name = node.name

    def run(env: dict, ctx: Any) -> Any:
        value = ctx.db.named(name).value
        if isinstance(value, Ref) and not ctx.objects.is_live(value.oid):
            return NULL
        return value

    return CompiledExpr(run, True)


def _compile_attr(node: AttrStep) -> CompiledExpr:
    base_fn, base_full = _compile(node.base)
    attribute = node.attribute

    def run(env: dict, ctx: Any) -> Any:
        base = base_fn(env, ctx)
        if isinstance(base, Ref):
            base = ctx.objects.deref(base.oid)
            if base is None:
                return NULL
        elif not isinstance(base, TupleInstance):
            return NULL  # attribute of null (or a non-object) is null
        value = base.get(attribute)
        if isinstance(value, Ref) and not ctx.objects.is_live(value.oid):
            return NULL
        return value

    return CompiledExpr(run, base_full)


def _compile_index(node: IndexStepB) -> CompiledExpr:
    base_fn, base_full = _compile(node.base)
    index_fn, index_full = _compile(node.index)

    def run(env: dict, ctx: Any) -> Any:
        base = base_fn(env, ctx)
        index = index_fn(env, ctx)
        if base is NULL or index is NULL:
            return NULL
        if not isinstance(base, ArrayInstance):
            raise EvaluationError(f"indexing a non-array value {base!r}")
        if not isinstance(index, int) or isinstance(index, bool):
            raise EvaluationError("array index must be an integer")
        if index < 1 or index > len(base):
            return NULL  # reads beyond the end are null; writes error
        value = base.get(index)
        if isinstance(value, Ref) and not ctx.objects.is_live(value.oid):
            return NULL
        return value

    return CompiledExpr(run, base_full and index_full)


def _compile_bool(node: Binary) -> CompiledExpr:
    """Kleene three-valued and/or; short-circuits exactly like the
    interpreter (the right operand is not evaluated when the left side
    already decides)."""
    left_fn, left_full = _compile(node.left)
    right_fn, right_full = _compile(node.right)
    full = left_full and right_full

    if node.op == "and":

        def run(env: dict, ctx: Any) -> Any:
            left = _truth(left_fn(env, ctx))
            if left is False:
                return False
            right = _truth(right_fn(env, ctx))
            if right is False:
                return False
            if left is None or right is None:
                return NULL
            return True

        return CompiledExpr(run, full)

    if node.op == "or":

        def run(env: dict, ctx: Any) -> Any:
            left = _truth(left_fn(env, ctx))
            if left is True:
                return True
            right = _truth(right_fn(env, ctx))
            if right is True:
                return True
            if left is None or right is None:
                return NULL
            return False

        return CompiledExpr(run, full)

    return _compile_fallback(node)


def _compile_object_equality(node: Binary) -> CompiledExpr:
    left_fn, left_full = _compile(node.left)
    right_fn, right_full = _compile(node.right)
    negated = node.op != "is"

    def run(env: dict, ctx: Any) -> Any:
        left = left_fn(env, ctx)
        right = right_fn(env, ctx)
        objects = ctx.objects
        if isinstance(left, Ref) and not objects.is_live(left.oid):
            left = NULL
        if isinstance(right, Ref) and not objects.is_live(right.oid):
            right = NULL
        if left is NULL or right is NULL:
            # `X is null` tests for null-ness; two nulls are the same
            # (both denote no object), a null and anything else are not.
            same = left is NULL and right is NULL
        else:
            same = _object_oid(left) == _object_oid(right)
        return not same if negated else same

    return CompiledExpr(run, left_full and right_full)


def _compile_compare(node: Binary) -> CompiledExpr:
    compare = _COMPARATORS.get(node.op)
    if compare is None:
        return _compile_fallback(node)
    left_fn, left_full = _compile(node.left)
    right_fn, right_full = _compile(node.right)
    full = left_full and right_full

    if node.enum_labels is not None:
        # bake the declaration-order ordinals in at compile time
        labels = node.enum_labels
        ordinals = {label: position for position, label in enumerate(labels)}

        def run(env: dict, ctx: Any) -> Any:
            left = left_fn(env, ctx)
            right = right_fn(env, ctx)
            if left is NULL or right is NULL:
                return NULL
            if isinstance(left, str):
                try:
                    left = ordinals[left]
                except KeyError:
                    raise EvaluationError(
                        f"{left!r} is not a label of the enumeration"
                    ) from None
            if isinstance(right, str):
                try:
                    right = ordinals[right]
                except KeyError:
                    raise EvaluationError(
                        f"{right!r} is not a label of the enumeration"
                    ) from None
            try:
                return compare(left, right)
            except TypeError as exc:
                raise EvaluationError(f"incomparable values: {exc}") from exc

        return CompiledExpr(run, full)

    def run(env: dict, ctx: Any) -> Any:
        left = left_fn(env, ctx)
        right = right_fn(env, ctx)
        if left is NULL or right is NULL:
            return NULL
        try:
            return compare(left, right)
        except TypeError as exc:
            raise EvaluationError(f"incomparable values: {exc}") from exc

    return CompiledExpr(run, full)


def _compile_concat(node: Binary) -> CompiledExpr:
    left_fn, left_full = _compile(node.left)
    right_fn, right_full = _compile(node.right)

    def run(env: dict, ctx: Any) -> Any:
        left = left_fn(env, ctx)
        right = right_fn(env, ctx)
        if left is NULL or right is NULL:
            return NULL
        return str(left) + str(right)

    return CompiledExpr(run, left_full and right_full)


def _compile_arith(node: Binary) -> CompiledExpr:
    left_fn, left_full = _compile(node.left)
    right_fn, right_full = _compile(node.right)
    full = left_full and right_full
    op = node.op

    if op == "+":

        def run(env: dict, ctx: Any) -> Any:
            left = left_fn(env, ctx)
            right = right_fn(env, ctx)
            if left is NULL or right is NULL:
                return NULL
            try:
                return left + right
            except TypeError as exc:
                raise EvaluationError(
                    f"bad arithmetic operands: {exc}"
                ) from exc

    elif op == "-":

        def run(env: dict, ctx: Any) -> Any:
            left = left_fn(env, ctx)
            right = right_fn(env, ctx)
            if left is NULL or right is NULL:
                return NULL
            try:
                return left - right
            except TypeError as exc:
                raise EvaluationError(
                    f"bad arithmetic operands: {exc}"
                ) from exc

    elif op == "*":

        def run(env: dict, ctx: Any) -> Any:
            left = left_fn(env, ctx)
            right = right_fn(env, ctx)
            if left is NULL or right is NULL:
                return NULL
            try:
                return left * right
            except TypeError as exc:
                raise EvaluationError(
                    f"bad arithmetic operands: {exc}"
                ) from exc

    elif op == "/":

        def run(env: dict, ctx: Any) -> Any:
            left = left_fn(env, ctx)
            right = right_fn(env, ctx)
            if left is NULL or right is NULL:
                return NULL
            try:
                if right == 0:
                    raise EvaluationError("division by zero")
                if isinstance(left, int) and isinstance(right, int):
                    return left // right if left % right == 0 else left / right
                return left / right
            except TypeError as exc:
                raise EvaluationError(
                    f"bad arithmetic operands: {exc}"
                ) from exc

    elif op == "%":

        def run(env: dict, ctx: Any) -> Any:
            left = left_fn(env, ctx)
            right = right_fn(env, ctx)
            if left is NULL or right is NULL:
                return NULL
            try:
                if right == 0:
                    raise EvaluationError("modulo by zero")
                return left % right
            except TypeError as exc:
                raise EvaluationError(
                    f"bad arithmetic operands: {exc}"
                ) from exc

    else:
        return _compile_fallback(node)

    return CompiledExpr(run, full)


def _compile_binary(node: Binary) -> CompiledExpr:
    if node.kind == "bool":
        return _compile_bool(node)
    if node.kind == "object":
        return _compile_object_equality(node)
    if node.kind == "compare":
        return _compile_compare(node)
    if node.kind == "concat":
        return _compile_concat(node)
    if node.kind == "arith":
        return _compile_arith(node)
    return _compile_fallback(node)


def _compile_unary(node: Unary) -> CompiledExpr:
    operand_fn, operand_full = _compile(node.operand)

    if node.op == "not":

        def run(env: dict, ctx: Any) -> Any:
            truth = _truth(operand_fn(env, ctx))
            if truth is None:
                return NULL
            return not truth

        return CompiledExpr(run, operand_full)

    if node.op == "-":

        def run(env: dict, ctx: Any) -> Any:
            value = operand_fn(env, ctx)
            if value is NULL:
                return NULL
            try:
                return -value
            except TypeError as exc:
                raise EvaluationError(f"cannot negate {value!r}") from exc

        return CompiledExpr(run, operand_full)

    return _compile_fallback(node)


def _inline_excess_body(function: Any, evaluator: Any) -> Optional[CompiledFn]:
    """The compiled body of an inlinable EXCESS function, or None.

    Inlinable means the body is a bare scalar expression over the
    parameters — one target, no range bindings, no where clause, no
    aggregates, no into/unique/order — so a call is exactly one compiled
    expression evaluated in the callee environment, with no plan to
    open.  Everything else (set-returning, iterating, filtering bodies)
    keeps the full :func:`~repro.excess.functions.call_function` path.
    """
    if function.returns_set:
        return None
    from repro.excess.binder import Binder
    from repro.excess.functions import bind_function_body

    bound = bind_function_body(function, Binder(evaluator.db.catalog))
    query = bound.query
    if (
        query.bindings
        or query.where is not None
        or query.aggregates
        or bound.into is not None
        or bound.unique
        or bound.order
    ):
        return None
    return _compile(bound.targets[0].expression).fn


def _compile_excess_call(node: ExcessCall) -> CompiledExpr:
    """EXCESS function calls: compiled dispatch with body inlining.

    Argument evaluation, the recursion-depth guard, dynamic dispatch on
    the first argument's runtime type, arity, and authorization mirror
    :meth:`Evaluator._eval_excess_call` + :func:`call_function` exactly
    (identical error messages, identical ordering). When the resolved
    function's body is a bare scalar expression, the call runs its
    compiled body directly in the callee environment — no Binder, no
    plan open, no row materialization per call. Bodies that need real
    execution fall back to :func:`call_function`.

    Reported ``full=False``: the call still depends on evaluator state
    (depth accounting, dynamic dispatch), so operators keep the honest
    ``compiled=fallback`` annotation.
    """
    arg_fns = [_compile(a).fn for a in node.args]
    name = node.name
    fixed_function = node.fixed_function
    #: id(function) -> (function, bound-body-at-compile, body fn | None);
    #: the identity recheck guards redefinition and snapshot revival
    inline_cache: dict[int, tuple] = {}

    def run(env: dict, ctx: Any) -> Any:
        evaluator = ctx.evaluator
        args = [fn(env, ctx) for fn in arg_fns]
        if evaluator._function_depth >= evaluator.MAX_FUNCTION_DEPTH:
            raise EvaluationError(
                "EXCESS function recursion deeper than "
                f"{evaluator.MAX_FUNCTION_DEPTH}"
            )
        evaluator._function_depth += 1
        try:
            first = args[0] if args else NULL
            if first is NULL:
                return NULL
            if fixed_function is not None:
                function = fixed_function
            else:
                instance = evaluator._resolve_instance(first)
                if instance is None:
                    return NULL
                if not isinstance(instance.type, SchemaType):
                    raise EvaluationError(
                        f"function {name!r} requires a schema-typed object"
                    )
                function = evaluator.db.catalog.lookup_function(
                    instance.type, name
                )
                if function is None:
                    raise EvaluationError(
                        f"no function {name!r} for type "
                        f"{instance.type.name!r}"
                    )
            if len(args) != len(function.params):
                raise EvaluationError(
                    f"function {function.name!r} takes "
                    f"{len(function.params)} arguments, got {len(args)}"
                )
            if evaluator.db.authz.enabled:
                from repro.authz.grants import Privilege

                evaluator.db.authz.check(
                    evaluator.user, Privilege.EXECUTE, function.name
                )
            cached = inline_cache.get(id(function))
            if (
                cached is None
                or cached[0] is not function
                or cached[1] is not function.bound
            ):
                body = _inline_excess_body(function, evaluator)
                inline_cache[id(function)] = (function, function.bound, body)
            else:
                body = cached[2]
            if body is None:
                from repro.excess.functions import call_function

                return call_function(evaluator, name, fixed_function, args)
            callee_env = {
                f"@{param.name}": value
                for param, value in zip(function.params, args)
            }
            return body(callee_env, ctx)
        finally:
            evaluator._function_depth -= 1

    return CompiledExpr(run, False)


def _compile_aggregate_ref(node: AggregateRef) -> CompiledExpr:
    """Global and partition aggregate references read the table the
    statement's precompute filled (mirroring ``Evaluator.
    _eval_aggregate_ref``: an empty group yields the function's empty
    value, a ``None`` result reads as null); correlated references keep
    the interpreter callback, which owns their per-row memo."""
    from repro.excess.evaluator import partition_key

    aggregate_id = node.aggregate_id

    def lookup(computed: dict, key: Any, aggregate: Any) -> Any:
        if key in computed:
            value = computed[key]
            return NULL if value is None else value
        empty = aggregate.function.empty_value
        return NULL if empty is None else empty

    if node.mode == "global":

        def run(env: dict, ctx: Any) -> Any:
            _mode, aggregate, computed = ctx.tables[aggregate_id]
            return lookup(computed, (), aggregate)

        return CompiledExpr(run, True)

    if node.mode == "partition" and node.outer_key is not None:
        key_fn, key_full = _compile(node.outer_key)

        def run(env: dict, ctx: Any) -> Any:
            _mode, aggregate, computed = ctx.tables[aggregate_id]
            key = partition_key(aggregate.inner_key)(key_fn(env, ctx))
            return lookup(computed, key, aggregate)

        return CompiledExpr(run, key_full)

    return _compile_fallback(node)


#: compile-time dispatch: exact node class → handler (AdtCall,
#: Membership, and anything unknown go through the fallback)
_HANDLERS: dict[type, Callable[[Any], CompiledExpr]] = {
    Const: _compile_const,
    Param: _compile_param,
    VarRef: _compile_var,
    NamedValue: _compile_named,
    AttrStep: _compile_attr,
    IndexStepB: _compile_index,
    Binary: _compile_binary,
    Unary: _compile_unary,
    ExcessCall: _compile_excess_call,
    AggregateRef: _compile_aggregate_ref,
}


def _compile(node: BoundExpr) -> CompiledExpr:
    handler = _HANDLERS.get(type(node))
    if handler is None:
        return _compile_fallback(node)
    return handler(node)


# ---------------------------------------------------------------------------
# Public interface
# ---------------------------------------------------------------------------


def compile_expr(node: BoundExpr, compiled: bool = True) -> CompiledExpr:
    """One bound expression as a callable ``fn(env, ctx)`` — the single
    place the closure-vs-interpreter decision is made.

    With ``compiled`` (the execution's ``compile_mode="closure"``) the
    tree lowers to closures; uncompilable nodes become interpreter
    callbacks inside an otherwise-compiled tree (``full=False``).
    Without it the whole expression *is* the interpreter callback, so
    ``compile_mode="off"`` keeps running the reference tree-walker
    (:meth:`Evaluator._eval`) behind the same calling convention.
    """
    return _compile(node) if compiled else _compile_fallback(node)


def compile_all(
    nodes: list[BoundExpr], compiled: bool = True
) -> tuple[list[CompiledFn], bool]:
    """:func:`compile_expr` over a list; returns the callables plus
    whether every tree compiled fully (for the ``compiled=`` plan
    annotation)."""
    entries = [compile_expr(node, compiled) for node in nodes]
    return [entry.fn for entry in entries], all(
        entry.full for entry in entries
    )


def compiled_label(full: bool, compiled: bool = True) -> str:
    """The per-operator EXPLAIN annotation for a compiled expression set."""
    if not compiled:
        return "off"
    return "closure" if full else "fallback"


# ---------------------------------------------------------------------------
# Pipeline fusion: a whole region (scan or path loops, filters, and a
# projection, an aggregate precompute, or an aggregate sink) as one
# generated Python function (exec'd once per plan, cached on its root)
# ---------------------------------------------------------------------------


#: arithmetic operators the fused lowering inlines
_ARITH = ("+", "-", "*", "/", "%")


def _family(node: BoundExpr) -> Optional[str]:
    """``"num"`` (int/float) or ``"str"`` when every value of ``node`` is
    null or a plain Python scalar of that family, as its static type
    guarantees: a stored attribute value was type-checked when it was
    written (``alter type`` bumps the epoch, so no plan outlives the
    types it was bound against), a shape fixes each Param's literal
    kind, and int/float arithmetic stays in its family. None for
    everything else — booleans, enums, ADT values, references, and
    results whose class no schema fixes (calls, aggregates)."""
    if isinstance(node, Param):
        static = node.type  # its literal kind (reading .value would pin it)
    elif isinstance(node, Const):
        cls = node.value.__class__
        return "num" if cls in (int, float) else "str" if cls is str else None
    elif isinstance(node, AttrStep) and not node.is_object:
        static = node.type
    elif isinstance(node, Unary) and node.op == "-":
        return "num" if _family(node.operand) == "num" else None
    elif isinstance(node, Binary) and node.kind == "arith" and node.op in _ARITH:
        both = _family(node.left) == _family(node.right) == "num"
        return "num" if both else None
    else:
        return None
    if isinstance(static, (IntegerType, FloatType)):
        return "num"
    if isinstance(static, (CharType, TextType)):
        return "str"
    return None


def _never_null(node: BoundExpr) -> bool:
    """True when ``node`` of a scalar :func:`_family` is never null: a
    Param (literals are never lifted as null), a non-null constant, and
    arithmetic over those."""
    if isinstance(node, Param):
        return True
    if isinstance(node, Const):
        return node.value is not NULL
    if isinstance(node, Unary):
        return _never_null(node.operand)
    if isinstance(node, Binary):
        return _never_null(node.left) and _never_null(node.right)
    return False


class _ExprLowering:
    """Statement-level lowering of simple bound expressions straight into
    fused-pipeline source, bypassing per-expression closure calls.

    Each supported shape is lowered to the same sequence of checks its
    closure compiler above performs — NULL propagation, liveness checks,
    3VL truth, and byte-identical error messages — so inline and closure
    evaluation are observably equivalent. ``lower`` returns
    ``(None, None)`` for any unsupported shape; the caller falls back to
    a closure call for that expression.

    Every loop of the region binds one variable at a *level*: the member
    lives in ``_m<level>`` and attribute reads off it share one
    dereference per row, ``_o<level>`` — safe because nothing can mutate
    the object store between two expression evaluations over the same
    row. At a *typed* level (an object element, stamped by lowering) the
    loop has already skipped dead members, so ``_o<level>`` is never
    null. Global and partition aggregate references read the tables the
    region's precompute filled, and parameters their ``ctx.params``
    slot, once per call (``prologue``).

    Value operations are specialised on the binder's static types: a
    comparison of two operands of one scalar :func:`_family` is the bare
    operator (null tested only on an operand that can be null), and a
    key of such a value is the value itself (:meth:`table_key`).
    """

    def __init__(self, ns: dict, enabled: bool, aggregates: dict):
        self.ns = ns
        self.enabled = enabled
        #: loop variable name → its level; grows as the generator opens
        #: nested loops, so an expression only sees enclosing variables
        self.loop_vars: dict[str, int] = {}
        #: levels whose ``_o`` is a live object on every row
        self.typed: set[int] = set()
        #: levels whose ``_o`` dereference a lowered expression read
        self.uses_object: set[int] = set()
        #: levels whose member ``_m`` a lowered expression reads
        self.uses_member: set[int] = set()
        #: aggregate_id → BoundAggregate of the global/partition
        #: aggregates whose tables this region's precompute fills
        self.aggregates = aggregates
        #: per-call statements (unindented), run after the precompute
        self.prologue: list[str] = []
        #: aggregate ids whose table lookup ``prologue`` already holds
        self.tables: set[int] = set()
        #: parameter slots ``prologue`` binds as ``_pv<slot>``
        self.params: set[int] = set()
        #: (level, attribute, ...) → register holding that attribute path
        #: of a loop variable, computed unconditionally earlier in the row
        self.paths: dict[tuple, str] = {}
        #: > 0 while lowering code that runs only on some rows (the right
        #: operand of and/or), whose registers later code must not reuse
        self.cond_depth = 0
        self.tmp = 0
        self.consts = 0

    def new_tmp(self) -> str:
        self.tmp += 1
        return f"_t{self.tmp}"

    def lower(self, node: BoundExpr, indent: str, test: bool = False):
        """``(statements, result_name)`` or ``(None, None)``; with
        ``test``, the result is a condition that holds exactly when the
        expression evaluates to True (a filter's test)."""
        if not self.enabled:
            return None, None
        # an abandoned lowering discards its statements, so it must also
        # forget the registers and per-call lookups they would have set
        paths = dict(self.paths)
        uses_object = set(self.uses_object)
        uses_member = set(self.uses_member)
        prologue = len(self.prologue)
        tables = set(self.tables)
        params = set(self.params)
        cond_depth = self.cond_depth
        buf: list[str] = []
        try:
            if test:
                reg = self._lower_test(node, buf, indent)
            else:
                reg = self._lower(node, buf, indent)
        except _Unsupported:
            self.paths = paths
            self.uses_object = uses_object
            self.uses_member = uses_member
            del self.prologue[prologue:]
            self.tables = tables
            self.params = params
            self.cond_depth = cond_depth
            return None, None
        return buf, reg

    def _lower(self, node: BoundExpr, buf: list, i: str) -> str:
        if isinstance(node, Param):
            name = f"_pv{node.slot}"
            if node.slot not in self.params:
                self.params.add(node.slot)
                self.prologue.append(f"{name} = _params[{node.slot}]")
            return name
        if isinstance(node, Const):
            self.consts += 1
            name = f"_c{self.consts}"
            self.ns[name] = node.value
            return name
        if isinstance(node, VarRef):
            return self._lower_var(node, buf, i)
        if isinstance(node, NamedValue):
            out = self.new_tmp()
            buf.append(f"{i}{out} = _db.named({node.name!r}).value")
            self._live_check(out, buf, i)
            return out
        if isinstance(node, AttrStep):
            return self._lower_attr(node, buf, i)
        if isinstance(node, Binary):
            return self._lower_binary(node, buf, i)
        if isinstance(node, Unary):
            return self._lower_unary(node, buf, i)
        if isinstance(node, AggregateRef):
            return self._lower_aggregate(node, buf, i)
        raise _Unsupported

    def _live_check(self, out: str, buf: list, i: str) -> None:
        buf.append(f"{i}if isinstance({out}, Ref) and {out}.oid not in _live:")
        buf.append(f"{i}    {out} = NULL")

    def _lower_var(self, node: VarRef, buf: list, i: str) -> str:
        level = self.loop_vars.get(node.name)
        if level is not None:
            # scans and path loops yield only live members, and nothing
            # dies while this row's expressions run — no liveness re-check
            self.uses_member.add(level)
            return f"_m{level}"
        out = self.new_tmp()
        buf.append(f"{i}{out} = env.get({node.name!r}, NULL)")
        self._live_check(out, buf, i)
        return out

    def _path_key(self, node: BoundExpr) -> Optional[tuple]:
        """``(level, attribute, ...)`` for an attribute path rooted at a
        loop variable, else None."""
        if isinstance(node, VarRef):
            level = self.loop_vars.get(node.name)
            return None if level is None else (level,)
        if isinstance(node, AttrStep):
            base = self._path_key(node.base)
            return None if base is None else base + (node.attribute,)
        return None

    def _lower_attr(self, node: AttrStep, buf: list, i: str) -> str:
        # an attribute path read twice in one row (a filter and a
        # target, say) is read once: attribute reads cannot fail and
        # nothing mutates the store mid-row
        key = self._path_key(node)
        if key is not None and key in self.paths:
            return self.paths[key]
        out = self._lower_attr_read(node, buf, i)
        if key is not None and self.cond_depth == 0:
            self.paths[key] = out
        return out

    def _lower_attr_read(self, node: AttrStep, buf: list, i: str) -> str:
        if not node.is_object:
            # only a ref / own ref slot holds a Ref (check_slot): any other
            # read needs no liveness test
            return self._read_slot(node, buf, i)
        slot = self._slot(node, buf, i)
        key = self._path_key(node)
        obj = None if key is None else self.paths.get(("obj",) + key)
        out = self.new_tmp()
        if obj is not None:
            # a step through the slot already looked the record up
            buf.append(f"{i}{out} = NULL if {obj} is NULL else {slot}")
        else:
            buf.append(
                f"{i}{out} = {slot} if {slot} is not NULL "
                f"and {slot}.oid in _live else NULL"
            )
        return out

    def _slot(self, node: AttrStep, buf: list, i: str) -> str:
        """:meth:`_read_slot`, read once per row for a loop variable's
        path (a ``ref`` read as a value and stepped through)."""
        key = self._path_key(node)
        key = None if key is None else ("slot",) + key
        if key in self.paths:
            return self.paths[key]
        out = self._read_slot(node, buf, i)
        if key is not None and self.cond_depth == 0:
            self.paths[key] = out
        return out

    def _read_slot(self, node: AttrStep, buf: list, i: str) -> str:
        """The stored slot value of ``node``, null when its base object
        is null or dead; a reference it holds is not liveness-checked."""
        obj, live = self._object_of(node.base, buf, i)
        out = self.new_tmp()
        if live:
            buf.extend(_get_lines(out, obj, node.attribute, i))
            return out
        buf.append(f"{i}if {obj} is NULL:")
        buf.append(f"{i}    {out} = NULL")
        buf.append(f"{i}else:")
        buf.extend(_get_lines(out, obj, node.attribute, f"{i}    "))
        return out

    def _object_of(self, node: BoundExpr, buf: list, i: str) -> tuple:
        """``(register, live)``: the object ``node`` denotes (a
        TupleInstance, or NULL for null, dead and non-object values);
        ``live`` when the register is never NULL."""
        if isinstance(node, VarRef) and node.name in self.loop_vars:
            level = self.loop_vars[node.name]
            self.uses_object.add(level)
            return f"_o{level}", level in self.typed
        if isinstance(node, AttrStep) and node.is_object:
            # one record lookup is both the liveness test and the deref
            key = self._path_key(node)
            key = None if key is None else ("obj",) + key
            if key in self.paths:
                return self.paths[key], False
            ref = self._slot(node, buf, i)
            out = self.new_tmp()
            buf.append(f"{i}if {ref} is NULL:")
            buf.append(f"{i}    {out} = NULL")
            buf.append(f"{i}else:")
            buf.extend(_deref_lines(out, f"{i}    ", ref))
            if key is not None and self.cond_depth == 0:
                self.paths[key] = out
            return out, False
        value = self._lower(node, buf, i)
        out = self.new_tmp()
        buf.append(f"{i}{out} = {value}")
        buf.append(f"{i}if isinstance({out}, Ref):")
        buf.extend(_deref_lines(out, f"{i}    "))
        buf.append(f"{i}elif not isinstance({out}, TupleInstance):")
        buf.append(f"{i}    {out} = NULL")
        return out, False

    @staticmethod
    def table_key(reg: str, node: BoundExpr, by_oid: bool) -> str:
        """The key of ``node``'s value in ``reg``: its OID (None for
        null) when ``by_oid``, else its ``canonical_key`` — the value
        itself for a scalar :func:`_family`, or the class dispatch."""
        if by_oid:
            return f"(None if {reg} is NULL else {reg}.oid)"
        if _family(node) is None:
            return _canonical(reg)
        return reg if _never_null(node) else f"(_NULLKEY if {reg} is NULL else {reg})"

    def _lower_aggregate(self, node: AggregateRef, buf: list, i: str) -> str:
        """Mirror of ``Evaluator._eval_aggregate_ref`` for the global and
        partition modes (correlated references stay callbacks)."""
        aggregate = self.aggregates.get(node.aggregate_id)
        if aggregate is None or (
            aggregate.mode == "partition" and node.outer_key is None
        ):
            raise _Unsupported
        aid = node.aggregate_id
        table, empty, value = f"_agc{aid}", f"_age{aid}", f"_agv{aid}"
        if aid not in self.tables:
            self.tables.add(aid)
            empty_value = aggregate.function.empty_value
            self.ns[empty] = NULL if empty_value is None else empty_value
            self.prologue.append(f"{table} = _tables[{aid}][2]")
            if aggregate.mode == "global":
                # one value per execution: resolved once, before the loop
                self.prologue.extend(
                    [
                        f"{value} = {table}.get((), _MISS)",
                        f"if {value} is _MISS:",
                        f"    {value} = {empty}",
                        f"elif {value} is None:",
                        f"    {value} = NULL",
                    ]
                )
        if aggregate.mode == "global":
            return value
        from repro.excess.evaluator import oid_keyed

        key = self._lower(node.outer_key, buf, i)
        # the producer's key function (evaluator.partition_key)
        key = self.table_key(key, node.outer_key, oid_keyed(aggregate.inner_key))
        out = self.new_tmp()
        buf.append(f"{i}{out} = {table}.get({key}, _MISS)")
        buf.append(f"{i}if {out} is _MISS:")
        buf.append(f"{i}    {out} = {empty}")
        buf.append(f"{i}elif {out} is None:")
        buf.append(f"{i}    {out} = NULL")
        return out

    def _lower_binary(self, node: Binary, buf: list, i: str) -> str:
        if node.kind == "bool" and node.op in ("and", "or"):
            return self._lower_bool(node, buf, i)
        if node.kind == "object" and node.op in ("is", "isnot"):
            return self._lower_object(node, buf, i)
        typed = self._typed_compare(node, buf, i)
        if typed is not None:
            nullable, expr = typed
            out = self.new_tmp()
            if nullable:
                tests = " or ".join(f"{reg} is NULL" for reg in nullable)
                expr = f"NULL if {tests} else {expr}"
            buf.append(f"{i}{out} = {expr}")
            return out
        left = self._lower(node.left, buf, i)
        right = self._lower(node.right, buf, i)
        out = self.new_tmp()
        if node.kind == "compare" and node.enum_labels is None:
            if node.op in ("<", "<=", ">", ">="):
                expr = f"{left} {node.op} {right}"
            elif node.op in ("=", "!="):
                negate = "not " if node.op == "!=" else ""
                expr = f"{negate}_veq({left}, {right})"
            else:
                raise _Unsupported
            buf.append(f"{i}if {left} is NULL or {right} is NULL:")
            buf.append(f"{i}    {out} = NULL")
            buf.append(f"{i}else:")
            buf.append(f"{i}    try:")
            buf.append(f"{i}        {out} = {expr}")
            buf.append(f"{i}    except TypeError as _exc:")
            buf.append(
                f'{i}        raise EvaluationError('
                f'f"incomparable values: {{_exc}}") from _exc'
            )
            return out
        if node.kind == "concat":
            buf.append(f"{i}if {left} is NULL or {right} is NULL:")
            buf.append(f"{i}    {out} = NULL")
            buf.append(f"{i}else:")
            buf.append(f"{i}    {out} = str({left}) + str({right})")
            return out
        if node.kind == "arith" and node.op in _ARITH:
            buf.append(f"{i}if {left} is NULL or {right} is NULL:")
            buf.append(f"{i}    {out} = NULL")
            buf.append(f"{i}else:")
            buf.append(f"{i}    try:")
            if node.op == "/":
                buf.append(f"{i}        if {right} == 0:")
                buf.append(
                    f'{i}            raise EvaluationError("division by zero")'
                )
                buf.append(
                    f"{i}        if isinstance({left}, int) "
                    f"and isinstance({right}, int):"
                )
                buf.append(
                    f"{i}            {out} = {left} // {right} "
                    f"if {left} % {right} == 0 else {left} / {right}"
                )
                buf.append(f"{i}        else:")
                buf.append(f"{i}            {out} = {left} / {right}")
            elif node.op == "%":
                buf.append(f"{i}        if {right} == 0:")
                buf.append(
                    f'{i}            raise EvaluationError("modulo by zero")'
                )
                buf.append(f"{i}        {out} = {left} % {right}")
            else:
                buf.append(f"{i}        {out} = {left} {node.op} {right}")
            buf.append(f"{i}    except TypeError as _exc:")
            buf.append(
                f'{i}        raise EvaluationError('
                f'f"bad arithmetic operands: {{_exc}}") from _exc'
            )
            return out
        raise _Unsupported

    def _typed_compare(self, node: BoundExpr, buf: list, i: str) -> Optional[tuple]:
        """``(nullable operand registers, expression)`` of a comparison
        of two plain scalars of one :func:`_family`, where the operator
        is ``value_equal`` or the ordering itself and cannot raise; None
        (nothing lowered) for any other node."""
        if not (
            isinstance(node, Binary)
            and node.kind == "compare"
            and node.enum_labels is None
        ):
            return None
        family = _family(node.left)
        if family is None or family != _family(node.right):
            return None
        left = self._lower(node.left, buf, i)
        right = self._lower(node.right, buf, i)
        nullable = [
            reg
            for reg, operand in ((left, node.left), (right, node.right))
            if not _never_null(operand)
        ]
        return nullable, f"{left} {'==' if node.op == '=' else node.op} {right}"

    def _lower_test(self, node: BoundExpr, buf: list, i: str) -> str:
        """A condition that holds exactly when ``node`` is True: a typed
        comparison tested in place, anything else its register."""
        typed = self._typed_compare(node, buf, i)
        if typed is None:
            return f"{self._lower(node, buf, i)} is True"
        nullable, expr = typed
        return " and ".join([f"{reg} is not NULL" for reg in nullable] + [expr])

    def _lower_bool(self, node: Binary, buf: list, i: str) -> str:
        left = self._lower(node.left, buf, i)
        out = self.new_tmp()
        lt = self.new_tmp()
        buf.append(f"{i}{lt} = _truth({left})")
        decided = "False" if node.op == "and" else "True"
        buf.append(f"{i}if {lt} is {decided}:")
        buf.append(f"{i}    {out} = {decided}")
        buf.append(f"{i}else:")
        self.cond_depth += 1
        right = self._lower(node.right, buf, i + "    ")
        self.cond_depth -= 1
        rt = self.new_tmp()
        buf.append(f"{i}    {rt} = _truth({right})")
        buf.append(f"{i}    if {rt} is {decided}:")
        buf.append(f"{i}        {out} = {decided}")
        buf.append(f"{i}    elif {lt} is None or {rt} is None:")
        buf.append(f"{i}        {out} = NULL")
        buf.append(f"{i}    else:")
        buf.append(f"{i}        {out} = {'True' if node.op == 'and' else 'False'}")
        return out

    def _lower_object(self, node: Binary, buf: list, i: str) -> str:
        left = self._lower(node.left, buf, i)
        right = self._lower(node.right, buf, i)
        lt, rt = self.new_tmp(), self.new_tmp()
        out = self.new_tmp()
        for reg, operand in ((lt, left), (rt, right)):
            buf.append(f"{i}{reg} = {operand}")
            self._live_check(reg, buf, i)
        buf.append(f"{i}if {lt} is NULL or {rt} is NULL:")
        buf.append(f"{i}    {out} = {lt} is NULL and {rt} is NULL")
        buf.append(f"{i}else:")
        buf.append(f"{i}    {out} = _ooid({lt}) == _ooid({rt})")
        if node.op != "is":
            buf.append(f"{i}{out} = not {out}")
        return out

    def _lower_unary(self, node: Unary, buf: list, i: str) -> str:
        operand = self._lower(node.operand, buf, i)
        out = self.new_tmp()
        if node.op == "not":
            buf.append(f"{i}{out} = _truth({operand})")
            buf.append(f"{i}{out} = NULL if {out} is None else not {out}")
            return out
        if node.op == "-":
            buf.append(f"{i}if {operand} is NULL:")
            buf.append(f"{i}    {out} = NULL")
            buf.append(f"{i}else:")
            buf.append(f"{i}    try:")
            buf.append(f"{i}        {out} = -{operand}")
            buf.append(f"{i}    except TypeError as _exc:")
            buf.append(
                f'{i}        raise EvaluationError('
                f'f"cannot negate {{{operand}!r}}") from _exc'
            )
            return out
        raise _Unsupported


class _Unsupported(Exception):
    """Internal: the expression shape has no inline lowering."""


def _canonical(reg: str) -> str:
    """``canonical_key`` of ``reg`` with its scalar and Ref cases inline."""
    return (
        f"({reg} if {reg}.__class__ in _SELF_KEYED else "
        f'("ref", {reg}.oid) if {reg}.__class__ is Ref else canonical_key({reg}))'
    )


def _set_members(reg: str, kind: str) -> str:
    """What a loop of ``kind`` iterates over the SetInstance in ``reg``:
    a reference set's own Refs (no copy; the loop skips dead ones), or a
    list copy of its live members."""
    if kind == "ref":
        return f"{reg}._members.values()"
    return f"{reg}.live_members(_live)"


def _get_lines(reg: str, obj: str, attribute: str, i: str) -> list:
    """Statements reading ``attribute`` of the TupleInstance in ``obj``
    into ``reg``: its slot dict, and ``TupleInstance.get`` (which raises
    the unknown-attribute error) only when the slot is missing."""
    return [
        f"{i}try:",
        f"{i}    {reg} = {obj}._slots[{attribute!r}]",
        f"{i}except KeyError:",
        f"{i}    {reg} = {obj}.get({attribute!r})",
    ]


def _deref_lines(reg: str, i: str, ref: Optional[str] = None) -> list:
    """Statements setting ``reg`` to the object the Ref in ``ref``
    (default: ``reg``) denotes, or NULL when it is dead: one lookup on
    the per-call ``_record``."""
    return [
        f"{i}{reg} = _record({ref or reg}.oid)",
        f"{i}{reg} = NULL if {reg} is None else {reg}.value",
    ]


class FusedPipeline(NamedTuple):
    """One fused pipeline region, ready to run."""

    #: ``fn(ctx, env)`` — materializes the region's whole output: a list
    #: of rows or envs, or an aggregate sink's ``{key: [values]}`` groups
    #: per aggregate
    fn: Callable[[Any, dict], Any]
    #: the generated Python source (``plan.pipeline_sources`` prepends
    #: the region's operator descriptions for ``Result.pipeline_source``)
    source: str
    #: "rows" when the region root is a Project (emits result tuples, or
    #: ``(row, sort_keys)`` pairs under a Sort); "envs" when the region
    #: emits environment dicts for a consumer operator; "sink" when it
    #: feeds aggregates' groups (one table per aggregate)
    kind: str
    #: number of plan operators folded into the function
    ops: int
    #: True when every expression in the region compiled to a direct
    #: closure (no interpreter callbacks)
    full: bool
    #: True when the region probes a hash join, whose build a
    #: ``memory_budget`` may spill: such a statement runs the operators'
    #: own ``run_batches`` instead (``PlanOp.batches``)
    hash_join: bool


def _cached_region(op: Any, key: Any, build: Callable[[], Any]) -> Any:
    """Memoize a generated region on plan node ``op`` in the ``_fused``
    slot — popped by ``PlanOp.__getstate__`` so generated functions are
    never pickled, and regenerated lazily on the next fused execution."""
    cache = op.__dict__.get("_fused")
    if cache is None:
        cache = op.__dict__["_fused"] = {}
    if key not in cache:
        cache[key] = build()
    return cache[key]


def fused_pipeline(op: Any, compiled: bool) -> Optional[FusedPipeline]:
    """The fused pipeline rooted at plan operator ``op``, or None when
    the subtree is not a fusable region.

    Cached on the plan node keyed by the execution's ``compiled`` flag
    (``compile_mode`` ablations each get a matching function: closure
    expressions in ``closure`` mode, interpreter callbacks in ``off``
    mode — the fusion ablation stays orthogonal to the expression one).
    """
    key = bool(compiled)
    return _cached_region(op, key, lambda: _build_fused(op, key))


def aggregate_sink(
    op: Any, aggregates: list, compiled: bool
) -> Optional[FusedPipeline]:
    """The aggregate sink over ``op`` — the lowered inner pipeline the
    global and partition ``aggregates`` share (``plan.shared_passes``) —
    or None when that pipeline is not a plain fusable body (no Project,
    no Aggregate).

    The generated loop evaluates each argument (and partition key)
    inline per row, skips null values, and returns one ``{key:
    [values]}`` table per aggregate, in order — what ``Evaluator.
    _precompute_aggregates`` otherwise builds by draining the
    pipeline's row snapshots once.
    """
    key = ("sink", bool(compiled), tuple(a.aggregate_id for a in aggregates))
    return _cached_region(
        op, key, lambda: _build_fused(op, bool(compiled), aggregates)
    )


def _build_fused(
    op: Any, compiled: bool, sink: Any = None
) -> Optional[FusedPipeline]:
    """Generate, ``exec``, and wrap the fused function for the region
    rooted at ``op`` (None when ``op`` roots no fusable region, or, for
    an aggregate ``sink``, no plain body)."""
    from repro.excess import plan

    ops = plan.fusable_ops(op)
    if ops is None:
        return None
    if sink is not None and any(
        isinstance(o, (plan.Project, plan.Aggregate)) for o in ops
    ):
        return None
    return _RegionGen(ops, compiled, sink).build()


class _RegionGen:
    """Source generator for one fused region (:func:`_build_fused`).

    The generated function runs the region's loops — the scan, then one
    nested ``for`` per path expansion — every filter conjunct, and the
    finish (projection with unique/sort keys, env snapshots, or an
    aggregate sink) as straight-line Python. Per-operator counters are
    accumulated in local integers and folded into each operator's
    ``OpStats`` in a ``finally``: ``opens`` once per call, or once per
    outer row for the inner side of a nested loop; ``rows_in`` from the
    child's counter; ``rows_out`` for every operator but the root,
    whose consumer counts it (a sink counts its root itself). Semantics —
    evaluation order, 3VL, error messages — mirror the row-mode
    operators byte for byte.
    """

    def __init__(self, ops: list, compiled: bool, sink: Optional[list]) -> None:
        from repro.excess import plan
        from repro.excess.evaluator import NULL_KEY, _SELF_KEYED, canonical_key

        self.plan = plan
        self.ops = ops
        self.compiled = compiled
        self.sink = sink
        root = ops[0]
        self.project = root if isinstance(root, plan.Project) else None
        self.aggregate = next(
            (o for o in ops if isinstance(o, plan.Aggregate)), None
        )
        self.ns: dict[str, Any] = {
            "NULL": NULL,
            "Ref": Ref,
            "ArrayInstance": ArrayInstance,
            "SetInstance": SetInstance,
            "TupleInstance": TupleInstance,
            "EvaluationError": EvaluationError,
            "canonical_key": canonical_key,
            "_SELF_KEYED": _SELF_KEYED,
            "_veq": value_equal,
            "_truth": _truth,
            "_ooid": _object_oid,
            "_MISS": _MISS,
            "_ONE": (None,),
            "_NULLKEY": NULL_KEY,
        }
        aggregates = {}
        if self.aggregate is not None:
            aggregates = {
                a.aggregate_id: a
                for a in self.aggregate.query.aggregates
                if a.mode != "correlated"
            }
        self.lowering = _ExprLowering(self.ns, compiled, aggregates)
        self.full = True
        self.n_closures = 0
        self.n_counters = 0
        #: env-emitting regions snapshot ``_row``; others need it only
        #: for a closure call
        self.uses_row = self.project is None and sink is None
        #: loop level → its variable name
        self.level_vars: list[str] = []
        #: loop level → what its ``for`` yields: "value" (any member,
        #: Refs re-checked per row), "ref" (a Ref of an object element)
        #: or "oid" (an index's OIDs)
        self.level_kinds: list[str] = []
        #: id(op) → the local counting its output rows (aliases share)
        self.counters: dict[int, str] = {}
        #: id(op) → the counter of rows that re-open it (the inner side
        #: of a nested loop opens once per outer row)
        self.opened_by: dict[int, str] = {}
        #: body lines: source text, or (level, indent) markers of each
        #: loop body's head, resolved once the whole body is known
        self.lines: list = []
        #: the region's hash joins, outermost first: their tables are
        #: read in this order before any row, as nested run_batches do
        self.joins: list = []

    # -- helpers ---------------------------------------------------------

    def emit(self, indent: str, text: str) -> None:
        self.lines.append(indent + text)

    def closure(self, node: BoundExpr) -> str:
        """Compile one expression into the namespace; returns its name."""
        entry = compile_expr(node, self.compiled)
        self.full = self.full and entry.full
        name = f"_fn{self.n_closures}"
        self.n_closures += 1
        self.ns[name] = entry.fn
        return name

    def value(self, node: BoundExpr, indent: str) -> str:
        """Emit ``node``'s evaluation; returns the name holding its value
        (a register, or a closure-call result)."""
        stmts, reg = self.lowering.lower(node, indent)
        if stmts is not None:
            self.lines.extend(stmts)
            return reg
        self.uses_row = True
        out = self.lowering.new_tmp()
        self.emit(indent, f"{out} = {self.closure(node)}(_row, ctx)")
        return out

    def count(self, op: Any, indent: str) -> None:
        name = f"_n{self.n_counters}"
        self.n_counters += 1
        self.counters[id(op)] = name
        self.emit(indent, f"{name} += 1")

    def open_loop(
        self, var: str, members: str, indent: str, kind: str = "value"
    ) -> str:
        """``for`` over ``members`` binding ``var`` at a new level of
        ``kind`` (:attr:`level_kinds`); returns the body indent."""
        level = len(self.level_vars)
        self.level_vars.append(var)
        self.level_kinds.append(kind)
        self.lowering.loop_vars[var] = level
        if kind != "value":
            self.lowering.typed.add(level)
        loop_var = f"_id{level}" if kind == "oid" else f"_m{level}"
        self.emit(indent, f"for {loop_var} in {members}:")
        body = indent + "    "
        self.lines.append((level, body))
        return body

    def loop_head(self, level: int, indent: str) -> list:
        """The first statements of loop ``level``'s body: skip a dead
        member of a typed level, the one dereference every inline read
        of the row shares, and the member's ``_row`` binding."""
        lowering = self.lowering
        kind = self.level_kinds[level]
        m, o = f"_m{level}", f"_o{level}"
        lines = []
        if kind == "value":
            if level in lowering.uses_object:
                lines.append(f"{o} = {m}")
                lines.append(f"if isinstance({o}, Ref):")
                lines.extend(_deref_lines(o, "    "))
                lines.append(f"elif not isinstance({o}, TupleInstance):")
                lines.append(f"    {o} = NULL")
        else:
            # a dead member is skipped before it is counted, exactly as
            # row mode's live-member list leaves it out
            oid = f"_id{level}" if kind == "oid" else f"{m}.oid"
            if level in lowering.uses_object:
                lines.append(f"{o} = _record({oid})")
                lines.append(f"if {o} is None:")
                lines.append("    continue")
                lines.append(f"{o} = {o}.value")
            else:
                lines.append(f"if {oid} not in _live:")
                lines.append("    continue")
            if kind == "oid" and (self.uses_row or level in lowering.uses_member):
                lines.append(f"{m} = Ref(_id{level})")
        if self.uses_row:
            lines.append(f"_row[{self.level_vars[level]!r}] = {m}")
        return [indent + line for line in lines]

    # -- region structure -------------------------------------------------

    def body(self, op: Any, indent: str, cont: Callable[[str], None]) -> None:
        """``Filter* source``: the source's loops, then the filters
        bottom-up, then ``cont`` at the surviving rows' indent."""
        plan = self.plan
        filters = []
        while isinstance(op, plan.Filter):
            filters.append(op)
            op = op.children[0]

        def after_source(inner: str) -> None:
            self.body_filters(filters, inner, cont)

        if isinstance(op, plan.NestedLoopJoin):
            self.nested_loop(op, indent, after_source)
        elif isinstance(op, plan.HashJoin):
            self.hash_join(op, indent, after_source)
        elif isinstance(op, plan.PathExpand):
            self.path_loop(op, indent, after_source)
        elif isinstance(op, plan.Singleton):
            # the aggregate-only region: one pass over the incoming env
            self.emit(indent, "for _m in _ONE:")
            self.count(op, indent + "    ")
            after_source(indent + "    ")
        else:
            self.scan(op, indent, after_source)

    def scan(self, op: Any, indent: str, cont: Callable[[str], None]) -> None:
        plan = self.plan
        partition = op if isinstance(op, plan.ExchangePartition) else None
        leaf = op.children[0] if partition is not None else op
        emit = self.emit
        if isinstance(leaf, plan.SeqScan):
            kind = "ref" if leaf.is_object else "value"
            self.ns["_set_name"] = leaf.set_name
            emit(indent, "_collection = _db.named(_set_name).value")
            emit(indent, "if isinstance(_collection, SetInstance):")
            emit(indent, f"    _members = {_set_members('_collection', kind)}")
            emit(indent, "elif isinstance(_collection, ArrayInstance):")
            emit(indent, "    _members = _collection.live_slots(_live)")
            emit(indent, "else:")
            emit(indent, '    raise EvaluationError(f"{_set_name!r} is not a collection")')
            if partition is not None:
                # range partitioning: slice the live member list row
                # mode slices before any row work — the whole saving of
                # a parallel scan (a passthrough when no worker shard is
                # active)
                self.ns["_live_of"] = plan._live_of
                emit(indent, "_ex = ctx.exchange")
                emit(indent, "if _ex is not None:")
                emit(indent, "    _members = _live_of(_collection, ctx)")
                emit(indent, "    _mn = len(_members)")
                emit(
                    indent,
                    "    _members = _members[(_ex.part * _mn) // _ex.dop"
                    " : ((_ex.part + 1) * _mn) // _ex.dop]",
                )
        else:  # IndexScan: an index holds OIDs only, so the level is typed
            kind = "oid"
            self.ns["_descriptor"] = leaf.descriptor
            emit(indent, f"_key = {self.closure(leaf.key_expr)}(env, ctx)")
            emit(indent, "if _key is NULL:")
            emit(indent, "    _members = ()")
            emit(indent, "else:")
            emit(indent, "    _index = _descriptor.index")
            if leaf.op == "=":
                emit(indent, "    _members = _index.search(_key)")
            else:
                emit(indent, '    if not getattr(_index, "supports_range", False):')
                emit(indent, "        raise EvaluationError(")
                emit(indent, '            "index does not support range scans"')
                emit(indent, "        )")
                if leaf.op in ("<", "<="):
                    include = "True" if leaf.op == "<=" else "False"
                    emit(
                        indent,
                        "    _pairs = _index.range_scan("
                        f"None, _key, include_high={include})",
                    )
                else:
                    include = "True" if leaf.op == ">=" else "False"
                    emit(
                        indent,
                        "    _pairs = _index.range_scan("
                        f"_key, None, include_low={include})",
                    )
                emit(indent, "    _members = [_oid for _k, _oid in _pairs]")
        inner = self.open_loop(leaf.var, "_members", indent, kind)
        self.count(leaf, inner)
        if partition is not None:
            # the partition's output equals the (already sliced) scan
            self.counters[id(partition)] = self.counters[id(leaf)]
        cont(inner)

    def nested_loop(
        self, join: Any, indent: str, cont: Callable[[str], None]
    ) -> None:
        """``NestedLoopJoin(body, Filter* PathExpand)``: the outer body's
        loops with the path loop nested at their surviving rows."""
        plan = self.plan
        outer, inner_top = join.children
        inner_filters = []
        expand = inner_top
        while isinstance(expand, plan.Filter):
            inner_filters.append(expand)
            expand = expand.children[0]

        def inner_side(at: str) -> None:
            # every inner operator re-opens once per outer row
            feed = self.counters[id(outer)]
            for inner_op in inner_filters + [expand]:
                self.opened_by[id(inner_op)] = feed

            def joined(row_indent: str) -> None:
                self.counters[id(join)] = self.counters[id(inner_top)]
                cont(row_indent)

            self.path_loop(
                expand,
                at,
                lambda body: self.body_filters(inner_filters, body, joined),
            )

        self.body(outer, indent, inner_side)

    def hash_join(
        self, join: Any, indent: str, cont: Callable[[str], None]
    ) -> None:
        """``HashJoin(body, build)``: the probe body's loops, the probe
        key per surviving row (mirroring ``plan.join_key``), then a
        ``for`` over the build members under that key."""
        n = len(self.joins)
        self.joins.append(join)
        emit = self.emit

        def probe(at: str) -> None:
            from repro.excess.evaluator import oid_keyed

            key = self.value(join.probe_key, at)
            hk = f"_hk{n}"
            if join.join_op == "is":
                # null keys take part (null is null); non-objects raise
                if oid_keyed(join.probe_key):
                    emit(at, f"{hk} = _NULLKEY if {key} is NULL else {key}.oid")
                else:
                    emit(at, f'{hk} = _join_key({key}, "is")')
            elif _family(join.probe_key) is not None:
                # a typed scalar is its own key: null and NaN are never
                # build keys (join_key drops them), so they find nothing
                hk = key
            else:
                emit(at, f'{hk} = _join_key({key}, "=")')
                emit(at, f"if {hk} is None:")
                emit(at, "    continue")
            # an object build member is a Ref of a live object: the table
            # is rebuilt after every write
            kind = "ref" if join.is_object else "value"
            body = self.open_loop(join.var, f"_tb{n}.get({hk}, ())", at, kind)
            self.count(join, body)
            cont(body)

        self.body(join.children[0], indent, probe)

    def path_loop(
        self, expand: Any, indent: str, cont: Callable[[str], None]
    ) -> None:
        """The ``for`` over a resolved path collection."""
        self.resolve_path(expand, indent)
        level = len(self.level_vars)
        kind = "ref" if expand.is_object else "value"
        body = self.open_loop(expand.var, f"_ms{level}", indent, kind)
        self.count(expand, body)
        cont(body)

    def body_filters(
        self, filters: list, indent: str, cont: Callable[[str], None]
    ) -> None:
        """Apply ``filters`` (top-down list) bottom-up, then ``cont``."""
        for flt in reversed(filters):
            for predicate in flt.predicates:
                stmts, test = self.lowering.lower(predicate, indent, test=True)
                if stmts is not None:
                    self.lines.extend(stmts)
                    self.emit(indent, f"if not ({test}):")
                else:
                    self.uses_row = True
                    name = self.closure(predicate)
                    self.emit(indent, f"if {name}(_row, ctx) is not True:")
                self.emit(indent, "    continue")
            self.count(flt, indent)
        cont(indent)

    def resolve_path(self, expand: Any, indent: str) -> None:
        """Mirror of ``PathExpand._resolve_collection`` into
        ``_ms<level>``: an array walks its live non-null slots, a set its
        live members (an object element's dead ones are skipped by the
        loop), and a null, dangling or non-object step yields no rows."""
        level = len(self.level_vars)
        emit = self.emit
        parent_level = self.lowering.loop_vars.get(expand.parent)
        # a typed parent is a live object: its first step needs no test
        live = parent_level in self.lowering.typed
        if parent_level is not None:
            self.lowering.uses_object.add(parent_level)
            emit(indent, f"_p = _o{parent_level}")
        else:
            emit(indent, f"_p = env.get({expand.parent!r})")
            emit(indent, "if isinstance(_p, Ref):")
            self.lines.extend(_deref_lines("_p", indent + "    "))
            if expand.specs is not None:
                # the typed steps take an object or NULL
                emit(indent, "elif not isinstance(_p, TupleInstance):")
                emit(indent, "    _p = NULL")
        if expand.specs is not None:
            self.typed_path(expand, level, live, indent)
            return
        for step in expand.steps:
            if live:
                self.lines.extend(_get_lines("_p", "_p", step, indent))
                emit(indent, "if isinstance(_p, Ref):")
                self.lines.extend(_deref_lines("_p", indent + "    "))
                live = False
                continue
            emit(indent, "if isinstance(_p, TupleInstance):")
            self.lines.extend(_get_lines("_p", "_p", step, indent + "    "))
            emit(indent, "    if isinstance(_p, Ref):")
            self.lines.extend(_deref_lines("_p", indent + "        "))
            emit(indent, "else:")
            emit(indent, "    _p = None")
        kind = "ref" if expand.is_object else "value"
        emit(indent, "if isinstance(_p, SetInstance):")
        emit(indent, f"    _ms{level} = {_set_members('_p', kind)}")
        emit(indent, "elif isinstance(_p, ArrayInstance):")
        emit(indent, f"    _ms{level} = _p.live_slots(_live)")
        emit(indent, "else:")
        emit(indent, f"    _ms{level} = ()")

    def typed_path(self, expand: Any, level: int, live: bool, indent: str) -> None:
        """:meth:`resolve_path` from the binder's step specs: ``_p``
        holds a TupleInstance or NULL, a step's slot holds what its spec
        says (a Ref or null for a reference, an instance or null
        otherwise), and the last step a set or array — no class tests."""
        emit = self.emit
        for step, spec in zip(expand.steps, expand.specs):
            at = indent
            if not live:
                emit(indent, "if _p is not NULL:")
                at = indent + "    "
            self.lines.extend(_get_lines("_p", "_p", step, at))
            if spec.semantics.is_object:
                emit(at, "if _p is not NULL:")
                self.lines.extend(_deref_lines("_p", at + "    "))
            live = False
        collection = expand.specs[-1].type
        if isinstance(collection, ArrayType):
            members = "_p.live_slots(_live)"
        else:
            kind = "ref" if expand.is_object else "value"
            members = _set_members("_p", kind)
        emit(indent, f"_ms{level} = () if _p is NULL else {members}")

    # -- finishes ---------------------------------------------------------

    def finish(self, indent: str) -> None:
        emit = self.emit
        if self.sink is not None:
            from repro.excess.evaluator import oid_keyed

            lowering = self.lowering
            for j, aggregate in enumerate(self.sink):
                value = self.value(aggregate.argument, indent)
                emit(indent, f"if {value} is not NULL:")
                inner = indent + "    "
                if aggregate.mode == "partition":
                    # the key is evaluated only for non-null values
                    lowering.cond_depth += 1
                    key = self.value(aggregate.inner_key, inner)
                    lowering.cond_depth -= 1
                    # evaluator.partition_key: one key function per aggregate
                    key = lowering.table_key(
                        key, aggregate.inner_key, oid_keyed(aggregate.inner_key)
                    )
                    emit(inner, f"_k = {key}")
                    emit(inner, f"_g = _groups{j}.get(_k)")
                    emit(inner, "if _g is None:")
                    emit(inner, f"    _groups{j}[_k] = [{value}]")
                    emit(inner, "else:")
                    emit(inner, f"    _g.append({value})")
                else:
                    emit(inner, f"_append{j}({value})")
            return
        project = self.project
        if project is None:
            emit(indent, "_append(dict(_row))")
            return
        # targets evaluate strictly left to right (each into its own
        # register) so mid-row errors fire in row-mode order
        regs = [self.value(t.expression, indent) for t in project.targets]
        emit(indent, f"_r = ({', '.join(regs)},)")
        if project.unique:
            from repro.excess.evaluator import oid_keyed

            keys = [
                self.lowering.table_key(reg, t.expression, oid_keyed(t.expression))
                for reg, t in zip(regs, project.targets)
            ]
            key = keys[0] if len(keys) == 1 else f"({', '.join(keys)})"
            emit(indent, f"_k = {key}")
            emit(indent, "if _k in _seen:")
            emit(indent, "    continue")
            emit(indent, "_seen.add(_k)")
        if project.order:
            keys = [self.value(expr, indent) for expr, _desc in project.order]
            emit(indent, f"_append((_r, ({', '.join(keys)},)))")
        else:
            emit(indent, "_append(_r)")

    # -- assembly ---------------------------------------------------------

    def build(self) -> FusedPipeline:
        plan = self.plan
        ops = self.ops
        root = ops[0]
        top = root
        if self.project is not None:
            top = top.children[0]
        if self.aggregate is not None:
            top = top.children[0]
        self.body(top, "        ", self.finish)
        if self.aggregate is not None:
            self.counters[id(self.aggregate)] = self.counters[id(top)]

        for position, region_op in enumerate(ops):
            self.ns[f"_st{position}"] = region_op.stats
        lines: list[str] = ["def _fused(ctx, env):"]
        emit = lines.append
        if self.sink is None:
            emit("    _out = []")
            emit("    _append = _out.append")
        for j, aggregate in enumerate(self.sink or ()):
            if aggregate.mode == "partition":
                emit(f"    _groups{j} = {{}}")
            else:
                emit(f"    _out{j} = []")
                emit(f"    _append{j} = _out{j}.append")
        for index in range(self.n_counters):
            emit(f"    _n{index} = 0")
        emit("    try:")
        emit("        _db = ctx.db")
        emit("        _params = ctx.params")
        # bound per call, never into the cached namespace: the object
        # table's store changes under checkpoint + reopen
        emit("        _store = ctx.objects.store")
        emit("        _live = _store.live")
        emit("        _record = _store.record")
        if self.aggregate is not None:
            # the tables must exist before any row is evaluated, exactly
            # as the row-mode Aggregate.open() precomputes them
            self.ns["_agg_op"] = self.aggregate
            emit("        ctx.evaluator._precompute_aggregates(_agg_op, env, ctx)")
        if self.joins:
            self.ns["_join_key"] = plan.join_key
        for n, join in enumerate(self.joins):
            # the build subtree runs as its own region (or its memo hits)
            self.ns[f"_hj{n}"] = join
            emit(f"        _tb{n} = _hj{n}._table_for(ctx)")
        if self.lowering.tables:
            emit("        _tables = ctx.tables")
        lines.extend("        " + line for line in self.lowering.prologue)
        if self.project is not None and self.project.unique:
            emit("        _seen = set()")
        if self.uses_row:
            emit("        _row = dict(env)")
        for line in self.lines:
            if isinstance(line, str):
                lines.append(line)
            else:
                lines.extend(self.loop_head(*line))

        # --- loop epilogue: cooperative cancellation point ----------------
        # a fused region materializes its whole output in one call, so the
        # statement deadline is checked once here, after every loop — the
        # region's cancellation granularity (documented in DESIGN §14)
        emit("        _gv = ctx.governor")
        emit("        if _gv is not None:")
        emit('            _gv.check_timeout("fused")')

        # --- fold the per-operator counters --------------------------------
        emit("    finally:")
        for position, region_op in enumerate(ops):
            st = f"_st{position}"
            emit(f"        {st}.opens += {self.opened_by.get(id(region_op), 1)}")
            if region_op.children:
                child = self.counters[id(region_op.children[0])]
                emit(f"        {st}.rows_in += {child}")
            if region_op is not root or self.sink is not None:
                emit(f"        {st}.rows_out += {self.counters[id(region_op)]}")
            if isinstance(region_op, plan.HashJoin):
                # one probe per outer row, whatever its key
                emit(f"        {st}.probes += {child}")
        if self.sink is None:
            emit("    return _out")
            kind = "rows" if self.project is not None else "envs"
        else:
            tables = [
                f"_groups{j}"
                if aggregate.mode == "partition"
                else f"({{(): _out{j}}} if _out{j} else {{}})"
                for j, aggregate in enumerate(self.sink)
            ]
            emit(f"    return [{', '.join(tables)}]")
            kind = "sink"

        source = "\n".join(lines)
        exec(compile(source, "<fused pipeline>", "exec"), self.ns)
        # taken out of its own globals, so the function and its namespace
        # (which holds the region's operators) form no reference cycle
        fn = self.ns.pop("_fused")
        return FusedPipeline(
            fn, source, kind, len(ops), self.full, bool(self.joins)
        )


#: "no entry" marker for aggregate-table lookups in generated code
_MISS = object()

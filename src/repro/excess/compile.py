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
dynamic dispatch), :class:`~repro.excess.binder.AggregateRef`
(precomputed partition tables), :class:`~repro.excess.binder.Membership`
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


#: compile-time dispatch: exact node class → handler (AdtCall,
#: AggregateRef, Membership, and anything unknown go through the fallback)
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
# Pipeline fusion: a whole Scan→Filter…→Project region as one generated
# Python function (exec'd once per plan, cached on the region root)
# ---------------------------------------------------------------------------


class _ExprLowering:
    """Statement-level lowering of simple bound expressions straight into
    fused-pipeline source, bypassing per-expression closure calls.

    Each supported shape is lowered to the same sequence of checks its
    closure compiler above performs — NULL propagation, liveness checks,
    3VL truth, and byte-identical error messages — so inline and closure
    evaluation are observably equivalent. ``lower`` returns
    ``(None, None)`` for any unsupported shape; the caller falls back to
    a closure call for that expression. Attribute reads off the scan
    variable share one dereference per row (``_obj``), which is safe
    because nothing can mutate the object store between two expression
    evaluations over the same row.
    """

    def __init__(self, ns: dict, scan_var: str, enabled: bool):
        self.ns = ns
        self.scan_var = scan_var
        self.enabled = enabled
        self.tmp = 0
        self.consts = 0
        #: True once any lowered expression read an attribute of the
        #: scan variable — the loop then hoists one deref per row
        self.uses_scan_object = False

    def new_tmp(self) -> str:
        self.tmp += 1
        return f"_t{self.tmp}"

    def lower(self, node: BoundExpr, indent: str):
        """``(statements, result_name)`` or ``(None, None)``."""
        if not self.enabled:
            return None, None
        buf: list[str] = []
        try:
            reg = self._lower(node, buf, indent)
        except _Unsupported:
            return None, None
        return buf, reg

    def _lower(self, node: BoundExpr, buf: list, i: str) -> str:
        if isinstance(node, Param):
            return f"_params[{node.slot}]"
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
        raise _Unsupported

    def _live_check(self, out: str, buf: list, i: str) -> None:
        buf.append(f"{i}if isinstance({out}, Ref) and not _alive({out}.oid):")
        buf.append(f"{i}    {out} = NULL")

    def _lower_var(self, node: VarRef, buf: list, i: str) -> str:
        if node.name == self.scan_var:
            # the scan yields only live members, and nothing dies while
            # this row's expressions run — skip the liveness re-check
            return "_member"
        out = self.new_tmp()
        buf.append(f"{i}{out} = env.get({node.name!r}, NULL)")
        self._live_check(out, buf, i)
        return out

    def _lower_attr(self, node: AttrStep, buf: list, i: str) -> str:
        out = self.new_tmp()
        base = node.base
        if isinstance(base, VarRef) and base.name == self.scan_var:
            self.uses_scan_object = True
            buf.append(f"{i}if _obj is NULL:")
            buf.append(f"{i}    {out} = NULL")
            buf.append(f"{i}else:")
            buf.append(f"{i}    {out} = _obj.get({node.attribute!r})")
            buf.append(
                f"{i}    if isinstance({out}, Ref) and not _alive({out}.oid):"
            )
            buf.append(f"{i}        {out} = NULL")
            return out
        base_reg = self._lower(base, buf, i)
        buf.append(f"{i}{out} = {base_reg}")
        buf.append(f"{i}if isinstance({out}, Ref):")
        buf.append(f"{i}    {out} = _deref({out}.oid)")
        buf.append(f"{i}    if {out} is None:")
        buf.append(f"{i}        {out} = NULL")
        buf.append(f"{i}    else:")
        buf.append(f"{i}        {out} = {out}.get({node.attribute!r})")
        buf.append(f"{i}elif isinstance({out}, TupleInstance):")
        buf.append(f"{i}    {out} = {out}.get({node.attribute!r})")
        buf.append(f"{i}else:")
        buf.append(f"{i}    {out} = NULL")
        self._live_check(out, buf, i)
        return out

    def _lower_binary(self, node: Binary, buf: list, i: str) -> str:
        if node.kind == "bool" and node.op in ("and", "or"):
            return self._lower_bool(node, buf, i)
        if node.kind == "object" and node.op in ("is", "isnot"):
            return self._lower_object(node, buf, i)
        left = self._lower(node.left, buf, i)
        right = self._lower(node.right, buf, i)
        out = self.new_tmp()
        if node.kind == "compare" and node.enum_labels is None:
            if node.op in ("<", "<=", ">", ">="):
                expr = f"{left} {node.op} {right}"
            elif node.op == "=":
                expr = f"_veq({left}, {right})"
            elif node.op == "!=":
                expr = f"not _veq({left}, {right})"
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
        if node.kind == "arith" and node.op in ("+", "-", "*", "/", "%"):
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

    def _lower_bool(self, node: Binary, buf: list, i: str) -> str:
        left = self._lower(node.left, buf, i)
        out = self.new_tmp()
        lt = self.new_tmp()
        buf.append(f"{i}{lt} = _truth({left})")
        decided = "False" if node.op == "and" else "True"
        buf.append(f"{i}if {lt} is {decided}:")
        buf.append(f"{i}    {out} = {decided}")
        buf.append(f"{i}else:")
        inner: list[str] = []
        right = self._lower(node.right, inner, i + "    ")
        buf.extend(inner)
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


class FusedPipeline(NamedTuple):
    """One fused pipeline region, ready to run."""

    #: ``fn(ctx, env) -> list`` — materializes the region's whole output
    fn: Callable[[Any, dict], list]
    #: the generated Python source (``plan.pipeline_sources`` prepends
    #: the region's operator descriptions for ``Result.pipeline_source``)
    source: str
    #: "rows" when the region root is a Project (emits result tuples, or
    #: ``(row, sort_keys)`` pairs under a Sort); "envs" when the region
    #: emits environment dicts for a consumer operator
    kind: str
    #: number of plan operators folded into the function
    ops: int
    #: True when every expression in the region compiled to a direct
    #: closure (no interpreter callbacks)
    full: bool


def fused_pipeline(op: Any, compiled: bool) -> Optional[FusedPipeline]:
    """The fused pipeline rooted at plan operator ``op``, or None when
    the subtree is not a fusable region.

    Cached on the plan node keyed by the execution's ``compiled`` flag
    (``compile_mode`` ablations each get a matching function: closure
    expressions in ``closure`` mode, interpreter callbacks in ``off``
    mode — the fusion ablation stays orthogonal to the expression one).
    The cache behaves exactly like the ``_compiled`` expression caches:
    popped by ``PlanOp.__getstate__`` so generated functions are never
    pickled, regenerated lazily on the next fused execution.
    """
    cache = op.__dict__.get("_fused")
    if cache is None:
        cache = {}
        op.__dict__["_fused"] = cache
    key = bool(compiled)
    if key not in cache:
        cache[key] = _build_fused(op, key)
    return cache[key]


def _build_fused(op: Any, compiled: bool) -> Optional[FusedPipeline]:
    """Generate, ``exec``, and wrap the fused function for the region
    rooted at ``op`` (None when ``op`` roots no fusable region).

    The generated function runs the scan loop, every filter conjunct,
    and the projection (targets, unique, sort keys) as straight-line
    Python over **one** shared environment dict mutated in place — no
    per-operator generator handoff, no per-row env copying on the
    Project-rooted path. Per-operator counters are accumulated in local
    integers and folded into the region's ``OpStats`` in a ``finally``
    (the region root's ``rows_out`` is counted by its consumer, like
    every batch producer). Semantics — evaluation order, 3VL, error
    messages — mirror the row-mode operators byte for byte.
    """
    from repro.excess import plan
    from repro.excess.evaluator import canonical_key

    chain = plan.fusable_ops(op)
    if chain is None:
        return None
    project = chain[0] if isinstance(chain[0], plan.Project) else None
    filters = [o for o in chain if isinstance(o, plan.Filter)]
    partition = next(
        (o for o in chain if isinstance(o, plan.ExchangePartition)), None
    )
    leaf = chain[-1]
    # execution order: scan, then the range partition (a member-list
    # slice, active only under a worker shard), then filters bottom-up,
    # then the projection
    filters_exec = list(reversed(filters))
    exec_chain: list = [leaf]
    if partition is not None:
        exec_chain.append(partition)
    exec_chain.extend(filters_exec)
    if project is not None:
        exec_chain.append(project)

    full = True
    n_closures = 0
    ns: dict[str, Any] = {
        "NULL": NULL,
        "Ref": Ref,
        "ArrayInstance": ArrayInstance,
        "SetInstance": SetInstance,
        "TupleInstance": TupleInstance,
        "EvaluationError": EvaluationError,
        "canonical_key": canonical_key,
        "_veq": value_equal,
        "_truth": _truth,
        "_ooid": _object_oid,
    }

    def closure(node: BoundExpr) -> str:
        """Compile one expression into the namespace; returns its name."""
        nonlocal full, n_closures
        entry = compile_expr(node, compiled)
        full = full and entry.full
        name = f"_fn{n_closures}"
        n_closures += 1
        ns[name] = entry.fn
        return name

    for position, region_op in enumerate(exec_chain):
        ns[f"_st{position}"] = region_op.stats

    lines: list[str] = []
    emit = lines.append
    emit("def _fused(ctx, env):")
    emit("    _out = []")
    emit("    _append = _out.append")
    # output counters for every non-root stage (the root's rows_out is
    # counted by the consumer pulling the batches)
    n_counters = len(exec_chain) - 1
    for index in range(n_counters):
        emit(f"    _n{index} = 0")
    emit("    try:")
    emit("        _db = ctx.db")
    emit("        _params = ctx.params")
    emit("        _objects = ctx.objects")
    emit("        _deref = _objects.deref")
    emit("        _alive = _objects.is_live")

    # --- row source -------------------------------------------------------
    if isinstance(leaf, plan.SeqScan):
        ns["_set_name"] = leaf.set_name
        emit("        _collection = _db.named(_set_name).value")
        emit("        if isinstance(_collection, ArrayInstance):")
        emit("            _members = [")
        emit("                _s for _s in _collection")
        emit("                if _s is not NULL")
        emit("                and not (isinstance(_s, Ref) and not _alive(_s.oid))")
        emit("            ]")
        emit("        elif isinstance(_collection, SetInstance):")
        emit("            _members = _db.integrity.live_members(_collection)")
        emit("        else:")
        emit('            raise EvaluationError(f"{_set_name!r} is not a collection")')
        if partition is not None:
            # range partitioning: slice the member list before any row
            # work — the whole saving of a parallel scan (a passthrough
            # when no worker shard is active)
            emit("        _ex = ctx.exchange")
            emit("        if _ex is not None:")
            emit("            _members = list(_members)")
            emit("            _mn = len(_members)")
            emit(
                "            _members = _members[(_ex.part * _mn) // _ex.dop"
                " : ((_ex.part + 1) * _mn) // _ex.dop]"
            )
    else:  # IndexScan
        ns["_descriptor"] = leaf.descriptor
        key_name = closure(leaf.key_expr)
        emit(f"        _key = {key_name}(env, ctx)")
        emit("        if _key is NULL:")
        emit("            _members = []")
        emit("        else:")
        emit("            _index = _descriptor.index")
        if leaf.op == "=":
            emit("            _oids = _index.search(_key)")
        else:
            emit('            if not getattr(_index, "supports_range", False):')
            emit("                raise EvaluationError(")
            emit('                    "index does not support range scans"')
            emit("                )")
            if leaf.op in ("<", "<="):
                include = "True" if leaf.op == "<=" else "False"
                emit(
                    "            _pairs = _index.range_scan("
                    f"None, _key, include_high={include})"
                )
            else:
                include = "True" if leaf.op == ">=" else "False"
                emit(
                    "            _pairs = _index.range_scan("
                    f"_key, None, include_low={include})"
                )
            emit("            _oids = [_oid for _k, _oid in _pairs]")
        emit("            _members = [Ref(_o) for _o in _oids if _alive(_o)]")

    # --- fused loop -------------------------------------------------------
    var = leaf.var
    if len(exec_chain) == 1:
        # bare scan region: rows are retained by the consumer, so each
        # needs its own snapshot (no shared-row optimization possible)
        emit("        for _member in _members:")
        emit("            _row = dict(env)")
        emit(f"            _row[{var!r}] = _member")
        emit("            _append(_row)")
    else:
        # assemble the loop body first: expressions lower to inline
        # statements where possible (tracking whether any of them needs
        # the per-row _obj deref or the _row dict for a closure call)
        lowering = _ExprLowering(ns, var, compiled)
        pad = "            "
        body: list[str] = []
        uses_row = project is None  # env-emitting regions snapshot _row

        def value_stmts(node: BoundExpr) -> str:
            """Lower ``node`` into ``body``; returns the name holding
            its value (a register, or a closure-call result)."""
            nonlocal uses_row
            stmts, reg = lowering.lower(node, pad)
            if stmts is not None:
                body.extend(stmts)
                return reg
            uses_row = True
            name = closure(node)
            out = lowering.new_tmp()
            body.append(f"{pad}{out} = {name}(_row, ctx)")
            return out

        counter_base = 1 if partition is None else 2
        for findex, flt in enumerate(filters_exec):
            for predicate in flt.predicates:
                stmts, reg = lowering.lower(predicate, pad)
                if stmts is not None:
                    body.extend(stmts)
                    body.append(f"{pad}if {reg} is not True:")
                else:
                    uses_row = True
                    pred_name = closure(predicate)
                    body.append(f"{pad}if {pred_name}(_row, ctx) is not True:")
                body.append(f"{pad}    continue")
            if findex + counter_base < n_counters:
                body.append(f"{pad}_n{findex + counter_base} += 1")
        if project is None:
            # Filter-rooted region: emit surviving envs as snapshots
            body.append(f"{pad}_append(dict(_row))")
        else:
            # targets evaluate strictly left to right (each into its own
            # register) so mid-row errors fire in row-mode order
            target_regs = [
                value_stmts(t.expression) for t in project.targets
            ]
            if len(target_regs) == 1:
                body.append(f"{pad}_r = ({target_regs[0]},)")
            else:
                body.append(f"{pad}_r = ({', '.join(target_regs)})")
            if project.unique:
                body.append(f"{pad}_k = tuple(map(canonical_key, _r))")
                body.append(f"{pad}if _k in _seen:")
                body.append(f"{pad}    continue")
                body.append(f"{pad}_seen.add(_k)")
            if project.order:
                order_regs = [
                    value_stmts(expr) for expr, _desc in project.order
                ]
                if len(order_regs) == 1:
                    body.append(f"{pad}_append((_r, ({order_regs[0]},)))")
                else:
                    body.append(f"{pad}_append((_r, ({', '.join(order_regs)})))")
            else:
                body.append(f"{pad}_append(_r)")

        if project is not None and project.unique:
            emit("        _seen = set()")
        if uses_row:
            emit("        _row = dict(env)")
        emit("        for _member in _members:")
        if uses_row:
            emit(f"            _row[{var!r}] = _member")
        emit("            _n0 += 1")
        if partition is not None and n_counters > 1:
            # the partition's output equals the (already sliced) scan
            emit("            _n1 += 1")
        if lowering.uses_scan_object:
            # one dereference of the scan member shared by every inline
            # attribute read of this row
            emit("            _obj = _member")
            emit("            if isinstance(_obj, Ref):")
            emit("                _obj = _deref(_obj.oid)")
            emit("                if _obj is None:")
            emit("                    _obj = NULL")
            emit("            elif not isinstance(_obj, TupleInstance):")
            emit("                _obj = NULL")
        lines.extend(body)

    # --- loop epilogue: cooperative cancellation point --------------------
    # a fused region materializes its whole output in one call, so the
    # statement deadline is checked once here, after the loop — the
    # region's cancellation granularity (documented in DESIGN §14)
    emit("        _gv = ctx.governor")
    emit("        if _gv is not None:")
    emit('            _gv.check_timeout("fused")')

    # --- fold the per-operator counters ----------------------------------
    emit("    finally:")
    for position, region_op in enumerate(exec_chain):
        emit(f"        _st{position}.opens += 1")
        if position > 0:
            emit(f"        _st{position}.rows_in += _n{position - 1}")
        if position < n_counters:
            emit(f"        _st{position}.rows_out += _n{position}")
    emit("    return _out")

    source = "\n".join(lines)
    exec(compile(source, "<fused pipeline>", "exec"), ns)
    kind = "rows" if project is not None else "envs"
    return FusedPipeline(ns["_fused"], source, kind, len(chain), full)

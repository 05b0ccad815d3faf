"""EXCESS functions: derived data attached to schema types (paper §4.2.1).

A function is defined with an EXCESS retrieve body over its parameters
(``define function Pay (E in Employee) returns float8 as retrieve
(E.salary + E.bonus)``) and invoked either with call syntax ``Pay(E)`` or
— because the binder treats a function of one object the way it treats an
attribute — as a derived attribute. Functions are **side-effect free**
(bodies are retrieves only; updates through functions are not permitted),
are **inherited** through the type lattice, and may be **redefined** for
a subtype: dispatch is dynamic on the first argument's runtime type,
like C++ virtual member functions, unless the function was declared
``fixed`` (the paper's non-virtual case).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from repro.core.schema import SchemaType
from repro.core.types import ComponentSpec, SetType, Type
from repro.core.values import NULL, SetInstance
from repro.errors import EvaluationError, FunctionError
from repro.excess import ast_nodes as ast
from repro.excess.binder import Binder, BoundRetrieve, Scope, VarRef

if TYPE_CHECKING:  # pragma: no cover
    from repro.excess.evaluator import Evaluator

__all__ = ["FunctionParam", "ExcessFunction", "bind_function_body", "call_function"]


@dataclass(frozen=True)
class FunctionParam:
    """One function parameter: its name, component spec, and whether it
    is an object parameter (``V in Type``) or a value parameter."""

    name: str
    spec: ComponentSpec

    @property
    def is_object(self) -> bool:
        """True for ``V in Type`` object parameters."""
        return self.spec.semantics.is_object


@dataclass
class ExcessFunction:
    """A registered EXCESS function."""

    name: str
    #: schema type the function attaches to (the first parameter's type)
    type_name: str
    params: list[FunctionParam]
    returns: ComponentSpec
    body: ast.Retrieve
    fixed: bool = False
    replace: bool = False
    #: cached bound body (rebuilt lazily, excluded from snapshots)
    bound: Optional[BoundRetrieve] = field(default=None, repr=False, compare=False)
    #: catalog epoch ``bound`` was made under; a moved epoch rebinds
    #: (class-level default, so old snapshots load)
    bound_epoch: int = field(default=-1, repr=False, compare=False)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["bound"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    @property
    def result_type(self) -> Type:
        """The function's declared result type."""
        return self.returns.type

    @property
    def returns_object(self) -> bool:
        """True when the function returns an object reference."""
        return self.returns.semantics.is_object

    @property
    def returns_set(self) -> bool:
        """True when the function returns a set of values."""
        return isinstance(self.returns.type, SetType)


def parameter_scope(function: ExcessFunction) -> Scope:
    """Build the binding scope exposing the function's parameters."""
    scope = Scope()
    for param in function.params:
        scope.parameters[param.name] = VarRef(
            name=f"@{param.name}",
            type=param.spec.type,
            is_object=param.is_object,
        )
    return scope


def bind_function_body(function: ExcessFunction, binder: Binder) -> BoundRetrieve:
    """Bind (and cache) the function's retrieve body.

    The body binds in a scope that exposes only the parameters plus the
    catalog — session range variables are not visible inside function
    bodies, keeping them self-contained. A body bound under an older
    catalog epoch is rebound.
    """
    epoch = binder.catalog.epoch
    if function.bound is None or function.bound_epoch != epoch:
        scope = parameter_scope(function)
        bound = binder.bind_retrieve(function.body, outer_scope=scope)
        if len(bound.targets) != 1:
            raise FunctionError(
                f"function {function.name!r}: the body must have exactly one "
                "target expression"
            )
        function.bound = bound
        function.bound_epoch = epoch
    return function.bound


def call_function(
    evaluator: "Evaluator",
    name: str,
    fixed_function: Optional[ExcessFunction],
    args: list,
) -> Any:
    """Invoke an EXCESS function with already-evaluated arguments.

    Dispatch is dynamic on the first argument's runtime type unless a
    ``fixed`` function was statically resolved. A null first argument
    yields null (a derived attribute of nothing is nothing).
    """
    catalog = evaluator.db.catalog
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
        function = catalog.lookup_function(instance.type, name)
        if function is None:
            raise EvaluationError(
                f"no function {name!r} for type {instance.type.name!r}"
            )
    if len(args) != len(function.params):
        raise EvaluationError(
            f"function {function.name!r} takes {len(function.params)} "
            f"arguments, got {len(args)}"
        )
    # §4.2.3: functions are grantable units; the caller needs execute.
    # The body itself then runs with definer rights (no inner checks).
    if evaluator.db.authz.enabled:
        from repro.authz.grants import Privilege

        evaluator.db.authz.check(
            evaluator.user, Privilege.EXECUTE, function.name
        )
    binder = Binder(catalog)
    bound = bind_function_body(function, binder)
    env = {
        f"@{param.name}": value for param, value in zip(function.params, args)
    }
    result = evaluator.run_retrieve(bound, base_env=env)
    values = [row[0] for row in result.rows]
    if function.returns_set:
        out = SetInstance(function.returns.type)  # type: ignore[arg-type]
        for value in values:
            if value is not NULL:
                out.insert(value)
        return out
    if not values:
        return NULL
    if len(values) > 1:
        raise EvaluationError(
            f"function {function.name!r} returned {len(values)} values but "
            "is declared scalar"
        )
    return values[0]

"""EXCESS procedures: generalized IDM stored commands (paper §4.2.2).

A procedure packages an update statement with parameters::

    define procedure Raise (E in Employee, amt: float8) as
        replace E (salary = E.salary + amt)

and is invoked with ``execute Raise (E, 100.0) from E in Employees where
E.dept.floor = 2``. The paper's generalization over IDM stored commands
is exactly the from/where clause: parameters are bound by the invocation
query and the body runs once for **all possible bindings** rather than
once with constant arguments.

Procedures run with *definer* rights, which is what makes the paper's
encapsulation-through-authorization story work: granting ``execute`` on
a procedure without granting access to the sets it touches exposes only
the procedure's behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.errors import ProcedureError
from repro.excess import ast_nodes as ast
from repro.excess.binder import Binder, Scope, VarRef
from repro.excess.functions import FunctionParam
from repro.excess.result import Result

if TYPE_CHECKING:  # pragma: no cover
    from repro.excess.evaluator import Evaluator

__all__ = ["Procedure", "bind_procedure_body", "run_procedure"]


@dataclass
class Procedure:
    """A stored procedure: parameters plus one body statement."""

    name: str
    params: list[FunctionParam]
    body: ast.Statement
    #: user who defined the procedure (definer-rights execution)
    definer: str = "dba"
    #: cached bound body (rebuilt lazily, excluded from snapshots)
    bound: Any = field(default=None, repr=False, compare=False)
    #: catalog epoch ``bound`` was made under; a moved epoch rebinds
    #: (class-level default, so old snapshots load)
    bound_epoch: int = field(default=-1, repr=False, compare=False)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["bound"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)


def _parameter_scope(procedure: Procedure) -> Scope:
    scope = Scope()
    for param in procedure.params:
        scope.parameters[param.name] = VarRef(
            name=f"@{param.name}",
            type=param.spec.type,
            is_object=param.is_object,
        )
    return scope


def bind_procedure_body(procedure: Procedure, binder: Binder) -> Any:
    """Bind (and cache) the procedure's body statement; a body bound
    under an older catalog epoch is rebound, so schema changes since
    raise the same bind errors as the text typed ad hoc."""
    epoch = binder.catalog.epoch
    if procedure.bound is not None and procedure.bound_epoch == epoch:
        return procedure.bound
    scope = _parameter_scope(procedure)
    body = procedure.body
    if isinstance(body, ast.Replace):
        bound = ("replace", binder.bind_replace(body, outer_scope=scope))
    elif isinstance(body, ast.Append):
        bound = ("append", binder.bind_append(body, outer_scope=scope))
    elif isinstance(body, ast.Delete):
        bound = ("delete", binder.bind_delete(body, outer_scope=scope))
    elif isinstance(body, ast.SetStatement):
        bound = ("set", binder.bind_set(body, outer_scope=scope))
    elif isinstance(body, ast.Retrieve):
        bound = ("retrieve", binder.bind_retrieve(body, outer_scope=scope))
    else:
        raise ProcedureError(
            f"procedure {procedure.name!r}: unsupported body statement "
            f"{type(body).__name__}"
        )
    procedure.bound = bound
    procedure.bound_epoch = epoch
    return bound


def run_procedure(
    evaluator: "Evaluator",
    procedure: Procedure,
    bindings: list[dict],
    binder: Binder,
) -> Result:
    """Run the procedure body once per parameter binding.

    ``bindings`` is the list of parameter environments produced by the
    ``execute`` statement's from/where clauses (one entry per qualifying
    binding, each mapping ``@param`` to its value).
    """
    kind, bound = bind_procedure_body(procedure, binder)
    total = 0
    rows: list[tuple] = []
    columns: list[str] = []
    for env in bindings:
        if kind == "replace":
            result = evaluator.run_replace(bound, base_env=env)
        elif kind == "append":
            result = evaluator.run_append(bound, base_env=env)
        elif kind == "delete":
            result = evaluator.run_delete(bound, base_env=env)
        elif kind == "set":
            result = evaluator.run_set(bound, base_env=env)
        else:
            result = evaluator.run_retrieve(bound, base_env=env)
            columns = result.columns
            rows.extend(result.rows)
        total += result.count if kind != "retrieve" else len(result.rows)
    return Result(
        kind="execute",
        columns=columns,
        rows=rows,
        count=total,
        message=(
            f"executed {procedure.name!r} for {len(bindings)} binding(s), "
            f"{total} row(s) affected"
        ),
    )

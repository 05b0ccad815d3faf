"""Abstract syntax trees for EXCESS statements and expressions.

Nodes are plain dataclasses; every node carries a source position for
error reporting. The grammar reconstruction decisions are documented in
DESIGN.md §4 — constructs the paper *shows* are verbatim; constructs it
only *describes* use the closest QUEL-style spelling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Union

__all__ = [
    "Node",
    "Expression",
    "Statement",
    # expressions
    "Literal",
    "NullLiteral",
    "Path",
    "PathStep",
    "AttributeStep",
    "IndexStep",
    "SuffixPath",
    "BinaryOp",
    "UnaryOp",
    "FunctionCall",
    "Aggregate",
    "SetMembership",
    "TypeExpr",
    "BaseTypeExpr",
    "NamedTypeExpr",
    "EnumTypeExpr",
    "SetTypeExpr",
    "ArrayTypeExpr",
    "TupleTypeExpr",
    "ComponentExpr",
    # statements
    "DefineType",
    "RenameClause",
    "AttributeDecl",
    "CreateNamed",
    "DestroyNamed",
    "RangeDecl",
    "FromClause",
    "TargetItem",
    "Retrieve",
    "SortKey",
    "SetOperation",
    "Explain",
    "Append",
    "Assignment",
    "Delete",
    "Replace",
    "SetStatement",
    "DefineFunction",
    "ParamDecl",
    "DefineProcedure",
    "ExecuteProcedure",
    "CreateIndex",
    "DropIndex",
    "GrantStatement",
    "RevokeStatement",
    "CreateUser",
    "CreateGroup",
    "AddToGroup",
    "AlterType",
    "BeginTransaction",
    "CommitTransaction",
    "AbortTransaction",
    "Script",
]


@dataclass
class Node:
    """Base class: every AST node knows its source line/column."""

    line: int = field(default=0, kw_only=True)
    column: int = field(default=0, kw_only=True)


class Expression(Node):
    """Marker base for expression nodes."""


class Statement(Node):
    """Marker base for statement nodes."""


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Literal(Expression):
    """An integer, float, string, or boolean literal."""

    value: Any = None
    #: position among the script's ``INT``/``FLOAT``/``STRING`` tokens
    #: (the lexer's :meth:`~repro.excess.lexer.Lexer.shape` numbering);
    #: ``None`` for ``true``/``false``
    slot: Optional[int] = field(default=None, compare=False, repr=False)


@dataclass
class NullLiteral(Expression):
    """The ``null`` keyword."""


@dataclass
class PathStep(Node):
    """Marker base for path steps."""


@dataclass
class AttributeStep(PathStep):
    """``.name`` — attribute access (dereferencing refs implicitly)."""

    name: str = ""


@dataclass
class IndexStep(PathStep):
    """``[expr]`` — 1-based array indexing."""

    index: Expression = None  # type: ignore[assignment]


@dataclass
class Path(Expression):
    """A path expression: a root name followed by steps.

    The root may be a range variable, a named database object, or a
    function/procedure parameter — the binder decides which.
    """

    root: str = ""
    steps: list[PathStep] = field(default_factory=list)

    def dotted(self) -> str:
        """Human-readable rendering, e.g. ``Employees.dept.floor``."""
        out = self.root
        for step in self.steps:
            if isinstance(step, AttributeStep):
                out += f".{step.name}"
            else:
                out += "[...]"
        return out


@dataclass
class SuffixPath(Expression):
    """Path steps applied to a non-name base expression, e.g.
    ``Workplace(E).dname`` — attribute/index steps after a call."""

    base: Expression = None  # type: ignore[assignment]
    steps: list[PathStep] = field(default_factory=list)


@dataclass
class BinaryOp(Expression):
    """An infix operation, including comparison, boolean connectives,
    ``is`` / ``isnot``, and user-registered ADT operators."""

    op: str = ""
    left: Expression = None  # type: ignore[assignment]
    right: Expression = None  # type: ignore[assignment]


@dataclass
class UnaryOp(Expression):
    """A prefix operation: ``not``, ``-``, or a user prefix operator."""

    op: str = ""
    operand: Expression = None  # type: ignore[assignment]


@dataclass
class FunctionCall(Expression):
    """``Name(args)`` — an ADT function, ADT constructor, EXCESS function
    (symmetric syntax), or iterator function; the binder resolves which."""

    name: str = ""
    args: list[Expression] = field(default_factory=list)


@dataclass
class Aggregate(Expression):
    """``agg(expr [over path] [where pred])`` — a set function applied
    either globally (QUEL simple aggregate), partitioned by the ``over``
    path (paper §3.4), or over a set-valued path argument."""

    name: str = ""
    argument: Expression = None  # type: ignore[assignment]
    over: Optional[Path] = None
    where: Optional[Expression] = None


@dataclass
class SetMembership(Expression):
    """``expr in path`` / ``path contains expr`` membership tests."""

    element: Expression = None  # type: ignore[assignment]
    collection: Path = None  # type: ignore[assignment]
    negated: bool = False


# ---------------------------------------------------------------------------
# Type expressions (DDL)
# ---------------------------------------------------------------------------


@dataclass
class TypeExpr(Node):
    """Marker base for type expressions."""


@dataclass
class BaseTypeExpr(TypeExpr):
    """A predefined base type, e.g. ``int4`` or ``char(20)``."""

    name: str = ""
    param: Optional[int] = None


@dataclass
class NamedTypeExpr(TypeExpr):
    """A schema type or ADT referenced by name."""

    name: str = ""


@dataclass
class EnumTypeExpr(TypeExpr):
    """``enum (a, b, c)``."""

    labels: list[str] = field(default_factory=list)


@dataclass
class ComponentExpr(Node):
    """``[own | ref | own ref] <type-expr>`` — a component spec."""

    semantics: str = "own"  # "own" | "ref" | "own ref"
    type: TypeExpr = None  # type: ignore[assignment]


@dataclass
class SetTypeExpr(TypeExpr):
    """``{ component }``."""

    element: ComponentExpr = None  # type: ignore[assignment]


@dataclass
class ArrayTypeExpr(TypeExpr):
    """``[n] component`` (fixed) or ``[] component`` (variable)."""

    element: ComponentExpr = None  # type: ignore[assignment]
    length: Optional[int] = None


@dataclass
class TupleTypeExpr(TypeExpr):
    """``( name: component, ... )`` — an anonymous tuple type."""

    attributes: list["AttributeDecl"] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class AttributeDecl(Node):
    """One attribute declaration inside ``define type``."""

    name: str = ""
    component: ComponentExpr = None  # type: ignore[assignment]


@dataclass
class RenameClause(Node):
    """``rename Parent.attr to new_name``."""

    parent: str = ""
    attribute: str = ""
    new_name: str = ""


@dataclass
class DefineType(Statement):
    """``define type T as ( ... ) [inherits A, B] [with rename ...]``."""

    name: str = ""
    attributes: list[AttributeDecl] = field(default_factory=list)
    parents: list[str] = field(default_factory=list)
    renames: list[RenameClause] = field(default_factory=list)


@dataclass
class CreateNamed(Statement):
    """``create <component> <Name> [key (a, b)]``."""

    name: str = ""
    component: ComponentExpr = None  # type: ignore[assignment]
    key: list[str] = field(default_factory=list)


@dataclass
class DestroyNamed(Statement):
    """``destroy <Name>``."""

    name: str = ""


@dataclass
class RangeDecl(Statement):
    """``range of V is <path>`` — a session-level range declaration.

    ``universal`` marks ``range of V is every <path>`` (paper §3.2:
    EXCESS "provides support for universal quantification" in range
    statements; keyword spelling is RECONSTRUCTED).
    """

    variable: str = ""
    source: Union[Path, FunctionCall] = None  # type: ignore[assignment]
    universal: bool = False


@dataclass
class FromClause(Node):
    """``from V in <path>`` — a query-local range binding."""

    variable: str = ""
    source: Union[Path, FunctionCall] = None  # type: ignore[assignment]
    universal: bool = False


@dataclass
class TargetItem(Node):
    """One target-list element: ``[name =] expr``."""

    expression: Expression = None  # type: ignore[assignment]
    label: Optional[str] = None


@dataclass
class SortKey(Node):
    """One ``sort by`` key: an expression plus direction."""

    expression: Expression = None  # type: ignore[assignment]
    descending: bool = False


@dataclass
class Retrieve(Statement):
    """``retrieve [into Name] (targets) [from ...] [where ...]
    [sort by key [asc|desc], ...]``.

    ``unique`` renders ``retrieve unique`` duplicate elimination; the
    ``sort by`` clause is QUEL's result ordering.
    """

    targets: list[TargetItem] = field(default_factory=list)
    into: Optional[str] = None
    from_clauses: list[FromClause] = field(default_factory=list)
    where: Optional[Expression] = None
    unique: bool = False
    order: list[SortKey] = field(default_factory=list)


@dataclass
class Assignment(Node):
    """``attr = expr`` inside append/replace."""

    attribute: str = ""
    expression: Expression = None  # type: ignore[assignment]


@dataclass
class Append(Statement):
    """``append [to] <path> ( assignments | expr ) [from ...] [where ...]``."""

    target: Path = None  # type: ignore[assignment]
    assignments: list[Assignment] = field(default_factory=list)
    #: single-expression form, e.g. ``append to Team (E)``
    expression: Optional[Expression] = None
    from_clauses: list[FromClause] = field(default_factory=list)
    where: Optional[Expression] = None


@dataclass
class Delete(Statement):
    """``delete V [from ...] [where ...]``."""

    variable: str = ""
    from_clauses: list[FromClause] = field(default_factory=list)
    where: Optional[Expression] = None


@dataclass
class Replace(Statement):
    """``replace <path> ( assignments ) [from ...] [where ...]``."""

    target: Path = None  # type: ignore[assignment]
    assignments: list[Assignment] = field(default_factory=list)
    from_clauses: list[FromClause] = field(default_factory=list)
    where: Optional[Expression] = None


@dataclass
class SetStatement(Statement):
    """``set <path> = expr [from ...] [where ...]`` — assignment to a
    named singleton or an array slot (RECONSTRUCTED spelling)."""

    target: Path = None  # type: ignore[assignment]
    expression: Expression = None  # type: ignore[assignment]
    from_clauses: list[FromClause] = field(default_factory=list)
    where: Optional[Expression] = None


@dataclass
class ParamDecl(Node):
    """A function/procedure parameter: ``V in Type`` (object parameter)
    or ``name : <component>`` (value parameter)."""

    name: str = ""
    type_name: Optional[str] = None  # "V in Type" form
    component: Optional[ComponentExpr] = None  # "name : spec" form


@dataclass
class DefineFunction(Statement):
    """``define [fixed] function F (V in T, ...) returns <spec> as
    retrieve (...)``; ``fixed`` opts out of virtual dispatch (paper
    compares to non-virtual C++ member functions)."""

    name: str = ""
    params: list[ParamDecl] = field(default_factory=list)
    returns: ComponentExpr = None  # type: ignore[assignment]
    body: Retrieve = None  # type: ignore[assignment]
    fixed: bool = False
    replace: bool = False


@dataclass
class DefineProcedure(Statement):
    """``define procedure P (params) as <update-statement>``."""

    name: str = ""
    params: list[ParamDecl] = field(default_factory=list)
    body: Statement = None  # type: ignore[assignment]


@dataclass
class ExecuteProcedure(Statement):
    """``execute P (args) [from ...] [where ...]`` — the where clause
    binds parameters and the body runs for *all* bindings (paper §4.2.2)."""

    name: str = ""
    args: list[Expression] = field(default_factory=list)
    from_clauses: list[FromClause] = field(default_factory=list)
    where: Optional[Expression] = None


@dataclass
class CreateIndex(Statement):
    """``create index on <Set> (attr) [using hash|btree]``."""

    set_name: str = ""
    attribute: str = ""
    kind: str = "btree"


@dataclass
class DropIndex(Statement):
    """``drop index on <Set> (attr) [using hash|btree]``."""

    set_name: str = ""
    attribute: str = ""
    kind: str = "btree"


@dataclass
class GrantStatement(Statement):
    """``grant <priv> on <Name> to <principal>``."""

    privilege: str = ""
    object_name: str = ""
    principal: str = ""


@dataclass
class RevokeStatement(Statement):
    """``revoke <priv> on <Name> from <principal>``."""

    privilege: str = ""
    object_name: str = ""
    principal: str = ""


@dataclass
class CreateUser(Statement):
    """``create user <name>``."""

    name: str = ""


@dataclass
class CreateGroup(Statement):
    """``create group <name>``."""

    name: str = ""


@dataclass
class AddToGroup(Statement):
    """``add <user-or-group> to group <name>``."""

    member: str = ""
    group: str = ""


@dataclass
class SetOperation(Statement):
    """``retrieve ... union|intersect|minus retrieve ...`` — combines the
    row sets of two or more retrieves (left-associative). RECONSTRUCTED
    extension: the paper treats sets as first-class and QUEL descendants
    commonly add these combinators."""

    #: the first retrieve
    left: "Retrieve" = None  # type: ignore[assignment]
    #: subsequent ("union"|"intersect"|"minus", retrieve) terms, in order
    terms: list[tuple] = field(default_factory=list)


@dataclass
class Explain(Statement):
    """``explain <query-statement>`` — bind and optimize without
    executing; the result rows describe the chosen plan."""

    statement: Statement = None  # type: ignore[assignment]


@dataclass
class AlterType(Statement):
    """``alter type T add (a: spec, ...) drop (b, ...)`` — schema
    evolution (the paper's §6 future work, implemented)."""

    name: str = ""
    adds: list[AttributeDecl] = field(default_factory=list)
    drops: list[str] = field(default_factory=list)


@dataclass
class BeginTransaction(Statement):
    """``begin [transaction]`` — open a snapshot transaction."""


@dataclass
class CommitTransaction(Statement):
    """``commit`` — make the open transaction permanent."""


@dataclass
class AbortTransaction(Statement):
    """``abort`` — roll the open transaction back."""


@dataclass
class Analyze(Statement):
    """``analyze [<SetName>]`` — rebuild optimizer statistics from a
    scan of one named set (or of every named set).

    A reconstructed spelling: the paper presumes the EXODUS optimizer's
    tabular cost information exists (§4.1.3) but never shows the
    statement that gathers it.
    """

    set_name: Optional[str] = None


@dataclass
class Script(Node):
    """A sequence of statements separated by newlines/semicolons."""

    statements: list[Statement] = field(default_factory=list)

"""Semantic analysis for EXCESS: name resolution, implicit-join and
nested-set expansion, aggregate scoping, and type checking.

The binder turns parsed AST into *bound* trees the planner and evaluator
consume. The semantically interesting work, all from paper §3:

* **Implicit joins** (GEM/DAPLEX heritage): a path step through a ``ref``
  or ``own ref`` attribute silently dereferences — ``E.dept.floor``
  expands to a traversal, not a user-visible join.
* **Nested sets / path syntax**: a path rooted at a *named set* used in
  an expression introduces an implicit range variable over that set,
  shared by every path with the same root in the query — this is exactly
  how ``retrieve (C.name) from C in Employees.kids where
  Employees.dept.floor = 2`` correlates ``C`` with its employee.
  Traversing a set-valued attribute mid-path introduces an implicit
  variable over the nested set.
* **Aggregates**: ``agg(expr)`` is a QUEL *simple* aggregate — its range
  variables are local (decoupled from the outer query). ``agg(expr over
  path [where p])`` is a partitioned aggregate: partitions are computed
  over local clones of the variables, and the outer query looks its
  partition up by evaluating the ``over`` path in the *outer* binding —
  giving the paper's "partitioning on attributes from one level of a
  complex object while partitioning on attributes from other levels".
  A set-valued path argument (``count(E.kids)``) makes the aggregate
  *correlated*: computed per outer binding over the nested set.
* **Universal quantification**: ``every`` range variables may appear only
  in the where clause; the query keeps a binding of the remaining
  variables iff the predicate holds for *all* values of the universal
  variables.
* **Object vs value comparison**: ``is``/``isnot`` are the only legal
  comparisons on references; ``=`` on references is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.adt.generics import GenericSetFunction, IteratorFunction
from repro.core.catalog import Catalog
from repro.core.schema import SchemaType
from repro.core.types import (
    ArrayType,
    BOOLEAN,
    ComponentSpec,
    FLOAT8,
    INT4,
    Semantics,
    SetType,
    TEXT,
    TupleType,
    Type,
    common_numeric_type,
    is_numeric,
)
from repro.errors import BindError
from repro.excess import ast_nodes as ast

__all__ = [
    "BoundExpr",
    "Const",
    "Param",
    "ParamSlots",
    "VarRef",
    "NamedValue",
    "StepExpr",
    "AttrStep",
    "IndexStepB",
    "Binary",
    "Unary",
    "AdtCall",
    "ExcessCall",
    "AggregateRef",
    "Membership",
    "BindingSource",
    "NamedSetSource",
    "PathSource",
    "IteratorSource",
    "RangeBinding",
    "BoundAggregate",
    "BoundQuery",
    "BoundTarget",
    "BoundRetrieve",
    "CollectionTarget",
    "BoundAppend",
    "BoundDelete",
    "BoundReplace",
    "BoundSetStatement",
    "Binder",
    "Scope",
]


# ---------------------------------------------------------------------------
# Bound expression nodes
# ---------------------------------------------------------------------------


@dataclass
class BoundExpr:
    """Base bound expression; ``type`` is the static type when known."""

    type: Optional[Type] = field(default=None, kw_only=True)
    #: True when the expression denotes a first-class object (a reference)
    is_object: bool = field(default=False, kw_only=True)


@dataclass
class Const(BoundExpr):
    """A literal constant (value is the Python value, or NULL)."""

    value: Any = None


class ParamSlots:
    """What the front end learned about one statement's literal slots
    (the lexer's numbering) while binding and planning it; shared by the
    statement's :class:`Param` nodes and read by the plan cache."""

    __slots__ = ("seen", "pinned", "sensitive")

    def __init__(self) -> None:
        #: slots the binder turned into a :class:`Param`
        self.seen: set[int] = set()
        #: slots whose value some front-end stage looked at
        self.pinned: set[int] = set()
        #: ``(slot, set name, attribute, op)`` for every slot whose value
        #: the cost model turned into a selectivity estimate
        self.sensitive: set[tuple[int, str, str, str]] = set()

    def free(self, slot: int) -> bool:
        """True when a plan prepared with one value of ``slot`` is the
        plan for every value of the same literal kind."""
        return slot in self.seen and slot not in self.pinned


class Param(Const):
    """A literal lifted into a parameter slot: evaluates to
    ``ctx.params[slot]``, so one prepared plan serves every statement of
    the same shape.

    Still a :class:`Const` for every ``isinstance`` site.  Reading
    :attr:`value` answers with the value the plan was prepared with and
    *pins* the slot: whatever the reader derived from it holds for that
    value only, so the plan cache keys the slot by value from then on.
    Execution reads ``ctx.params``; display reads :attr:`first`.
    """

    def __init__(self, slot: int, first: Any, type: Type, slots: ParamSlots):
        self.type = type
        self.is_object = False
        self.slot = slot
        self.first = first
        self.slots = slots
        slots.seen.add(slot)

    @property
    def value(self) -> Any:  # type: ignore[override]
        self.slots.pinned.add(self.slot)
        return self.first

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return f"Param(slot={self.slot}, first={self.first!r})"


@dataclass
class VarRef(BoundExpr):
    """The current member of a range binding."""

    name: str = ""


@dataclass
class NamedValue(BoundExpr):
    """The stored value of a named non-set database object."""

    name: str = ""


@dataclass
class AttrStep(BoundExpr):
    """Attribute access (with implicit dereference of references)."""

    base: BoundExpr = None  # type: ignore[assignment]
    attribute: str = ""


@dataclass
class IndexStepB(BoundExpr):
    """1-based array indexing."""

    base: BoundExpr = None  # type: ignore[assignment]
    index: BoundExpr = None  # type: ignore[assignment]


#: alias used by planner/evaluator pattern matching
StepExpr = (AttrStep, IndexStepB)


@dataclass
class Binary(BoundExpr):
    """A built-in binary operation (arithmetic, comparison, boolean,
    string concatenation, or object equality)."""

    op: str = ""
    left: BoundExpr = None  # type: ignore[assignment]
    right: BoundExpr = None  # type: ignore[assignment]
    #: "arith" | "compare" | "bool" | "object" | "concat"
    kind: str = "arith"
    #: for comparisons over enumeration values: the labels in declaration
    #: order (enums order by ordinal, not lexicographically)
    enum_labels: Optional[tuple[str, ...]] = None


@dataclass
class Unary(BoundExpr):
    """``not`` or numeric negation."""

    op: str = ""
    operand: BoundExpr = None  # type: ignore[assignment]


@dataclass
class AdtCall(BoundExpr):
    """A resolved ADT function (or operator) invocation."""

    function: Any = None  # AdtFunction
    args: list[BoundExpr] = field(default_factory=list)


@dataclass
class ExcessCall(BoundExpr):
    """An EXCESS function invocation (dispatched through the lattice at
    run time unless the resolved function is ``fixed``)."""

    name: str = ""
    args: list[BoundExpr] = field(default_factory=list)
    #: statically resolved function for fixed dispatch (else None)
    fixed_function: Any = None


@dataclass
class AggregateRef(BoundExpr):
    """A reference to a bound aggregate; evaluation looks the value up in
    the precomputed partition table (or computes inline when correlated)."""

    aggregate_id: int = 0
    #: over-path evaluated in the *outer* environment (partitioned mode)
    outer_key: Optional[BoundExpr] = None


@dataclass
class Membership(BoundExpr):
    """``expr in collection`` / ``collection contains expr``."""

    element: BoundExpr = None  # type: ignore[assignment]
    collection: "CollectionTarget" = None  # type: ignore[assignment]
    negated: bool = False
    #: set by the optimizer: the collection is a named set whose member
    #: keys the evaluator may materialize once per execution (semi-join)
    semi_join: bool = False


# ---------------------------------------------------------------------------
# Range bindings
# ---------------------------------------------------------------------------


@dataclass
class BindingSource:
    """Base class for range binding sources."""


@dataclass
class NamedSetSource(BindingSource):
    """Iterate the live members of a named set."""

    set_name: str = ""


@dataclass
class PathSource(BindingSource):
    """Iterate a set-valued path under a parent binding.

    ``steps`` are attribute names leading from the parent's member to the
    nested set; intermediate references are dereferenced; intermediate
    *sets* are not allowed here (they get their own binding instead).
    """

    parent: str = ""
    steps: list[str] = field(default_factory=list)


@dataclass
class IteratorSource(BindingSource):
    """Iterate the values produced by a registered iterator function."""

    function: IteratorFunction = None  # type: ignore[assignment]
    args: list[BoundExpr] = field(default_factory=list)


@dataclass
class RangeBinding:
    """One iteration unit of a query."""

    name: str
    source: BindingSource
    element: ComponentSpec
    universal: bool = False
    implicit: bool = False
    #: single-variable predicates pushed down by the optimizer
    residual: list[BoundExpr] = field(default_factory=list)
    #: chosen access method ("scan" | "index"), set by the optimizer
    access: str = "scan"
    index_descriptor: Any = None
    index_op: str = ""
    index_key: Optional[BoundExpr] = None
    index_high: Optional[BoundExpr] = None
    #: join strategy for this binding ("loop" | "hash"), set by the
    #: optimizer; "hash" means the evaluator builds a hash table over this
    #: binding's source keyed by ``hash_build_key`` and probes it with
    #: ``hash_probe_key`` (evaluated in the outer environment) instead of
    #: rescanning the source per outer row
    join_strategy: str = "loop"
    hash_build_key: Optional[BoundExpr] = None
    hash_probe_key: Optional[BoundExpr] = None
    #: the join conjunct's operator ("=" value join, "is" object join) —
    #: decides null-key handling when building/probing the hash table
    hash_join_op: str = "="
    #: human-readable join annotation for EXPLAIN
    join_detail: str = ""
    #: cost-model annotations stamped by the optimizer and consumed by
    #: plan lowering (``None`` when the optimizer did not run — lowering
    #: then falls back to structural defaults): rows out of the access
    #: method, rows after residual filters, and cumulative rows at this
    #: binding's join operator
    est_base_rows: Optional[int] = None
    est_rows: Optional[int] = None
    est_cum_rows: Optional[int] = None

    @property
    def element_type(self) -> Type:
        """The member type this binding iterates over."""
        return self.element.type


@dataclass
class BoundAggregate:
    """One aggregate occurrence in a query.

    ``mode`` is ``"global"`` (simple aggregate, one value), ``"partition"``
    (over-aggregate: table keyed by the over expression), or
    ``"correlated"`` (computed per outer binding over nested sets).
    """

    aggregate_id: int
    function: GenericSetFunction
    mode: str
    argument: BoundExpr
    #: iteration local to the aggregate (clones / nested bindings)
    inner_bindings: list[RangeBinding] = field(default_factory=list)
    where: Optional[BoundExpr] = None
    #: grouping key evaluated in the aggregate's inner environment
    inner_key: Optional[BoundExpr] = None
    #: for correlated mode: outer variables the evaluation depends on
    outer_deps: list[str] = field(default_factory=list)
    #: the aggregate's inner iteration as a query (lazily built and
    #: lowered by the evaluator; reset when the optimizer re-annotates)
    inner_query: Optional["BoundQuery"] = field(
        default=None, repr=False, compare=False
    )


@dataclass
class BoundTarget:
    """One target-list column."""

    label: str
    expression: BoundExpr


@dataclass
class BoundQuery:
    """The bound core shared by retrieve and all update statements."""

    bindings: list[RangeBinding] = field(default_factory=list)
    where: Optional[BoundExpr] = None
    aggregates: list[BoundAggregate] = field(default_factory=list)
    #: the lowered physical plan (binding pipeline); attached lazily by
    #: the executor, reset by the optimizer when annotations change
    plan: Optional[Any] = field(default=None, repr=False, compare=False)
    #: cost-model estimate of the pipeline's final row count (after the
    #: remaining where clause), stamped by the optimizer
    est_rows: Optional[int] = None


@dataclass
class BoundRetrieve:
    """A bound ``retrieve`` statement."""

    query: BoundQuery
    targets: list[BoundTarget]
    into: Optional[str] = None
    unique: bool = False
    #: sort keys: (expression, descending)
    order: list[tuple[BoundExpr, bool]] = field(default_factory=list)
    #: the full lowered pipeline (StoreInto?/Sort?/Project over the
    #: query's binding pipeline); attached lazily, reset on re-optimize
    pipeline: Optional[Any] = field(default=None, repr=False, compare=False)


@dataclass
class CollectionTarget:
    """Locates a collection: a named set/array, or a set-valued path under
    a binding, or a named singleton's set attribute."""

    #: "named" | "path"
    kind: str
    name: str = ""
    base: Optional[BoundExpr] = None
    steps: list[str] = field(default_factory=list)
    element: Optional[ComponentSpec] = None


@dataclass
class BoundAppend:
    """A bound ``append`` statement."""

    query: BoundQuery
    target: CollectionTarget
    assignments: list[tuple[str, BoundExpr]] = field(default_factory=list)
    expression: Optional[BoundExpr] = None


@dataclass
class BoundDelete:
    """A bound ``delete`` statement."""

    query: BoundQuery
    variable: str = ""


@dataclass
class BoundReplace:
    """A bound ``replace`` statement."""

    query: BoundQuery
    target: BoundExpr = None  # type: ignore[assignment]
    assignments: list[tuple[str, BoundExpr]] = field(default_factory=list)


@dataclass
class BoundSetStatement:
    """A bound ``set`` statement; ``location`` describes the slot."""

    query: BoundQuery
    #: ("named", name) | ("slot", base_expr, attribute) | ("index", base_expr, index_expr)
    location: tuple = ()
    expression: BoundExpr = None  # type: ignore[assignment]


@dataclass
class BoundAnalyze:
    """A bound ``analyze`` statement (``set_name=None`` = every set)."""

    set_name: Optional[str] = None


# ---------------------------------------------------------------------------
# Scope
# ---------------------------------------------------------------------------


class Scope:
    """Names visible while binding one query: range variables (explicit,
    implicit, universal) and function/procedure parameters."""

    def __init__(self, parent: Optional["Scope"] = None):
        self.parent = parent
        self.bindings: dict[str, RangeBinding] = {}
        #: parameters: name → BoundExpr placeholder (ParamRef as VarRef)
        self.parameters: dict[str, BoundExpr] = {}
        self.order: list[RangeBinding] = []

    def declare(self, binding: RangeBinding) -> RangeBinding:
        """Add a range binding to this scope."""
        if binding.name in self.bindings:
            raise BindError(f"range variable {binding.name!r} declared twice")
        self.bindings[binding.name] = binding
        self.order.append(binding)
        return binding

    def lookup(self, name: str) -> Optional[RangeBinding]:
        """Find a binding here or in an enclosing scope."""
        scope: Optional[Scope] = self
        while scope is not None:
            if name in scope.bindings:
                return scope.bindings[name]
            scope = scope.parent
        return None

    def lookup_parameter(self, name: str) -> Optional[BoundExpr]:
        """Find a parameter placeholder here or in an enclosing scope."""
        scope: Optional[Scope] = self
        while scope is not None:
            if name in scope.parameters:
                return scope.parameters[name]
            scope = scope.parent
        return None

    def local_bindings(self) -> list[RangeBinding]:
        """Bindings declared in this scope, in declaration order."""
        return list(self.order)


# ---------------------------------------------------------------------------
# The binder
# ---------------------------------------------------------------------------


class Binder:
    """Binds AST statements against a catalog and session range table."""

    def __init__(
        self,
        catalog: Catalog,
        session_ranges: Optional[dict[str, ast.RangeDecl]] = None,
        slots: Optional[ParamSlots] = None,
    ):
        self.catalog = catalog
        #: when given, numbered literals of the statement being bound
        #: become :class:`Param` nodes reporting to it (the plan-cache
        #: path); without it every literal is a plain :class:`Const`
        self.slots = slots
        #: session-level `range of V is ...` declarations (QUEL keeps them
        #: until redefined)
        self.session_ranges = session_ranges if session_ranges is not None else {}
        self._aggregate_counter = 0

    # -- statement entry points ----------------------------------------------------

    def bind_analyze(self, statement: ast.Analyze) -> BoundAnalyze:
        """Validate an ``analyze`` statement's target."""
        if statement.set_name is not None:
            named = self.catalog.named(statement.set_name)  # raises if unknown
            if not named.is_set:
                raise BindError(
                    f"analyze: {statement.set_name!r} is not a named set"
                )
        return BoundAnalyze(set_name=statement.set_name)

    def bind_retrieve(
        self, statement: ast.Retrieve, outer_scope: Optional[Scope] = None
    ) -> BoundRetrieve:
        """Bind a retrieve statement (also used for function bodies)."""
        scope, query = self._new_query_scope(statement.from_clauses, outer_scope)
        targets: list[BoundTarget] = []
        for index, item in enumerate(statement.targets):
            expression = self.bind_expression(item.expression, scope, query)
            label = item.label or self._default_label(item.expression, index)
            targets.append(BoundTarget(label=label, expression=expression))
        if statement.where is not None:
            query.where = self._bind_predicate(statement.where, scope, query)
        order: list[tuple[BoundExpr, bool]] = []
        for key in statement.order:
            bound_key = self.bind_expression(key.expression, scope, query)
            order.append((bound_key, key.descending))
        self._finalize(scope, query)
        for target in targets:
            self._reject_universal(target.expression, scope, "a target list")
        for bound_key, _descending in order:
            self._reject_universal(bound_key, scope, "a sort clause")
        self._prune_bindings(
            query, [t.expression for t in targets] + [k for k, _d in order]
        )
        return BoundRetrieve(
            query=query,
            targets=targets,
            into=statement.into,
            unique=statement.unique,
            order=order,
        )

    def bind_append(
        self, statement: ast.Append, outer_scope: Optional[Scope] = None
    ) -> BoundAppend:
        """Bind an append statement."""
        scope, query = self._new_query_scope(statement.from_clauses, outer_scope)
        target = self._bind_collection_target(statement.target, scope, query)
        assignments: list[tuple[str, BoundExpr]] = []
        expression: Optional[BoundExpr] = None
        element_type = target.element.type if target.element else None
        if statement.assignments:
            if not isinstance(element_type, TupleType):
                raise BindError(
                    f"append with assignments requires a tuple-element "
                    f"collection, got {element_type}"
                )
            for assignment in statement.assignments:
                if not element_type.has_attribute(assignment.attribute):
                    raise BindError(
                        f"append: {element_type.describe()} has no attribute "
                        f"{assignment.attribute!r}"
                    )
                bound = self.bind_expression(assignment.expression, scope, query)
                assignments.append((assignment.attribute, bound))
        elif statement.expression is not None:
            expression = self.bind_expression(statement.expression, scope, query)
        else:
            raise BindError("append requires assignments or an expression")
        if statement.where is not None:
            query.where = self._bind_predicate(statement.where, scope, query)
        self._finalize(scope, query)
        return BoundAppend(
            query=query,
            target=target,
            assignments=assignments,
            expression=expression,
        )

    def bind_delete(
        self, statement: ast.Delete, outer_scope: Optional[Scope] = None
    ) -> BoundDelete:
        """Bind a delete statement."""
        scope, query = self._new_query_scope(statement.from_clauses, outer_scope)
        binding = self._resolve_range_variable(statement.variable, scope, query)
        if binding.universal:
            raise BindError("cannot delete through a universal range variable")
        if statement.where is not None:
            query.where = self._bind_predicate(statement.where, scope, query)
        self._finalize(scope, query)
        return BoundDelete(query=query, variable=binding.name)

    def bind_replace(
        self, statement: ast.Replace, outer_scope: Optional[Scope] = None
    ) -> BoundReplace:
        """Bind a replace statement."""
        scope, query = self._new_query_scope(statement.from_clauses, outer_scope)
        target = self.bind_expression(statement.target, scope, query)
        target_type = target.type
        if not isinstance(target_type, TupleType):
            raise BindError(
                f"replace target must denote tuple objects, got {target_type}"
            )
        assignments: list[tuple[str, BoundExpr]] = []
        for assignment in statement.assignments:
            if not target_type.has_attribute(assignment.attribute):
                raise BindError(
                    f"replace: {target_type.describe()} has no attribute "
                    f"{assignment.attribute!r}"
                )
            bound = self.bind_expression(assignment.expression, scope, query)
            spec = target_type.attribute(assignment.attribute)
            self._check_assignable(spec, bound, assignment.attribute)
            assignments.append((assignment.attribute, bound))
        if statement.where is not None:
            query.where = self._bind_predicate(statement.where, scope, query)
        self._finalize(scope, query)
        return BoundReplace(query=query, target=target, assignments=assignments)

    def bind_set(
        self, statement: ast.SetStatement, outer_scope: Optional[Scope] = None
    ) -> BoundSetStatement:
        """Bind a set (slot assignment) statement."""
        scope, query = self._new_query_scope(statement.from_clauses, outer_scope)
        location = self._bind_location(statement.target, scope, query)
        expression = self.bind_expression(statement.expression, scope, query)
        if statement.where is not None:
            query.where = self._bind_predicate(statement.where, scope, query)
        self._finalize(scope, query)
        return BoundSetStatement(
            query=query, location=location, expression=expression
        )

    # -- scopes and ranges ----------------------------------------------------------

    def _new_query_scope(
        self,
        from_clauses: Sequence[ast.FromClause],
        outer_scope: Optional[Scope],
    ) -> tuple[Scope, BoundQuery]:
        scope = Scope(parent=outer_scope)
        query = BoundQuery()
        for clause in from_clauses:
            self._declare_range(
                clause.variable, clause.source, clause.universal, scope, query
            )
        return scope, query

    def _declare_range(
        self,
        variable: str,
        source: ast.Expression,
        universal: bool,
        scope: Scope,
        query: BoundQuery,
    ) -> RangeBinding:
        binding_source, element = self._bind_range_source(source, scope, query)
        binding = RangeBinding(
            name=variable,
            source=binding_source,
            element=element,
            universal=universal,
        )
        return scope.declare(binding)

    def _bind_range_source(
        self, source: ast.Expression, scope: Scope, query: BoundQuery
    ) -> tuple[BindingSource, ComponentSpec]:
        """Resolve a range specification to a binding source."""
        if isinstance(source, ast.FunctionCall):
            iterator = self.catalog.set_functions.lookup_iterator(source.name)
            if iterator is None:
                raise BindError(
                    f"unknown iterator function {source.name!r} in range "
                    "specification"
                )
            if iterator.arity != len(source.args):
                raise BindError(
                    f"iterator {source.name!r} takes {iterator.arity} arguments"
                )
            args = [self.bind_expression(a, scope, query) for a in source.args]
            element = ComponentSpec(Semantics.OWN, iterator.element_type)
            return IteratorSource(function=iterator, args=args), element
        if not isinstance(source, ast.Path):
            raise BindError("range specification must be a path or iterator call")
        root = source.root
        steps = source.steps
        # Case 1: path rooted at a range variable (e.g. `range of C is E.kids`).
        # A bare named-set name always means the set itself, even when an
        # implicit variable over that set already exists in scope.
        root_binding = scope.lookup(root)
        if root_binding is not None and steps:
            return self._bind_nested_source(
                root_binding.name, root_binding.element_type, steps
            )
        if root_binding is not None and not self.catalog.has_named(root):
            raise BindError(
                f"range specification {root!r} is a range variable, not a set"
            )
        # Case 1b: rooted at a function/procedure parameter (e.g. the
        # body `retrieve (C.age) from C in P.kids`).
        parameter = scope.lookup_parameter(root)
        if parameter is not None and steps:
            param_type = parameter.type if parameter.type is not None else TEXT
            return self._bind_nested_source(f"@{root}", param_type, steps)
        # Case 2: rooted at a named object.
        if self.catalog.has_named(root):
            named = self.catalog.named(root)
            if isinstance(named.spec.type, (SetType, ArrayType)) and not steps:
                # named sets and named arrays both iterate directly
                return NamedSetSource(set_name=root), named.spec.type.element
            if isinstance(named.spec.type, SetType):
                # e.g. `Employees.kids`: implicit binding over Employees,
                # nested iteration over the remaining path.
                implicit = self._implicit_set_binding(root, scope, query)
                return self._bind_nested_source(
                    implicit.name, implicit.element_type, steps
                )
            raise BindError(
                f"range specification {root!r} does not denote a set"
            )
        # Case 3: a session-level range variable used before this query.
        if root in self.session_ranges:
            binding = self._declare_session_range(root, scope, query)
            if steps:
                return self._bind_nested_source(
                    binding.name, binding.element_type, steps
                )
            return binding.source, binding.element
        raise BindError(f"unknown range specification root {root!r}")

    def _bind_nested_source(
        self,
        parent_name: str,
        parent_type: Type,
        steps: Sequence[ast.PathStep],
    ) -> tuple[BindingSource, ComponentSpec]:
        """Bind ``parent.attr1.attr2...`` as a nested-set source."""
        if not steps:
            raise BindError("nested range specification requires a path")
        current: Type = parent_type
        names: list[str] = []
        element: Optional[ComponentSpec] = None
        for index, step in enumerate(steps):
            if not isinstance(step, ast.AttributeStep):
                raise BindError(
                    "array indexing is not supported in range specifications"
                )
            if not isinstance(current, TupleType):
                raise BindError(
                    f"path step {step.name!r} applies to a non-tuple type "
                    f"{current}"
                )
            spec = current.attribute(step.name)
            names.append(step.name)
            if isinstance(spec.type, (SetType, ArrayType)):
                if index != len(steps) - 1:
                    raise BindError(
                        "only the final step of a range path may be a "
                        f"collection (step {step.name!r} is not last); bind "
                        "intermediate collections to their own range variables"
                    )
                element = spec.type.element
            else:
                current = spec.type
        if element is None:
            raise BindError(
                "range specification path must end at a set- or array-valued "
                "attribute"
            )
        return PathSource(parent=parent_name, steps=names), element

    def _implicit_set_binding(
        self, set_name: str, scope: Scope, query: BoundQuery
    ) -> RangeBinding:
        """Find or create the implicit range variable for a named set used
        as a path root (shared across the query)."""
        existing = scope.lookup(set_name)
        if existing is not None:
            return existing
        named = self.catalog.named(set_name)
        assert isinstance(named.spec.type, SetType)
        binding = RangeBinding(
            name=set_name,
            source=NamedSetSource(set_name=set_name),
            element=named.spec.type.element,
            implicit=True,
        )
        return scope.declare(binding)

    def _declare_session_range(
        self, variable: str, scope: Scope, query: BoundQuery
    ) -> RangeBinding:
        """Materialize a session-level range declaration into this query."""
        declared = self.session_ranges[variable]
        # the declaration was parsed as another statement: its literal
        # slots are that statement's numbering, never this one's
        slots, self.slots = self.slots, None
        try:
            return self._declare_range(
                variable, declared.source, declared.universal, scope, query
            )
        finally:
            self.slots = slots

    def _resolve_range_variable(
        self, variable: str, scope: Scope, query: BoundQuery
    ) -> RangeBinding:
        """A variable that *must* denote a range binding (delete target,
        paths), materializing session ranges on demand."""
        binding = scope.lookup(variable)
        if binding is not None:
            return binding
        if variable in self.session_ranges:
            return self._declare_session_range(variable, scope, query)
        raise BindError(f"unknown range variable {variable!r}")

    def _finalize(self, scope: Scope, query: BoundQuery) -> None:
        """Order the query's bindings: parents before dependents, in
        declaration order otherwise."""
        ordered: list[RangeBinding] = []
        placed: set[str] = set()
        pending = scope.local_bindings()
        while pending:
            progressed = False
            for binding in list(pending):
                parent = (
                    binding.source.parent
                    if isinstance(binding.source, PathSource)
                    else None
                )
                if parent is None or parent in placed or scope.lookup(parent) not in pending:
                    ordered.append(binding)
                    placed.add(binding.name)
                    pending.remove(binding)
                    progressed = True
            if not progressed:  # pragma: no cover - cycles are impossible
                raise BindError("cyclic range dependencies")
        query.bindings = ordered

    def _prune_bindings(
        self, query: BoundQuery, expressions: list[BoundExpr]
    ) -> None:
        """Drop outer bindings referenced only inside aggregates.

        QUEL semantics: a range variable appearing only within an
        aggregate is local to it — ``retrieve (count(E.salary))`` yields
        one row, not one per employee. Bindings referenced by the target
        list, the where clause, an aggregate's outer (``over``) key, or a
        correlated aggregate's outer dependencies stay, along with their
        (transitive) path parents.
        """
        used: set[str] = set()
        for expression in expressions:
            used |= self._bound_var_names(expression)
        if query.where is not None:
            used |= self._bound_var_names(query.where)
        for aggregate in query.aggregates:
            if aggregate.mode == "correlated":
                used |= set(aggregate.outer_deps)
        changed = True
        while changed:
            changed = False
            for binding in query.bindings:
                if binding.name in used and isinstance(binding.source, PathSource):
                    if binding.source.parent not in used:
                        used.add(binding.source.parent)
                        changed = True
        query.bindings = [b for b in query.bindings if b.name in used]

    # -- expressions -------------------------------------------------------------------

    def bind_expression(
        self, node: ast.Expression, scope: Scope, query: BoundQuery
    ) -> BoundExpr:
        """Bind one expression node."""
        if isinstance(node, ast.Literal):
            literal_type = self._literal_type(node.value)
            if self.slots is not None and node.slot is not None:
                return Param(node.slot, node.value, literal_type, self.slots)
            return Const(value=node.value, type=literal_type)
        if isinstance(node, ast.NullLiteral):
            from repro.core.values import NULL

            return Const(value=NULL, type=None)
        if isinstance(node, ast.Path):
            return self._bind_path(node, scope, query)
        if isinstance(node, ast.SuffixPath):
            base = self.bind_expression(node.base, scope, query)
            pseudo = ast.Path(root="<expr>", steps=list(node.steps),
                              line=node.line, column=node.column)
            semantics = Semantics.REF if base.is_object else Semantics.OWN
            base_type = base.type if base.type is not None else TEXT
            spec = (
                ComponentSpec(semantics, base_type)
                if not (semantics is Semantics.REF
                        and not isinstance(base_type, TupleType))
                else ComponentSpec(Semantics.OWN, base_type)
            )
            return self._apply_steps(base, spec, node.steps, scope, query, pseudo)
        if isinstance(node, ast.BinaryOp):
            return self._bind_binary(node, scope, query)
        if isinstance(node, ast.UnaryOp):
            return self._bind_unary(node, scope, query)
        if isinstance(node, ast.FunctionCall):
            return self._bind_call(node, scope, query)
        if isinstance(node, ast.Aggregate):
            return self._bind_aggregate(node, scope, query)
        if isinstance(node, ast.SetMembership):
            return self._bind_membership(node, scope, query)
        raise BindError(f"cannot bind expression node {type(node).__name__}")

    def _bind_predicate(
        self, node: ast.Expression, scope: Scope, query: BoundQuery
    ) -> BoundExpr:
        bound = self.bind_expression(node, scope, query)
        if bound.type is not None and bound.type != BOOLEAN:
            raise BindError(
                f"where clause must be boolean, got {bound.type}"
            )
        return bound

    @staticmethod
    def _literal_type(value: Any) -> Type:
        if isinstance(value, bool):
            return BOOLEAN
        if isinstance(value, int):
            return INT4
        if isinstance(value, float):
            return FLOAT8
        return TEXT

    @staticmethod
    def _default_label(expression: ast.Expression, index: int) -> str:
        if isinstance(expression, ast.Path):
            if expression.steps:
                last = expression.steps[-1]
                if isinstance(last, ast.AttributeStep):
                    return last.name
            return expression.root
        if isinstance(expression, (ast.FunctionCall, ast.Aggregate)):
            return expression.name
        return f"col{index + 1}"

    # -- paths -------------------------------------------------------------------------------

    def _bind_path(
        self, node: ast.Path, scope: Scope, query: BoundQuery
    ) -> BoundExpr:
        base, base_spec = self._bind_path_root(node, scope, query)
        return self._apply_steps(base, base_spec, node.steps, scope, query, node)

    def _bind_path_root(
        self, node: ast.Path, scope: Scope, query: BoundQuery
    ) -> tuple[BoundExpr, ComponentSpec]:
        root = node.root
        binding = scope.lookup(root)
        if binding is not None:
            return (
                VarRef(
                    name=root,
                    type=binding.element_type,
                    is_object=binding.element.semantics.is_object,
                ),
                binding.element,
            )
        parameter = scope.lookup_parameter(root)
        if parameter is not None:
            param_type = parameter.type if parameter.type is not None else TEXT
            semantics = Semantics.REF if parameter.is_object else Semantics.OWN
            return parameter, ComponentSpec(semantics, param_type)
        if self.catalog.has_named(root):
            named = self.catalog.named(root)
            if isinstance(named.spec.type, SetType):
                implicit = self._implicit_set_binding(root, scope, query)
                return (
                    VarRef(
                        name=implicit.name,
                        type=implicit.element_type,
                        is_object=implicit.element.semantics.is_object,
                    ),
                    implicit.element,
                )
            return (
                NamedValue(
                    name=root,
                    type=named.spec.type,
                    is_object=named.spec.semantics.is_object,
                ),
                named.spec,
            )
        if root in self.session_ranges:
            binding = self._declare_session_range(root, scope, query)
            return (
                VarRef(
                    name=binding.name,
                    type=binding.element_type,
                    is_object=binding.element.semantics.is_object,
                ),
                binding.element,
            )
        raise BindError(f"unknown name {root!r}")

    def _apply_steps(
        self,
        base: BoundExpr,
        base_spec: ComponentSpec,
        steps: Sequence[ast.PathStep],
        scope: Scope,
        query: BoundQuery,
        node: ast.Path,
    ) -> BoundExpr:
        current = base
        current_type: Optional[Type] = base.type
        for position, step in enumerate(steps):
            if isinstance(step, ast.IndexStep):
                if not isinstance(current_type, ArrayType):
                    raise BindError(
                        f"indexing a non-array value in {node.dotted()!r}"
                    )
                index = self.bind_expression(step.index, scope, query)
                element = current_type.element
                current = IndexStepB(
                    base=current,
                    index=index,
                    type=element.type,
                    is_object=element.semantics.is_object,
                )
                current_type = element.type
                continue
            assert isinstance(step, ast.AttributeStep)
            if isinstance(current_type, SetType):
                # Traversing a set mid-path in an expression: implicit
                # nested binding (existential semantics in predicates).
                current, current_type = self._nested_binding_for(
                    current, current_type, scope, query, node, position
                )
            if not isinstance(current_type, TupleType):
                raise BindError(
                    f"attribute {step.name!r} applied to non-tuple type "
                    f"{current_type} in {node.dotted()!r}"
                )
            if not current_type.has_attribute(step.name):
                raise BindError(
                    f"type {current_type.describe()} has no attribute "
                    f"{step.name!r} (in {node.dotted()!r})"
                )
            spec = current_type.attribute(step.name)
            current = AttrStep(
                base=current,
                attribute=step.name,
                type=spec.type,
                is_object=spec.semantics.is_object,
            )
            current_type = spec.type
        return current

    def _nested_binding_for(
        self,
        current: BoundExpr,
        current_type: SetType,
        scope: Scope,
        query: BoundQuery,
        node: ast.Path,
        position: int,
    ) -> tuple[BoundExpr, Type]:
        """Replace a set-valued sub-path with an implicit binding over it."""
        # Reconstruct the attribute chain from the nearest VarRef base.
        chain: list[str] = []
        probe = current
        while isinstance(probe, AttrStep):
            chain.append(probe.attribute)
            probe = probe.base
        if not isinstance(probe, VarRef):
            raise BindError(
                f"set-valued path in {node.dotted()!r} must be rooted at a "
                "range variable or named set"
            )
        chain.reverse()
        synthetic = f"${probe.name}.{'.'.join(chain)}" if chain else f"${probe.name}"
        existing = scope.lookup(synthetic)
        if existing is None:
            existing = scope.declare(
                RangeBinding(
                    name=synthetic,
                    source=PathSource(parent=probe.name, steps=chain),
                    element=current_type.element,
                    implicit=True,
                )
            )
        return (
            VarRef(
                name=synthetic,
                type=existing.element_type,
                is_object=existing.element.semantics.is_object,
            ),
            existing.element_type,
        )

    # -- operators --------------------------------------------------------------------------------

    _COMPARISONS = {"=", "!=", "<", "<=", ">", ">="}
    _BOOLEANS = {"and", "or"}
    _ARITHMETIC = {"+", "-", "*", "/", "%"}

    def _bind_binary(
        self, node: ast.BinaryOp, scope: Scope, query: BoundQuery
    ) -> BoundExpr:
        left = self.bind_expression(node.left, scope, query)
        right = self.bind_expression(node.right, scope, query)
        op = node.op
        if op in ("is", "isnot"):
            return self._bind_object_equality(op, left, right)
        if op in self._BOOLEANS:
            for operand in (left, right):
                if operand.type is not None and operand.type != BOOLEAN:
                    raise BindError(
                        f"{op!r} requires boolean operands, got {operand.type}"
                    )
            return Binary(op=op, left=left, right=right, kind="bool", type=BOOLEAN)
        if op in self._COMPARISONS:
            if left.is_object or right.is_object:
                raise BindError(
                    f"references compare only with 'is'/'isnot', not {op!r}"
                )
            adt = self._try_adt_operator(op, [left, right])
            if adt is not None:
                return adt
            self._check_comparable(left, right, op)
            enum_labels = self._enum_comparison_labels(left, right, op)
            return Binary(
                op=op, left=left, right=right, kind="compare", type=BOOLEAN,
                enum_labels=enum_labels,
            )
        if op in self._ARITHMETIC or op == "||":
            adt = self._try_adt_operator(op, [left, right])
            if adt is not None:
                return adt
            from repro.core.types import CharType, TextType

            is_stringy = lambda t: isinstance(t, (CharType, TextType))  # noqa: E731
            if op == "||" or (
                op == "+" and is_stringy(left.type) and is_stringy(right.type)
            ):
                return Binary(
                    op="||", left=left, right=right, kind="concat", type=TEXT
                )
            result = None
            if left.type is not None and right.type is not None:
                if is_numeric(left.type) and is_numeric(right.type):
                    result = common_numeric_type(left.type, right.type)
                else:
                    raise BindError(
                        f"operator {op!r} requires numeric operands, got "
                        f"{left.type} and {right.type}"
                    )
            return Binary(op=op, left=left, right=right, kind="arith", type=result)
        # user-registered operator
        adt = self._try_adt_operator(op, [left, right])
        if adt is not None:
            return adt
        raise BindError(f"unknown operator {op!r}")

    def _check_comparable(
        self, left: BoundExpr, right: BoundExpr, op: str
    ) -> None:
        """Static comparability: both numeric, both stringy, both boolean
        (equality only), the same enum/ADT, or either side untyped."""
        from repro.core.types import AdtType, CharType, EnumType, TextType

        lt, rt = left.type, right.type
        if lt is None or rt is None:
            return
        if is_numeric(lt) and is_numeric(rt):
            return
        stringy = (CharType, TextType)
        if isinstance(lt, stringy) and isinstance(rt, stringy):
            return
        if isinstance(lt, EnumType) or isinstance(rt, EnumType):
            return  # validated by _enum_comparison_labels
        if lt == BOOLEAN and rt == BOOLEAN and op in ("=", "!="):
            return
        if isinstance(lt, AdtType) and isinstance(rt, AdtType) and lt.name == rt.name:
            return
        raise BindError(
            f"cannot compare {lt} with {rt} using {op!r}"
        )

    def _enum_comparison_labels(
        self, left: BoundExpr, right: BoundExpr, op: str
    ) -> Optional[tuple[str, ...]]:
        """Enumeration values order by declaration position, not
        lexicographically (paper §2.1 lists enumerations among ordered
        base types). Returns the label order when either operand is an
        enum; validates literal operands against the labels."""
        from repro.core.types import EnumType
        from repro.core.values import NULL

        enum_type: Optional[EnumType] = None
        for operand in (left, right):
            if isinstance(operand.type, EnumType):
                if enum_type is not None and operand.type != enum_type:
                    raise BindError(
                        "cannot compare values of different enumerations"
                    )
                enum_type = operand.type
        if enum_type is None:
            return None
        for operand in (left, right):
            if (
                isinstance(operand, Const)
                and operand.value is not NULL
                and isinstance(operand.value, str)
                and operand.value not in enum_type.labels
            ):
                raise BindError(
                    f"{operand.value!r} is not a label of {enum_type}"
                )
        return enum_type.labels

    def _bind_object_equality(
        self, op: str, left: BoundExpr, right: BoundExpr
    ) -> BoundExpr:
        # the null literal is the one untyped constant
        null_test = (isinstance(right, Const) and right.type is None) or (
            isinstance(left, Const) and left.type is None
        )
        if not null_test and not (left.is_object and right.is_object):
            raise BindError(
                f"{op!r} compares object references (or tests for null); "
                "use '=' for values"
            )
        return Binary(op=op, left=left, right=right, kind="object", type=BOOLEAN)

    def _try_adt_operator(
        self, symbol: str, operands: list[BoundExpr]
    ) -> Optional[BoundExpr]:
        types = [operand.type for operand in operands]
        if any(t is None for t in types):
            return None
        function = self.catalog.adts.resolve_operator(symbol, types)  # type: ignore[arg-type]
        if function is None:
            return None
        return AdtCall(
            function=function,
            args=operands,
            type=function.result_type,
            is_object=False,
        )

    def _bind_unary(
        self, node: ast.UnaryOp, scope: Scope, query: BoundQuery
    ) -> BoundExpr:
        operand = self.bind_expression(node.operand, scope, query)
        if node.op == "not":
            return Unary(op="not", operand=operand, type=BOOLEAN)
        if node.op == "-":
            if operand.type is not None and not is_numeric(operand.type):
                adt = self._try_adt_prefix(node.op, operand)
                if adt is not None:
                    return adt
                raise BindError("unary '-' requires a numeric operand")
            return Unary(op="-", operand=operand, type=operand.type)
        adt = self._try_adt_prefix(node.op, operand)
        if adt is not None:
            return adt
        raise BindError(f"unknown prefix operator {node.op!r}")

    def _try_adt_prefix(self, symbol: str, operand: BoundExpr) -> Optional[BoundExpr]:
        if operand.type is None:
            return None
        function = self.catalog.adts.resolve_operator(symbol, [operand.type])
        if function is None:
            return None
        return AdtCall(function=function, args=[operand], type=function.result_type)

    # -- calls --------------------------------------------------------------------------------------

    def _bind_call(
        self, node: ast.FunctionCall, scope: Scope, query: BoundQuery
    ) -> BoundExpr:
        # A set function without over/where: either a plain aggregate over
        # a set-valued argument (count(E.kids)) or a QUEL simple aggregate.
        set_function = self.catalog.set_functions.lookup(node.name)
        if set_function is not None:
            if len(node.args) != 1:
                raise BindError(
                    f"set function {node.name!r} takes exactly one argument"
                )
            aggregate = ast.Aggregate(
                name=node.name,
                argument=node.args[0],
                over=None,
                where=None,
                line=node.line,
                column=node.column,
            )
            return self._bind_aggregate(aggregate, scope, query)
        # EXCESS function? (resolved against any schema type's functions)
        excess = self._try_bind_excess_call(node, scope, query)
        if excess is not None:
            return excess
        # ADT function (constructor or member, symmetric syntax).
        args = [self.bind_expression(a, scope, query) for a in node.args]
        types = [a.type for a in args]
        if all(t is not None for t in types):
            function = self.catalog.adts.resolve_function(node.name, types)  # type: ignore[arg-type]
            if function is not None:
                return AdtCall(
                    function=function, args=args, type=function.result_type
                )
        # fall back: any ADT function with this name and matching arity
        candidates = [
            f for f in self.catalog.adts.functions_named(node.name)
            if f.arity == len(args)
        ]
        if len(candidates) == 1:
            return AdtCall(
                function=candidates[0], args=args,
                type=candidates[0].result_type,
            )
        raise BindError(f"unknown function {node.name!r}")

    def _try_bind_excess_call(
        self, node: ast.FunctionCall, scope: Scope, query: BoundQuery
    ) -> Optional[BoundExpr]:
        """Bind ``F(E, ...)`` as an EXCESS function call when the first
        argument is an object of a schema type defining (or inheriting) F."""
        if not node.args:
            return None
        first = self.bind_expression(node.args[0], scope, query)
        if not isinstance(first.type, SchemaType):
            return None
        function = self.catalog.lookup_function(first.type, node.name)
        if function is None:
            return None
        args = [first] + [
            self.bind_expression(a, scope, query) for a in node.args[1:]
        ]
        if len(args) != len(function.params):
            raise BindError(
                f"function {node.name!r} takes {len(function.params)} "
                f"arguments, got {len(args)}"
            )
        return ExcessCall(
            name=node.name,
            args=args,
            type=function.result_type,
            is_object=function.returns_object,
            fixed_function=function if function.fixed else None,
        )

    # -- aggregates ------------------------------------------------------------------------------------

    def _bind_aggregate(
        self, node: ast.Aggregate, scope: Scope, query: BoundQuery
    ) -> BoundExpr:
        function = self.catalog.set_functions.lookup(node.name)
        if function is None:
            raise BindError(f"unknown set function {node.name!r}")
        self._aggregate_counter += 1
        aggregate_id = self._aggregate_counter

        # Inner scope: clones of referenced outer variables. The clone map
        # renames variables so the aggregate iterates independently (QUEL
        # decoupling), while correlated set-paths stay rooted outside.
        inner_scope = Scope(parent=None)
        inner_query = BoundQuery()
        roots = self._path_roots(node.argument) | self._path_roots(node.where) | (
            {node.over.root} if node.over is not None else set()
        )
        correlated_roots: set[str] = set()
        clone_map: dict[str, str] = {}
        for root in sorted(roots):
            outer_binding = scope.lookup(root)
            if outer_binding is None and root in self.session_ranges:
                outer_binding = self._declare_session_range(root, scope, query)
            if outer_binding is None:
                if scope.lookup_parameter(root) is not None:
                    # function/procedure parameters are per-call constants:
                    # the aggregate is correlated on them
                    correlated_roots.add(f"@{root}")
                continue  # named objects handle themselves
            if self._argument_traverses_set(node.argument, root):
                correlated_roots.add(root)
                continue
            clone_map[root] = root
            self._clone_binding_into(outer_binding, inner_scope, scope)

        if correlated_roots:
            if node.over is not None:
                raise BindError(
                    "an aggregate over a nested-set argument cannot also "
                    "use an 'over' clause"
                )
            return self._bind_correlated_aggregate(
                node, function, aggregate_id, scope, query, correlated_roots
            )

        # Partitioned / global aggregate: bind inner expressions against
        # the inner scope.
        argument = self.bind_expression(node.argument, inner_scope, inner_query)
        argument = self._devolve_collection_argument(argument, inner_scope)
        where = (
            self._bind_predicate(node.where, inner_scope, inner_query)
            if node.where is not None
            else None
        )
        inner_key = None
        outer_key = None
        mode = "global"
        if node.over is not None:
            mode = "partition"
            inner_key = self.bind_expression(node.over, inner_scope, inner_query)
            outer_key = self.bind_expression(node.over, scope, query)
        self._check_aggregate_argument(function, argument)
        self._finalize(inner_scope, inner_query)
        bound = BoundAggregate(
            aggregate_id=aggregate_id,
            function=function,
            mode=mode,
            argument=argument,
            inner_bindings=inner_query.bindings,
            where=where,
            inner_key=inner_key,
        )
        query.aggregates.append(bound)
        result_type = function.result_type(argument.type) if argument.type else None
        return AggregateRef(
            aggregate_id=aggregate_id, outer_key=outer_key, type=result_type
        )

    def _bind_correlated_aggregate(
        self,
        node: ast.Aggregate,
        function: GenericSetFunction,
        aggregate_id: int,
        scope: Scope,
        query: BoundQuery,
        correlated_roots: set[str],
    ) -> BoundExpr:
        """count(E.kids)-style: per-outer-row iteration over nested sets.

        The nested bindings live in a private scope whose parent is the
        outer scope, so the outer variables stay visible (correlated).
        """
        inner_scope = Scope(parent=scope)
        inner_query = BoundQuery()
        argument = self.bind_expression(node.argument, inner_scope, inner_query)
        argument = self._devolve_collection_argument(argument, inner_scope)
        where = (
            self._bind_predicate(node.where, inner_scope, inner_query)
            if node.where is not None
            else None
        )
        self._check_aggregate_argument(function, argument)
        self._finalize(inner_scope, inner_query)
        bound = BoundAggregate(
            aggregate_id=aggregate_id,
            function=function,
            mode="correlated",
            argument=argument,
            inner_bindings=inner_query.bindings,
            where=where,
            outer_deps=sorted(correlated_roots),
        )
        query.aggregates.append(bound)
        result_type = function.result_type(argument.type) if argument.type else None
        return AggregateRef(aggregate_id=aggregate_id, outer_key=None, type=result_type)

    def _devolve_collection_argument(
        self, argument: BoundExpr, inner_scope: Scope
    ) -> BoundExpr:
        """When the aggregate argument is a whole collection
        (``count(E.kids)``), iterate it: replace the argument with a
        variable ranging over the collection's members."""
        if not isinstance(argument.type, (SetType, ArrayType)):
            return argument
        chain: list[str] = []
        probe: BoundExpr = argument
        while isinstance(probe, AttrStep):
            chain.append(probe.attribute)
            probe = probe.base
        if not isinstance(probe, VarRef):
            raise BindError(
                "a collection aggregate argument must be a path rooted at a "
                "range variable or named set"
            )
        chain.reverse()
        synthetic = f"${probe.name}.{'.'.join(chain)}"
        element = argument.type.element
        existing = inner_scope.lookup(synthetic)
        if existing is None or existing not in inner_scope.local_bindings():
            existing = inner_scope.declare(
                RangeBinding(
                    name=synthetic,
                    source=PathSource(parent=probe.name, steps=chain),
                    element=element,
                    implicit=True,
                )
            )
        return VarRef(
            name=synthetic,
            type=element.type,
            is_object=element.semantics.is_object,
        )

    def _check_aggregate_argument(
        self, function: GenericSetFunction, argument: BoundExpr
    ) -> None:
        if argument.is_object and function.name != "count":
            raise BindError(
                f"set function {function.name!r} cannot aggregate object "
                "references; aggregate an attribute instead"
            )
        if argument.type is not None:
            function.check_applicable(
                argument.type, self.catalog.set_functions.ordered_adts
            )

    def _clone_binding_into(
        self, binding: RangeBinding, inner_scope: Scope, outer_scope: Scope
    ) -> RangeBinding:
        """Recursively copy a binding (and its parents) into the
        aggregate's private scope."""
        existing = inner_scope.lookup(binding.name)
        if existing is not None:
            return existing
        source = binding.source
        if isinstance(source, PathSource):
            parent = outer_scope.lookup(source.parent)
            if parent is not None:
                self._clone_binding_into(parent, inner_scope, outer_scope)
            source = PathSource(parent=source.parent, steps=list(source.steps))
        clone = RangeBinding(
            name=binding.name,
            source=source,
            element=binding.element,
            universal=False,
            implicit=binding.implicit,
        )
        return inner_scope.declare(clone)

    def _path_roots(self, node: Optional[ast.Expression]) -> set[str]:
        """All path roots appearing in an AST expression."""
        out: set[str] = set()
        if node is None:
            return out
        if isinstance(node, ast.Path):
            out.add(node.root)
            for step in node.steps:
                if isinstance(step, ast.IndexStep):
                    out |= self._path_roots(step.index)
            return out
        if isinstance(node, ast.BinaryOp):
            return self._path_roots(node.left) | self._path_roots(node.right)
        if isinstance(node, ast.UnaryOp):
            return self._path_roots(node.operand)
        if isinstance(node, (ast.FunctionCall,)):
            for arg in node.args:
                out |= self._path_roots(arg)
            return out
        if isinstance(node, ast.Aggregate):
            out |= self._path_roots(node.argument)
            out |= self._path_roots(node.where)
            if node.over is not None:
                out.add(node.over.root)
            return out
        if isinstance(node, ast.SetMembership):
            out |= self._path_roots(node.element)
            out.add(node.collection.root)
            return out
        return out

    def _argument_traverses_set(
        self, node: ast.Expression, root: str
    ) -> bool:
        """True when a path rooted at ``root`` (a range variable) in the
        aggregate argument traverses a set-valued attribute — the
        correlated-aggregate trigger (count(E.kids))."""
        paths: list[ast.Path] = []

        def collect(expr: Optional[ast.Expression]) -> None:
            if expr is None:
                return
            if isinstance(expr, ast.Path):
                paths.append(expr)
            elif isinstance(expr, ast.BinaryOp):
                collect(expr.left)
                collect(expr.right)
            elif isinstance(expr, ast.UnaryOp):
                collect(expr.operand)
            elif isinstance(expr, ast.FunctionCall):
                for arg in expr.args:
                    collect(arg)

        collect(node)
        for path in paths:
            if path.root != root:
                continue
            # Walk the static types to see whether any step is set-valued.
            binding_types = self._static_chain_types(path)
            if binding_types:
                return True
        return False

    def _static_chain_types(self, path: ast.Path) -> bool:
        """True when the path's attribute chain crosses a set type,
        judged from the catalog's type information only."""
        # Find a plausible element type: any schema type with the first
        # attribute. This is a heuristic used only to decide correlated
        # aggregates; full checking happens during actual binding.
        steps = [s for s in path.steps if isinstance(s, ast.AttributeStep)]
        if not steps:
            return False
        for type_name in self.catalog.type_names():
            schema_type = self.catalog.schema_type(type_name)
            current: Optional[Type] = schema_type
            ok = True
            crossed = False
            for step in steps:
                if not isinstance(current, TupleType) or not current.has_attribute(
                    step.name
                ):
                    ok = False
                    break
                spec = current.attribute(step.name)
                if isinstance(spec.type, SetType):
                    crossed = True
                    current = spec.type.element.type
                else:
                    current = spec.type
            if ok and crossed:
                return True
        return False

    # -- membership ------------------------------------------------------------------------------------------

    def _bind_membership(
        self, node: ast.SetMembership, scope: Scope, query: BoundQuery
    ) -> BoundExpr:
        element = self.bind_expression(node.element, scope, query)
        collection = self._bind_collection_target(node.collection, scope, query)
        return Membership(
            element=element,
            collection=collection,
            negated=node.negated,
            type=BOOLEAN,
        )

    def _bind_collection_target(
        self, path: ast.Path, scope: Scope, query: BoundQuery
    ) -> CollectionTarget:
        """Resolve a path that must denote a collection (set or array)."""
        root = path.root
        if not path.steps and self.catalog.has_named(root):
            named = self.catalog.named(root)
            if isinstance(named.spec.type, (SetType, ArrayType)):
                return CollectionTarget(
                    kind="named",
                    name=root,
                    element=named.spec.type.element,
                )
            raise BindError(f"{root!r} is not a collection")
        # Path form: root must be a variable / named object; all steps but
        # the traversal end must be attribute steps reaching a set.
        binding = scope.lookup(root)
        if binding is None and root in self.session_ranges:
            binding = self._declare_session_range(root, scope, query)
        if binding is not None:
            base = VarRef(
                name=binding.name,
                type=binding.element_type,
                is_object=binding.element.semantics.is_object,
            )
            current: Optional[Type] = binding.element_type
        elif self.catalog.has_named(root):
            named = self.catalog.named(root)
            if isinstance(named.spec.type, SetType):
                implicit = self._implicit_set_binding(root, scope, query)
                base = VarRef(
                    name=implicit.name,
                    type=implicit.element_type,
                    is_object=implicit.element.semantics.is_object,
                )
                current = implicit.element_type
            else:
                base = NamedValue(
                    name=root,
                    type=named.spec.type,
                    is_object=named.spec.semantics.is_object,
                )
                current = named.spec.type
        else:
            raise BindError(f"unknown collection {path.dotted()!r}")
        steps: list[str] = []
        for step in path.steps:
            if not isinstance(step, ast.AttributeStep):
                raise BindError(
                    "collection paths may not use array indexing"
                )
            if not isinstance(current, TupleType):
                raise BindError(
                    f"attribute {step.name!r} applied to non-tuple in "
                    f"{path.dotted()!r}"
                )
            spec = current.attribute(step.name)
            steps.append(step.name)
            current = spec.type
            if isinstance(current, (SetType, ArrayType)):
                # must be final
                if step is not path.steps[-1]:
                    raise BindError(
                        "collection path must end at its set/array attribute"
                    )
                return CollectionTarget(
                    kind="path",
                    base=base,
                    steps=steps,
                    element=current.element,
                )
        raise BindError(f"{path.dotted()!r} does not denote a collection")

    # -- locations (set statement) -------------------------------------------------------------------------------

    def _bind_location(
        self, path: ast.Path, scope: Scope, query: BoundQuery
    ) -> tuple:
        """Bind the target of a ``set`` statement to a slot locator."""
        root = path.root
        if not path.steps:
            if not self.catalog.has_named(root):
                raise BindError(f"set target {root!r} is not a named object")
            return ("named", root)
        # Bind all but the last step as an expression; the last step is
        # the slot (attribute or index).
        prefix = ast.Path(
            root=root, steps=list(path.steps[:-1]),
            line=path.line, column=path.column,
        )
        base = self._bind_path(prefix, scope, query)
        last = path.steps[-1]
        if isinstance(last, ast.AttributeStep):
            if not isinstance(base.type, TupleType):
                raise BindError(
                    f"set target attribute {last.name!r} applies to a "
                    f"non-tuple type {base.type}"
                )
            base.type.attribute(last.name)  # validates
            return ("slot", base, last.name)
        assert isinstance(last, ast.IndexStep)
        if not isinstance(base.type, ArrayType):
            raise BindError("set target indexing applies to a non-array value")
        index = self.bind_expression(last.index, scope, query)
        return ("index", base, index)

    # -- assignment type checks ------------------------------------------------------------------------------------

    def _check_assignable(
        self, spec: ComponentSpec, value: BoundExpr, attribute: str
    ) -> None:
        if value.type is None:
            return
        if spec.semantics.is_object:
            if not value.is_object and not (
                isinstance(value, Const) and value.type is None
            ):
                raise BindError(
                    f"attribute {attribute!r} holds a reference; the value "
                    "assigned must be an object"
                )
            if isinstance(spec.type, SchemaType) and isinstance(
                value.type, SchemaType
            ):
                if not spec.type.is_assignable_from(value.type):
                    raise BindError(
                        f"cannot assign {value.type.describe()} to attribute "
                        f"{attribute!r} of type {spec.type.describe()}"
                    )
            return
        if value.is_object:
            raise BindError(
                f"attribute {attribute!r} holds a value; cannot assign an "
                "object reference"
            )
        if not spec.type.is_assignable_from(value.type):
            # numeric widening is checked dynamically; allow numerics
            if is_numeric(spec.type) and is_numeric(value.type):
                return
            raise BindError(
                f"cannot assign {value.type} to attribute {attribute!r} of "
                f"type {spec.type}"
            )

    # -- universal variable restrictions ------------------------------------------------------------------------------

    def _reject_universal(
        self, expression: BoundExpr, scope: Scope, context: str
    ) -> None:
        for name in self._bound_var_names(expression):
            binding = scope.lookup(name)
            if binding is not None and binding.universal:
                raise BindError(
                    f"universal range variable {name!r} may not appear in "
                    f"{context}"
                )

    def _bound_var_names(self, expression: BoundExpr) -> set[str]:
        out: set[str] = set()
        stack: list[BoundExpr] = [expression]
        while stack:
            node = stack.pop()
            if isinstance(node, VarRef):
                out.add(node.name)
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
            elif isinstance(node, Membership):
                stack.append(node.element)
                if node.collection.base is not None:
                    stack.append(node.collection.base)
            elif isinstance(node, AggregateRef) and node.outer_key is not None:
                stack.append(node.outer_key)
        return out

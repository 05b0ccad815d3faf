"""The EXCESS statement interpreter.

Drives whole statements end to end: tokenize with the catalog's operator
symbols, parse with the catalog's operator precedences, dispatch DDL
directly against the catalog, and run DML through binder → optimizer →
evaluator. The interpreter holds the session's QUEL-style ``range of``
declarations (they persist until redefined) and enforces authorization
when the database has it enabled.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.authz.grants import Privilege
from repro.core.database import Database
from repro.core.schema import Rename, SchemaType
from repro.core.types import (
    ArrayType,
    BOOLEAN,
    ComponentSpec,
    CharType,
    EnumType,
    FLOAT4,
    FLOAT8,
    INT1,
    INT2,
    INT4,
    IntegerType,
    Semantics,
    SetType,
    TEXT,
    TupleType,
    Type,
)
from repro.errors import (
    AuthorizationError,
    BindError,
    ExcessError,
    FunctionError,
    ProcedureError,
    SchemaError,
    SerializationError,
)
from repro.excess import ast_nodes as ast
from repro.excess.binder import (
    AttrStep,
    Binder,
    BoundQuery,
    NamedSetSource,
    NamedValue,
    ParamSlots,
    Scope,
    VarRef,
)
from repro.excess.evaluator import WRITES, Evaluator
from repro.excess.flags import FLAG_VALUES, Flags, validate_flag
from repro.excess.functions import (
    ExcessFunction,
    FunctionParam,
    bind_function_body,
)
from repro.excess.lexer import Lexer, ShapeIndex
from repro.excess.optimizer import CostModel, Optimizer
from repro.excess.parser import OperatorTable, Parser
from repro.excess.plan import (
    PlanContext,
    plan_counters,
    render_plan,
    runnable_region,
    snapshot_stats,
)
from repro.excess.procedures import Procedure, bind_procedure_body, run_procedure
from repro.excess.result import Result

__all__ = ["Interpreter", "PlanCache", "FLAG_VALUES", "validate_flag"]

def _flag_attribute(name: str) -> property:
    """An interpreter attribute for flag ``name``: assignments are
    validated (flags in :data:`FLAG_VALUES`) and move the flag
    generation, so every session re-resolves its :class:`Flags`."""
    slot = "_" + name

    def read(self: Any) -> Any:
        return getattr(self, slot)

    def write(self: Any, value: Any) -> None:
        if name in FLAG_VALUES:
            validate_flag(name, value)
        setattr(self, slot, value)
        self.flags_generation += 1

    return property(read, write)


@dataclass
class _PreparedPlan:
    """A parsed, bound, and optimized statement ready to execute.

    Skipping straight to evaluation is what the plan cache buys: the
    parser, binder, and optimizer only run on a cache miss.
    """

    #: "retrieve" | "append" | "delete" | "replace" | "set" | "explain"
    kind: str
    #: the bound statement (for "explain": the bound+optimized query)
    bound: Any
    report: Any
    #: pre-rendered EXPLAIN rows (kind == "explain" only)
    explain_rows: list = field(default_factory=list)
    #: root of the lowered physical operator tree (cached with the plan)
    plan_root: Any = None
    #: the literal values the plan was prepared with, by slot (the
    #: sniffed first plan: it was costed with these)
    params: tuple = ()
    #: what binding and planning learned about those slots
    slots: ParamSlots = field(default_factory=ParamSlots)
    #: ``len(slots.pinned)`` when the cache last keyed this plan
    pins_keyed: int = 0
    #: ``(shape key, subkey)`` the cache files this plan under
    filed: tuple = ()
    #: the plan tree's counters (:func:`~repro.excess.plan.
    #: plan_counters`), which every execution resets and snapshots for
    #: its rendered tree
    stats: tuple = ()
    #: the fused region the plan's flags run at ``plan_root``
    #: (:func:`~repro.excess.plan.runnable_region`), or None
    region: Any = None
    #: the result's column labels (retrieve)
    columns: tuple = ()
    #: the apply step of a write (:data:`~repro.excess.evaluator.WRITES`)
    apply: Any = None
    #: worker-pool size of a parallel retrieve (0: serial)
    workers: int = 0
    #: the named sets the statement reads: SELECT is checked on each one
    #: at every execution
    reads: tuple = ()


class _Shape:
    """How the cache keys the plans of one statement shape."""

    __slots__ = ("pinned", "sensitive", "plans")

    def __init__(self, pinned: tuple, sensitive: tuple):
        #: slots keyed by value: some front-end stage looked at them, or
        #: never handed them to the binder
        self.pinned = pinned
        #: ``(slot, set, attribute, op)`` of the free slots the cost
        #: model estimated; keyed by the estimate's order of magnitude
        self.sensitive = sensitive
        #: live cache entries of this shape, by subkey
        #: (:meth:`PlanCache._subkey`)
        self.plans: dict[tuple, _PreparedPlan] = {}


class PlanCache:
    """A small LRU of prepared plans, one per statement *shape*.

    A key is ``(shape key, literal values)``: the shape key is the
    lexer's literal-blanked text (:meth:`~repro.excess.lexer.Lexer.
    shape`) plus user, catalog epoch, optimizer flags and the session's
    plan token; the values are the statement's literals by slot.  Two
    statements that differ only in *free* slots share an entry.  Slots
    the front end looked at (*pinned*) join the key by value, and slots
    the cost model estimated (*value-sensitive*) join it by the order
    of magnitude of their estimate, so an index-vs-scan decision is
    never shared across estimates a power of ten apart.

    Epoch-based invalidation: every DDL statement, index create/drop,
    grant change, and session range re-declaration bumps the catalog
    epoch, so entries prepared against older catalog states simply never
    match again — stale plans are never served, no explicit flushing
    needed (dead entries age out of the LRU).

    :attr:`templates` holds the lexer shape of every live shape key, so
    the text of a cached shape is matched against its template instead
    of scanned.  It is per shape, never per text: bounded by the cache,
    a template goes with the last key of its shape.
    """

    def __init__(self, capacity: int = 128, magnitude: Any = None):
        self.capacity = capacity
        self.enabled = True
        self.hits = 0
        self.misses = 0
        #: ``magnitude(set name, attribute, op, value) -> int``: the
        #: order of magnitude of the cost model's estimate (see
        #: :meth:`~repro.excess.optimizer.CostModel.literal_magnitude`)
        self._magnitude = magnitude
        self._shapes: dict[tuple, _Shape] = {}
        #: every live entry, least recently used first, by ``id(plan)``
        #: (a hit moves an int, not the whole key; the plan records
        #: where it is filed as :attr:`_PreparedPlan.filed`)
        self._entries: "OrderedDict[int, _PreparedPlan]" = OrderedDict()
        #: the lexer shapes of the live shape keys
        self.templates = ShapeIndex()

    def _subkey(self, shape: _Shape, params: tuple) -> tuple:
        """What of ``params`` distinguishes plans of one shape."""
        key = tuple([params[slot] for slot in shape.pinned])
        if shape.sensitive:
            magnitude = self._magnitude
            key += tuple([
                magnitude(set_name, attribute, op, params[slot])
                for slot, set_name, attribute, op in shape.sensitive
            ])
        return key

    def get(self, key: tuple) -> Optional[_PreparedPlan]:
        if not self.enabled:
            return None
        shape_key, params = key
        shape = self._shapes.get(shape_key)
        if shape is None:
            return None
        plan = shape.plans.get(
            self._subkey(shape, params) if shape.pinned or shape.sensitive else ()
        )
        if plan is None:
            return None
        if len(plan.slots.pinned) != plan.pins_keyed:
            # something read a slot's value after the plan was keyed:
            # what it derived holds for the prepared value only, so
            # re-key the shape and plan this statement afresh
            self._rekey(shape_key, plan.slots)
            return None
        self._entries.move_to_end(id(plan))
        self.hits += 1
        return plan

    def put(self, key: tuple, plan: _PreparedPlan) -> None:
        if not self.enabled:
            return
        self.misses += 1
        shape_key, params = key
        shape = self._rekey(shape_key, plan.slots, len(params))
        plan.pins_keyed = len(plan.slots.pinned)
        subkey = self._subkey(shape, params)
        replaced = shape.plans.get(subkey)
        if replaced is not None:
            del self._entries[id(replaced)]
        shape.plans[subkey] = plan
        plan.filed = (shape_key, subkey)
        self._entries[id(plan)] = plan
        while len(self._entries) > self.capacity:
            _id, evicted = self._entries.popitem(last=False)
            self._release(*evicted.filed)

    def _rekey(
        self, shape_key: tuple, slots: ParamSlots, n_slots: int = 0
    ) -> _Shape:
        """The shape's keying scheme after folding in what ``slots``
        learned; entries keyed under a narrower scheme are dropped."""
        known = self._shapes.get(shape_key)
        pinned = {slot for slot in range(n_slots) if not slots.free(slot)}
        pinned |= slots.pinned
        sensitive = set(slots.sensitive)
        if known is not None:
            pinned.update(known.pinned)
            sensitive.update(known.sensitive)
        shape = _Shape(
            tuple(sorted(pinned)),
            tuple(sorted(e for e in sensitive if e[0] not in pinned)),
        )
        if known is not None:
            if (known.pinned, known.sensitive) == (shape.pinned, shape.sensitive):
                return known
            for dropped in known.plans.values():
                del self._entries[id(dropped)]
        else:
            self.templates.add(shape_key[0])
        self._shapes[shape_key] = shape
        return shape

    def _release(self, shape_key: tuple, subkey: tuple) -> None:
        shape = self._shapes[shape_key]
        del shape.plans[subkey]
        if not shape.plans:
            del self._shapes[shape_key]
            self.templates.discard(shape_key[0])

    def clear(self) -> None:
        self._entries.clear()
        self._shapes.clear()
        self.templates.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "shapes": len(self._shapes),
            "pinned_slots": sum(len(s.pinned) for s in self._shapes.values()),
        }


_BASE_TYPES: dict[str, Type] = {
    "int1": INT1,
    "int2": INT2,
    "int4": INT4,
    "int8": IntegerType(8),
    "float4": FLOAT4,
    "float8": FLOAT8,
    "boolean": BOOLEAN,
    "text": TEXT,
}


class Interpreter:
    """Executes EXCESS statements against one database."""

    #: single-statement scripts of these types are plan-cacheable
    _CACHEABLE = (
        ast.Retrieve,
        ast.Append,
        ast.Delete,
        ast.Replace,
        ast.SetStatement,
        ast.Explain,
    )

    #: statement types whose successful execution mutates durable state
    #: and therefore gets written to the WAL of a durable database.
    #: Queries (Retrieve, Explain, SetOperation) and the transaction
    #: brackets (Begin/Commit/Abort) are deliberately absent: commits
    #: flush the buffered statements as one record, aborts drop them.
    #: RangeDecl is logged because later logged statements may only bind
    #: under the session's range declarations.
    _DURABLE_TYPES = (
        ast.DefineType,
        ast.CreateNamed,
        ast.DestroyNamed,
        ast.CreateIndex,
        ast.DropIndex,
        ast.RangeDecl,
        ast.GrantStatement,
        ast.RevokeStatement,
        ast.CreateUser,
        ast.CreateGroup,
        ast.AddToGroup,
        ast.DefineFunction,
        ast.DefineProcedure,
        ast.ExecuteProcedure,
        ast.AlterType,
        ast.Analyze,
        ast.Append,
        ast.Delete,
        ast.Replace,
        ast.SetStatement,
    )

    def __init__(self, database: Database, optimize: bool = True):
        self.db = database
        #: bumped by every flag write; a session whose resolved
        #: :class:`Flags` carry an older generation re-resolves them
        self.flags_generation = 0
        # the engine-wide flags (documented on Flags); a session's
        # overrides take precedence over these
        for name, value in zip(Flags._fields, Flags(optimize=optimize)):
            setattr(self, name, value)
        #: lazily created worker-pool dispatcher, shared by statements
        self._parallel_runner: Any = None
        #: LRU of prepared plans; entries self-invalidate via the epoch key
        self.plan_cache = PlanCache(magnitude=self._literal_magnitude)
        #: the cost model value-sensitive cache keys are estimated with,
        #: rebuilt when the catalog's statistics object is replaced
        self._cost_model: Optional[CostModel] = None
        #: (registry, its operators version, parse table, the table's
        #: punctuation symbols) — see :meth:`_operator_table`
        self._operators: tuple = (None, -1, None, ())
        #: the session whose statement is currently executing (set by
        #: :meth:`execute`; statements run one at a time, so a plain
        #: attribute suffices); ``None`` resolves to the default session
        self._current_session: Any = None

    def attach(self, database: Optional[Database]) -> None:
        """Point this interpreter and its worker-pool dispatcher at
        ``database``.  None unlinks them from a closed database (see
        :meth:`Database.close`) and drops the plan cache and the cost
        model, which hold its catalog."""
        self.db = database
        if self._parallel_runner is not None:
            self._parallel_runner.db = database
        if database is None:
            self.plan_cache.clear()
            self._cost_model = None

    # -- sessions ------------------------------------------------------------------

    def _session(self) -> Any:
        """The session the current statement runs in."""
        session = self._current_session
        return session if session is not None else self.db.default_session

    @property
    def session_ranges(self) -> dict[str, ast.RangeDecl]:
        """The active session's ``range of`` declarations. Outside a
        connected session this is the default session's dict — shared
        across :meth:`Database.session` users, as the seed behaved."""
        return self._session().ranges

    def resolve_flags(self, overrides: Any) -> Flags:
        """``overrides`` over the interpreter's attributes, as one tuple."""
        return Flags._make(
            overrides.get(name, getattr(self, name)) for name in Flags._fields
        )

    # -- flags -------------------------------------------------------------------

    optimize = _flag_attribute("optimize")
    hash_joins = _flag_attribute("hash_joins")
    cost_based = _flag_attribute("cost_based")
    compile_mode = _flag_attribute("compile_mode")
    exec_mode = _flag_attribute("exec_mode")
    parallel_mode = _flag_attribute("parallel_mode")
    workers = _flag_attribute("workers")
    statement_timeout_ms = _flag_attribute("statement_timeout_ms")
    memory_budget = _flag_attribute("memory_budget")

    # -- parallel execution ---------------------------------------------------------

    def _parallel(self, workers: int) -> Any:
        """The interpreter's worker-pool dispatcher (created on first
        parallel-eligible execution; pool processes start lazily)."""
        runner = self._parallel_runner
        if runner is None:
            from repro.excess.parallel import ParallelRunner

            runner = ParallelRunner(self.db)
            self._parallel_runner = runner
        runner.workers = workers
        return runner

    def shutdown_parallel(self) -> None:
        """Stop the worker pool, if one is running (tests, benches, and
        embedders that want deterministic teardown; pools restart on the
        next parallel execution)."""
        runner = self._parallel_runner
        if runner is not None:
            runner.stop()

    # -- operator table ------------------------------------------------------------

    def _operator_table(self) -> OperatorTable:
        """The parse table of the ADT registry's operators, rebuilt only
        when an operator was registered since (a symbol's precedence,
        associativity and fixity are fixed by its first registration).
        A new punctuation symbol changes how texts scan, so the plan
        cache, whose shape templates were scanned without it, is
        cleared."""
        adts = self.db.catalog.adts
        registry, version, table, punctuation = self._operators
        if registry is not adts or version != adts.operators_version:
            version = adts.operators_version
            table = OperatorTable()
            for symbol in adts.operator_symbols():
                info = adts.operator_parse_info(symbol)
                if info is not None:
                    table.add_operator(
                        symbol, info.precedence, info.associativity, info.fixity
                    )
            symbols = tuple(table.punctuation_symbols())
            if symbols != punctuation:
                self.plan_cache.clear()
            self._operators = (adts, version, table, symbols)
        return table

    def _lexer_symbols(self) -> tuple:
        """The current operator table's punctuation symbols."""
        self._operator_table()
        return self._operators[3]

    # -- entry point -----------------------------------------------------------------

    def _parse(self, text: str) -> tuple[list[ast.Statement], tuple]:
        """``(statements, literal values by parser slot)``."""
        tokens = Lexer(text, self._lexer_symbols()).tokens()
        parser = Parser(tokens, self._operators[2])
        return parser.parse_script().statements, parser.literals

    def _literal_magnitude(
        self, set_name: str, attribute: str, op: str, value: Any
    ) -> int:
        catalog = self.db.catalog
        model = self._cost_model
        if (
            model is None
            or model.catalog is not catalog
            or model.statistics is not catalog.statistics
        ):
            model = self._cost_model = CostModel(catalog)
        return model.literal_magnitude(set_name, attribute, op, value)

    def _cache_key(self, text: str, user: str, session: Any) -> tuple:
        """``(shape key, literal values)`` — see :class:`PlanCache`; the
        session's resolved :class:`Flags` are the shape key's fourth
        item. A text of a cached shape is matched against its template;
        any other is scanned."""
        adts = self.db.catalog.adts
        registry, version, _table, symbols = self._operators
        if registry is not adts or version != adts.operators_version:
            symbols = self._lexer_symbols()
        found = self.plan_cache.templates.match(text)
        shape, params = found or Lexer(text, symbols).shape()
        return (
            shape,
            user,
            self.db.catalog.epoch,
            session.resolved_flags(),
        ) + session.plan_token(), params

    #: statement types that never mutate durable state (no implicit
    #: transaction needed even when other sessions' snapshots are open)
    _READ_ONLY_TYPES = (ast.Retrieve, ast.Explain, ast.SetOperation)
    #: transaction brackets manage transactions themselves
    _CONTROL_TYPES = (
        ast.BeginTransaction, ast.CommitTransaction, ast.AbortTransaction
    )

    @staticmethod
    def _statement_kind(statement: ast.Statement) -> str:
        if isinstance(statement, Interpreter._CONTROL_TYPES):
            return "control"
        if isinstance(statement, Interpreter._READ_ONLY_TYPES):
            return "read"
        return "write"

    def execute(self, text: str, user: str = "dba", session: Any = None) -> Result:
        """Run one or more statements; returns the last statement's result.

        ``session`` scopes the execution: its range declarations, flag
        overrides, and (under MVCC) its transaction snapshot. Without
        one, the shared default session is used — the seed's
        single-session semantics. Single-statement query scripts go
        through the plan cache, keyed by statement *shape*: on a hit the
        parser/binder/optimizer are skipped entirely and the prepared
        plan is re-executed under this text's literal values
        (authorization is still checked per execution). A miss prepares
        the plan, caches it, and runs it exactly as a hit does.
        """
        db = self.db
        if session is None:
            session = db.default_session
        previous = self._current_session
        self._current_session = session
        try:
            txn = session.txn
            if txn is not None and txn.doomed is not None:
                return self._execute_doomed(text, user, session)
            key = self._cache_key(text, user, session)
            shape_key, params = key
            flags = shape_key[3]
            cache = self.plan_cache
            plan = cache.get(key)
            if plan is not None:
                window = "read" if plan.apply is None else "write"
                return db.transactions.run(
                    session, window, self._run_plan,
                    plan, text, user, flags, "hit", params, session,
                )
            statements, literals = self._parse(text)
            if not statements:
                return Result(kind="empty", message="no statements")
            # the parser numbered the slots, the shape scan lifted the
            # values: a statement they disagree on runs uncached, as
            # scripts do
            if (
                len(statements) == 1
                and isinstance(statements[0], self._CACHEABLE)
                and literals == params
            ):
                return db.transactions.run(
                    session, self._statement_kind(statements[0]),
                    self._prepare_and_run, statements[0], key, text, user,
                    session,
                )
            result = Result(kind="empty")
            for statement in statements:
                result = db.transactions.run(
                    session, self._statement_kind(statement),
                    self.execute_statement, statement, user,
                )
            return result
        finally:
            self._current_session = previous

    def _execute_doomed(self, text: str, user: str, session: Any) -> Result:
        """A doomed transaction may only abort: its parked workspace is
        stale against newer commits and must never resume."""
        statements, _literals = self._parse(text)
        if not statements or not all(
            isinstance(s, ast.AbortTransaction) for s in statements
        ):
            raise SerializationError(
                f"transaction {session.txn.txn_id} aborted: "
                f"{session.txn.doomed} (run 'abort' to continue)"
            )
        result = Result(kind="empty")
        for statement in statements:
            result = self.db.transactions.run(
                session, "control", self.execute_statement, statement, user
            )
        return result

    def _prepare_and_run(
        self, statement: ast.Statement, key: tuple, text: str, user: str,
        session: Any,
    ) -> Result:
        """A plan-cache miss: prepare and cache the plan, then run it as
        a hit would."""
        shape_key, params = key
        flags = shape_key[3]
        plan = self._prepare(statement, flags, params)
        cache = self.plan_cache
        cache.put(key, plan)
        outcome = "miss" if cache.enabled else "off"
        return self._run_plan(plan, text, user, flags, outcome, params, session)

    def execute_statement(self, statement: ast.Statement, user: str) -> Result:
        """Dispatch one parsed statement."""
        handler = self._HANDLERS.get(type(statement))
        if handler is None:
            raise ExcessError(
                f"no handler for statement {type(statement).__name__}"
            )
        result = handler(self, statement, user)
        if isinstance(statement, self._DURABLE_TYPES):
            from repro.excess.printer import unparse

            self._log_durable(unparse(statement), user)
        return result

    def _log_durable(self, text: str, user: str) -> None:
        """Append a successfully executed mutating statement to the WAL
        of a durable database (buffered inside explicit — and implicit
        MVCC — transactions; the durability manager flushes the
        session's buffer as one record at commit). The statement is
        only acknowledged to the caller *after* this returns, so every
        acknowledged auto-commit is on disk."""
        durability = self.db.durability
        if durability is not None:
            durability.log_statement(text, user, session=self._session())

    # -- type expression builder ---------------------------------------------------------

    def build_type(
        self, expr: ast.TypeExpr, self_type: Optional[SchemaType] = None
    ) -> Type:
        """Resolve a type expression against the catalog.

        ``self_type`` supports self-referential definitions like
        ``Person.kids: {own ref Person}``.
        """
        if isinstance(expr, ast.BaseTypeExpr):
            if expr.name == "char":
                return CharType(expr.param or 1)
            return _BASE_TYPES[expr.name]
        if isinstance(expr, ast.EnumTypeExpr):
            return EnumType(tuple(expr.labels))
        if isinstance(expr, ast.NamedTypeExpr):
            name = expr.name
            if self_type is not None and name == self_type.name:
                return self_type
            if self.db.catalog.has_type(name):
                return self.db.catalog.schema_type(name)
            if self.db.catalog.adts.has_adt(name):
                return self.db.catalog.adts.adt(name)
            raise SchemaError(f"unknown type {name!r}")
        if isinstance(expr, ast.SetTypeExpr):
            return SetType(self.build_component(expr.element, self_type))
        if isinstance(expr, ast.ArrayTypeExpr):
            return ArrayType(
                self.build_component(expr.element, self_type), length=expr.length
            )
        if isinstance(expr, ast.TupleTypeExpr):
            return TupleType(
                [
                    (decl.name, self.build_component(decl.component, self_type))
                    for decl in expr.attributes
                ]
            )
        raise SchemaError(f"cannot build type from {type(expr).__name__}")

    def build_component(
        self, expr: ast.ComponentExpr, self_type: Optional[SchemaType] = None
    ) -> ComponentSpec:
        """Resolve a component (semantics + type) expression."""
        semantics = {
            "own": Semantics.OWN,
            "ref": Semantics.REF,
            "own ref": Semantics.OWN_REF,
        }[expr.semantics]
        return ComponentSpec(semantics, self.build_type(expr.type, self_type))

    # -- DDL handlers ------------------------------------------------------------------------

    def _do_define_type(self, statement: ast.DefineType, user: str) -> Result:
        # Two-phase construction so a type may reference itself (Person's
        # kids are Persons): allocate the SchemaType shell first, resolve
        # attribute types (self-references point at the shell), then run
        # the real initializer into the shell.
        shell = SchemaType.__new__(SchemaType)
        shell.name = statement.name  # visible to build_type during resolution
        attributes = [
            (decl.name, self.build_component(decl.component, self_type=shell))
            for decl in statement.attributes
        ]
        parents = [self.db.catalog.schema_type(p) for p in statement.parents]
        renames = [
            Rename(parent=r.parent, attribute=r.attribute, new_name=r.new_name)
            for r in statement.renames
        ]
        SchemaType.__init__(
            shell, statement.name, attributes, parents=parents, renames=renames
        )
        self.db.catalog.register_type(shell)
        return Result(
            kind="define", message=f"defined type {statement.name}"
        )

    def _do_create_named(self, statement: ast.CreateNamed, user: str) -> Result:
        spec = self.build_component(statement.component)
        key = tuple(statement.key) if statement.key else None
        self.db.create_named(statement.name, spec, key=key, user=user)
        return Result(kind="create", message=f"created {statement.name}")

    def _do_destroy(self, statement: ast.DestroyNamed, user: str) -> Result:
        self._check(user, Privilege.DELETE, statement.name)
        deleted = self.db.destroy_named(statement.name)
        return Result(
            kind="destroy",
            count=deleted,
            message=f"destroyed {statement.name} ({deleted} object(s) deleted)",
        )

    def _do_create_index(self, statement: ast.CreateIndex, user: str) -> Result:
        self._check(user, Privilege.DEFINE, statement.set_name)
        self.db.create_index(statement.set_name, statement.attribute, statement.kind)
        return Result(
            kind="index",
            message=(
                f"created {statement.kind} index on "
                f"{statement.set_name}.{statement.attribute}"
            ),
        )

    def _do_drop_index(self, statement: ast.DropIndex, user: str) -> Result:
        self._check(user, Privilege.DEFINE, statement.set_name)
        self.db.catalog.indexes.drop(
            statement.set_name, statement.attribute, statement.kind
        )
        return Result(
            kind="index",
            message=(
                f"dropped {statement.kind} index on "
                f"{statement.set_name}.{statement.attribute}"
            ),
        )

    def _do_range(self, statement: ast.RangeDecl, user: str) -> Result:
        # Validate the source binds before remembering the declaration.
        binder = self._binder()
        scope = Scope()
        query = BoundQuery()
        binder._bind_range_source(statement.source, scope, query)
        session = self._session()
        session.ranges[statement.variable] = statement
        session.ranges_epoch += 1
        # plans bound under the previous declaration of this variable are stale
        self.db.catalog.bump_epoch()
        kind = "universal range" if statement.universal else "range"
        return Result(
            kind="range",
            message=f"declared {kind} variable {statement.variable}",
        )

    def _do_grant(self, statement: ast.GrantStatement, user: str) -> Result:
        privilege = Privilege.parse(statement.privilege)
        if not self.db.authz.directory.has_group(statement.principal):
            self.db.authz.directory.add_user(statement.principal)
        self.db.authz.grant(
            statement.principal, privilege, statement.object_name, grantor=user
        )
        self.db.catalog.bump_epoch()
        return Result(
            kind="grant",
            message=(
                f"granted {privilege.value} on {statement.object_name} to "
                f"{statement.principal}"
            ),
        )

    def _do_revoke(self, statement: ast.RevokeStatement, user: str) -> Result:
        privilege = Privilege.parse(statement.privilege)
        revoked = self.db.authz.revoke(
            statement.principal, privilege, statement.object_name, revoker=user
        )
        self.db.catalog.bump_epoch()
        return Result(
            kind="revoke",
            message=(
                f"revoked {privilege.value} on {statement.object_name} from "
                f"{statement.principal}"
                if revoked
                else "no matching grant"
            ),
        )

    def _do_create_user(self, statement: ast.CreateUser, user: str) -> Result:
        self.db.authz.directory.add_user(statement.name)
        return Result(kind="user", message=f"created user {statement.name}")

    def _do_create_group(self, statement: ast.CreateGroup, user: str) -> Result:
        self.db.authz.directory.add_group(statement.name)
        return Result(kind="group", message=f"created group {statement.name}")

    def _do_add_to_group(self, statement: ast.AddToGroup, user: str) -> Result:
        self.db.authz.directory.add_member(statement.group, statement.member)
        self.db.catalog.bump_epoch()
        return Result(
            kind="group",
            message=f"added {statement.member} to group {statement.group}",
        )

    # -- functions and procedures -----------------------------------------------------------------

    def _build_params(self, decls: list[ast.ParamDecl]) -> list[FunctionParam]:
        params: list[FunctionParam] = []
        for decl in decls:
            if decl.type_name is not None:
                schema_type = self.db.catalog.schema_type(decl.type_name)
                spec = ComponentSpec(Semantics.REF, schema_type)
            else:
                assert decl.component is not None
                spec = self.build_component(decl.component)
            params.append(FunctionParam(name=decl.name, spec=spec))
        return params

    def _do_define_function(self, statement: ast.DefineFunction, user: str) -> Result:
        params = self._build_params(statement.params)
        if not params or not params[0].is_object or not isinstance(
            params[0].spec.type, SchemaType
        ):
            raise FunctionError(
                "the first parameter of an EXCESS function must be "
                "'<var> in <SchemaType>'"
            )
        returns = self.build_component(statement.returns)
        function = ExcessFunction(
            name=statement.name,
            type_name=params[0].spec.type.name,
            params=params,
            returns=returns,
            body=statement.body,
            fixed=statement.fixed,
            replace=statement.replace,
        )
        # Register before validating the body so recursive functions can
        # reference themselves; roll back if the body fails to bind.
        self.db.catalog.define_function(function)
        try:
            bind_function_body(function, self._binder())
        except Exception:
            self.db.catalog.undefine_function(function.type_name, function.name)
            raise
        self.db.authz.record_owner(statement.name, user)
        return Result(
            kind="define",
            message=(
                f"defined function {statement.name} on {function.type_name}"
            ),
        )

    def _do_define_procedure(
        self, statement: ast.DefineProcedure, user: str
    ) -> Result:
        params = self._build_params(statement.params)
        procedure = Procedure(
            name=statement.name, params=params, body=statement.body, definer=user
        )
        bind_procedure_body(procedure, self._binder())  # validate now
        self.db.catalog.define_procedure(procedure)
        self.db.authz.record_owner(statement.name, user)
        return Result(
            kind="define", message=f"defined procedure {statement.name}"
        )

    def _do_execute(self, statement: ast.ExecuteProcedure, user: str) -> Result:
        procedure = self.db.catalog.procedure(statement.name)
        self._check(user, Privilege.EXECUTE, statement.name)
        if len(statement.args) != len(procedure.params):
            raise ProcedureError(
                f"procedure {statement.name!r} takes {len(procedure.params)} "
                f"arguments, got {len(statement.args)}"
            )
        binder = self._binder()
        scope, query = binder._new_query_scope(statement.from_clauses, None)
        bound_args = [
            binder.bind_expression(arg, scope, query) for arg in statement.args
        ]
        if statement.where is not None:
            query.where = binder._bind_predicate(statement.where, scope, query)
        binder._finalize(scope, query)
        session = self._session()
        flags = session.resolved_flags()
        self._optimizer(flags).optimize(query)
        evaluator = Evaluator(
            self.db, user=procedure.definer, flags=flags, session=session
        )
        ctx = PlanContext(evaluator)
        names = [f"@{param.name}" for param in procedure.params]
        # the arguments are bound afresh per execute and run once per
        # binding: the tree-walker, not code generated for one use
        bindings = [
            {
                name: evaluator._eval(arg, env, ctx.tables)
                for name, arg in zip(names, bound_args)
            }
            for env in evaluator.query_envs(query, {}, ctx)
        ]
        return run_procedure(evaluator, procedure, bindings, binder)

    # -- DML handlers ------------------------------------------------------------------------------

    def _binder(self) -> Binder:
        return Binder(self.db.catalog, self.session_ranges)

    def _optimizer(self, flags: Flags) -> Optimizer:
        return Optimizer(
            self.db.catalog,
            enabled=flags.optimize,
            hash_joins=flags.hash_joins,
            cost_based=flags.cost_based,
            compile_mode=flags.compile_mode,
            exec_mode=flags.exec_mode,
            parallel_mode=flags.parallel_mode,
            workers=flags.workers,
        )

    def _prepare(
        self, statement: ast.Statement, flags: Flags,
        params: Optional[tuple] = None,
    ) -> _PreparedPlan:
        """Bind and optimize one query statement (the cacheable half).

        With ``params`` (the statement's literal values by slot, from
        the plan-cache path) numbered literals bind as parameter slots,
        so the plan can be re-executed under other values; it is still
        costed with these.  ``explain`` is never parameterised — its
        cached rows print literals and estimates — which leaves all its
        slots pinned.
        """
        if isinstance(statement, ast.Explain):
            plan = self._prepare_explain(statement, flags)
            plan.params = params or ()
            return plan
        slots = ParamSlots()
        binder = Binder(
            self.db.catalog,
            self.session_ranges,
            slots=slots if params is not None else None,
        )
        optimizer = self._optimizer(flags)
        if isinstance(statement, ast.Retrieve):
            kind, bound = "retrieve", binder.bind_retrieve(statement)
        elif isinstance(statement, ast.Append):
            kind, bound = "append", binder.bind_append(statement)
        elif isinstance(statement, ast.Delete):
            kind, bound = "delete", binder.bind_delete(statement)
        elif isinstance(statement, ast.Replace):
            kind, bound = "replace", binder.bind_replace(statement)
        elif isinstance(statement, ast.SetStatement):
            kind, bound = "set", binder.bind_set(statement)
        else:  # pragma: no cover
            raise ExcessError(
                f"not a query statement: {type(statement).__name__}"
            )
        report = optimizer.optimize(bound.query)
        # lower to the physical operator tree now, so cache hits re-execute
        # the prepared tree without re-lowering
        root = optimizer.lower(bound, report)
        retrieve = kind == "retrieve"
        parallel = (
            retrieve and flags.parallel_mode == "process" and flags.workers >= 2
        )
        return _PreparedPlan(
            kind=kind,
            bound=bound,
            report=report,
            plan_root=root,
            params=params or (),
            slots=slots,
            stats=plan_counters(root)[0],
            # an evaluator under the plan's flags is the context that
            # decides which region runs (and generates its function now)
            region=runnable_region(root, Evaluator(self.db, flags=flags)),
            columns=tuple(t.label for t in bound.targets) if retrieve else (),
            apply=None if retrieve else WRITES[kind],
            workers=flags.workers if parallel else 0,
            reads=tuple(sorted(self._read_names(bound.query))),
        )

    def _run_plan(
        self, plan: _PreparedPlan, text: Optional[str], user: str,
        flags: Flags, cache: str, params: tuple, session: Any,
    ) -> Result:
        """Run a prepared plan under ``flags`` and ``params`` — what a
        plan-cache hit executes, and a miss after preparing: the
        authorization checks (every execution, never cached), one
        evaluator, one drain of the plan root, one :class:`Result`.
        A write with ``text`` is logged to a durable database's WAL."""
        start = time.perf_counter()
        db = self.db
        kind = plan.kind
        if db.authz.enabled:
            self._authorize(plan, user)
        evaluator = Evaluator(db, user, flags, session, params)
        root = plan.plan_root
        if kind == "explain":
            message = plan.report.describe()
            if cache:
                message += f"; cache={cache}"
            result = Result(
                "explain",
                ["step", "variable", "source", "access", "quantifier",
                 "residual_predicates", "join"],
                list(plan.explain_rows),
                message=message,
            )
            if root is not None:
                # EXPLAIN shows estimates only (nothing ran)
                result.plan_tree = render_plan(
                    root,
                    actuals=False,
                    compile_mode=flags.compile_mode,
                    exec_mode=flags.exec_mode,
                )
        else:
            if plan.workers:
                evaluator.parallel = self._parallel(plan.workers)
            rows = evaluator.drain(
                root, plan.region, {}, evaluator, kind != "retrieve"
            )
            if plan.apply is None:
                result = Result("retrieve", list(plan.columns), rows)
                if plan.bound.into:
                    # the pipeline root is the StoreInto operator
                    result.message = root.message
            else:
                result = plan.apply(evaluator, plan.bound, rows, evaluator)
        result.plan = plan.report
        if root is not None:
            # the tree renders on first plan_tree access, with the actual
            # per-operator counts of this execution: a cached plan's live
            # counters are reset by its next execution, so they are
            # frozen here
            result._render = (
                root,
                None if kind == "explain" else snapshot_stats(plan.stats),
                flags,
                params,
            )
        result._exec_metrics = (
            evaluator.rows_scanned,
            evaluator.hash_builds,
            evaluator.hash_probes,
            evaluator.semi_builds,
            cache,
            cache == "hit" and params != plan.params,
            round((time.perf_counter() - start) * 1000.0, 3),
        )
        if plan.apply is not None and text is not None and db.durability is not None:
            self._log_durable(text, user)
        return result

    def _authorize(self, plan: _PreparedPlan, user: str) -> None:
        """The privileges a prepared statement needs, checked at every
        execution while authorization is enabled: SELECT on every set it
        reads, and its write's privilege on the set or object it
        changes."""
        kind = plan.kind
        if kind == "explain":
            return
        check = self.db.authz.check
        for name in plan.reads:
            check(user, Privilege.SELECT, name)
        bound = plan.bound
        if kind == "retrieve":
            return
        if kind == "append":
            if bound.target.kind == "named":
                check(user, Privilege.APPEND, bound.target.name)
            return
        if kind == "set":
            if bound.location[0] == "named":
                check(user, Privilege.REPLACE, bound.location[1])
            return
        if kind == "delete":
            privilege, variable = Privilege.DELETE, bound.variable
        else:  # replace: the variable (or named object) its target starts at
            privilege, probe = Privilege.REPLACE, bound.target
            while isinstance(probe, AttrStep):
                probe = probe.base
            if isinstance(probe, NamedValue):
                check(user, privilege, probe.name)
                return
            if not isinstance(probe, VarRef):
                return
            variable = probe.name
        for binding in bound.query.bindings:
            if binding.name == variable and isinstance(
                binding.source, NamedSetSource
            ):
                check(user, privilege, binding.source.set_name)

    def _run_query_statement(
        self, statement: ast.Statement, user: str
    ) -> Result:
        session = self._session()
        flags = session.resolved_flags()
        plan = self._prepare(statement, flags)
        return self._run_plan(plan, None, user, flags, "", plan.params, session)

    def _do_alter_type(self, statement: ast.AlterType, user: str) -> Result:
        from repro.core.evolution import alter_type

        self._check(user, Privilege.DEFINE, statement.name)
        adds = [
            (decl.name, self.build_component(decl.component))
            for decl in statement.adds
        ]
        message = alter_type(self.db, statement.name, adds, statement.drops)
        self.db.catalog.bump_epoch()
        return Result(kind="alter", message=message)

    def _do_begin(self, statement: ast.BeginTransaction, user: str) -> Result:
        self.db.transactions.begin(self._session())
        return Result(kind="transaction", message="transaction started")

    def _do_commit(self, statement: ast.CommitTransaction, user: str) -> Result:
        self.db.transactions.commit(self._session())
        return Result(kind="transaction", message="committed")

    def _do_analyze(self, statement: ast.Analyze, user: str) -> Result:
        """``analyze [SetName]`` — rebuild optimizer statistics.

        ``Database.analyze`` bumps the catalog epoch, so every cached
        plan costed under the previous statistics is invalidated.
        """
        bound = self._binder().bind_analyze(statement)
        if bound.set_name is not None:
            self._check(user, Privilege.SELECT, bound.set_name)
            analyzed = self.db.analyze(bound.set_name)
        else:
            analyzed = []
            for name in sorted(self.db.catalog.named_names()):
                if not self.db.catalog.named(name).is_set:
                    continue
                if self.db.authz.enabled:
                    try:
                        self.db.authz.check(user, Privilege.SELECT, name)
                    except AuthorizationError:
                        continue  # analyze-all skips unreadable sets
                analyzed.extend(self.db.analyze(name))
        message = (
            "analyzed " + ", ".join(analyzed) if analyzed else "analyzed 0 sets"
        )
        return Result(kind="analyze", count=len(analyzed), message=message)

    def _do_abort(self, statement: ast.AbortTransaction, user: str) -> Result:
        self.db.transactions.abort(self._session())
        # abort() already forces the epoch forward; dropping the entries
        # just keeps the LRU from carrying dead plans around
        self.plan_cache.clear()
        return Result(kind="transaction", message="aborted")

    def _do_set_operation(self, statement: ast.SetOperation, user: str) -> Result:
        """Evaluate retrieves and combine their row sets.

        ``union`` eliminates duplicates (set semantics); ``intersect``
        keeps rows present in both; ``minus`` removes the right side's
        rows from the left. Column labels come from the first retrieve;
        arity must match.
        """
        from repro.excess.evaluator import canonical_key

        def run(retrieve: ast.Retrieve) -> Result:
            return self._run_query_statement(retrieve, user)

        left = run(statement.left)
        rows = list(left.rows)
        keys = [tuple(canonical_key(v) for v in row) for row in rows]
        for op, term in statement.terms:
            right = run(term)
            if right.columns and left.columns and len(right.columns) != len(
                left.columns
            ):
                raise BindError(
                    f"{op}: operand arities differ "
                    f"({len(left.columns)} vs {len(right.columns)})"
                )
            right_keys = {
                tuple(canonical_key(v) for v in row) for row in right.rows
            }
            if op == "union":
                seen = set(keys)
                for row in right.rows:
                    key = tuple(canonical_key(v) for v in row)
                    if key not in seen:
                        seen.add(key)
                        rows.append(row)
                        keys.append(key)
                # dedupe the left side too (set semantics)
                deduped: list[tuple] = []
                deduped_keys: list[tuple] = []
                seen2: set = set()
                for row, key in zip(rows, keys):
                    if key not in seen2:
                        seen2.add(key)
                        deduped.append(row)
                        deduped_keys.append(key)
                rows, keys = deduped, deduped_keys
            elif op == "intersect":
                filtered = [
                    (row, key) for row, key in zip(rows, keys)
                    if key in right_keys
                ]
                rows = [r for r, _k in filtered]
                keys = [k for _r, k in filtered]
            else:  # minus
                filtered = [
                    (row, key) for row, key in zip(rows, keys)
                    if key not in right_keys
                ]
                rows = [r for r, _k in filtered]
                keys = [k for _r, k in filtered]
        return Result(kind="retrieve", columns=left.columns, rows=rows)

    def _prepare_explain(
        self, statement: ast.Explain, flags: Flags
    ) -> _PreparedPlan:
        """Bind and optimize the inner statement; pre-render plan rows."""
        from repro.excess.binder import (
            IteratorSource,
            NamedSetSource,
            PathSource,
        )

        inner = statement.statement
        binder = self._binder()
        if isinstance(inner, ast.Retrieve):
            bound_stmt: Any = binder.bind_retrieve(inner)
        elif isinstance(inner, ast.Append):
            bound_stmt = binder.bind_append(inner)
        elif isinstance(inner, ast.Delete):
            bound_stmt = binder.bind_delete(inner)
        elif isinstance(inner, ast.Replace):
            bound_stmt = binder.bind_replace(inner)
        elif isinstance(inner, ast.SetStatement):
            bound_stmt = binder.bind_set(inner)
        else:
            raise ExcessError(
                f"explain supports query statements, not "
                f"{type(inner).__name__}"
            )
        query = bound_stmt.query
        optimizer = self._optimizer(flags)
        report = optimizer.optimize(query)
        root = optimizer.lower(bound_stmt, report)
        rows: list[tuple] = []
        for position, binding in enumerate(query.bindings, start=1):
            source = binding.source
            if isinstance(source, NamedSetSource):
                origin = f"set {source.set_name}"
            elif isinstance(source, PathSource):
                origin = f"path {source.parent}.{'.'.join(source.steps)}"
            elif isinstance(source, IteratorSource):
                origin = f"iterator {source.function.name}"
            else:  # pragma: no cover
                origin = "?"
            access = binding.access
            if binding.access == "index" and binding.index_descriptor is not None:
                access = (
                    f"index {binding.index_descriptor.name} ({binding.index_op})"
                )
            quantifier = "forall" if binding.universal else "exists"
            join = binding.join_detail or binding.join_strategy
            rows.append(
                (
                    position,
                    binding.name,
                    origin,
                    access,
                    quantifier,
                    len(binding.residual),
                    join,
                )
            )
        return _PreparedPlan(
            kind="explain",
            bound=query,
            report=report,
            explain_rows=rows,
            plan_root=root,
        )

    def _do_explain(self, statement: ast.Explain, user: str) -> Result:
        """Bind and optimize the inner statement; report the plan."""
        session = self._session()
        flags = session.resolved_flags()
        plan = self._prepare_explain(statement, flags)
        return self._run_plan(plan, None, user, flags, "", (), session)

    # -- authorization helpers ----------------------------------------------------------------------

    def _check(self, user: str, privilege: Privilege, object_name: str) -> None:
        if self.db.authz.enabled:
            self.db.authz.check(user, privilege, object_name)

    def _read_names(self, query: BoundQuery) -> set[str]:
        names: set[str] = set()
        for binding in query.bindings:
            if isinstance(binding.source, NamedSetSource):
                names.add(binding.source.set_name)
        for aggregate in query.aggregates:
            for binding in aggregate.inner_bindings:
                if isinstance(binding.source, NamedSetSource):
                    names.add(binding.source.set_name)
        return names

    # -- dispatch table --------------------------------------------------------------------------------

    _HANDLERS: dict[type, Any] = {}


Interpreter._HANDLERS = {
    ast.DefineType: Interpreter._do_define_type,
    ast.CreateNamed: Interpreter._do_create_named,
    ast.DestroyNamed: Interpreter._do_destroy,
    ast.CreateIndex: Interpreter._do_create_index,
    ast.DropIndex: Interpreter._do_drop_index,
    ast.RangeDecl: Interpreter._do_range,
    ast.GrantStatement: Interpreter._do_grant,
    ast.RevokeStatement: Interpreter._do_revoke,
    ast.CreateUser: Interpreter._do_create_user,
    ast.CreateGroup: Interpreter._do_create_group,
    ast.AddToGroup: Interpreter._do_add_to_group,
    ast.DefineFunction: Interpreter._do_define_function,
    ast.DefineProcedure: Interpreter._do_define_procedure,
    ast.ExecuteProcedure: Interpreter._do_execute,
    ast.Retrieve: Interpreter._run_query_statement,
    ast.SetOperation: Interpreter._do_set_operation,
    ast.AlterType: Interpreter._do_alter_type,
    ast.BeginTransaction: Interpreter._do_begin,
    ast.CommitTransaction: Interpreter._do_commit,
    ast.AbortTransaction: Interpreter._do_abort,
    ast.Analyze: Interpreter._do_analyze,
    ast.Explain: Interpreter._do_explain,
    ast.Append: Interpreter._run_query_statement,
    ast.Delete: Interpreter._run_query_statement,
    ast.Replace: Interpreter._run_query_statement,
    ast.SetStatement: Interpreter._run_query_statement,
}

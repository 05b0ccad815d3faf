"""Exception hierarchy for the EXTRA/EXCESS engine.

Every error raised by the public API derives from :class:`ExtraError` so
applications can catch engine failures with a single handler while still
distinguishing the broad failure classes the paper's design implies:
schema/type errors, query language errors (lexical, syntactic, semantic),
integrity violations, storage faults, and authorization denials.
"""

from __future__ import annotations


class ExtraError(Exception):
    """Base class for all EXTRA/EXCESS engine errors."""


class TypeSystemError(ExtraError):
    """A type construction or type compatibility rule was violated.

    Raised for malformed type constructors (e.g. a fixed array with a
    non-positive length) and for assignments between incompatible types.
    """


class SchemaError(ExtraError):
    """A schema-level definition is invalid.

    Covers duplicate type names, unknown parent types in an ``inherits``
    clause, and unresolved multiple-inheritance attribute conflicts (the
    paper resolves these only via explicit renaming; there is *no*
    automatic resolution, following ORION's diagnosis but not its cure).
    """


class InheritanceConflictError(SchemaError):
    """Two parent types contribute conflicting attributes or functions.

    Per the paper (Figure 3 discussion), conflicts must be resolved by
    explicit renaming; this error lists the conflicting names so the user
    can add ``with rename`` clauses.
    """

    def __init__(self, type_name: str, conflicts: list[str]):
        self.type_name = type_name
        self.conflicts = list(conflicts)
        names = ", ".join(sorted(self.conflicts))
        super().__init__(
            f"type {type_name!r} inherits conflicting definitions for: {names}; "
            "resolve with explicit renaming (no automatic resolution is provided)"
        )


class CatalogError(ExtraError):
    """A catalog lookup or registration failed (unknown or duplicate name)."""


class IntegrityError(ExtraError):
    """A data integrity rule was violated.

    Covers referential integrity (a ``ref`` must denote an existing object
    or be null), ``own ref`` exclusivity (a component object cannot be
    owned by two parents, as with ORION composite objects), and key
    constraints attached to set instances.
    """


class OwnershipError(IntegrityError):
    """An ``own ref`` exclusivity rule was violated.

    A Person in the ``kids`` set of one Employee cannot simultaneously be
    in the ``kids`` set of another Employee (paper §2.2).
    """


class ExcessError(ExtraError):
    """Base class for EXCESS query language errors."""


class LexicalError(ExcessError):
    """The query text contains an unrecognizable token."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        super().__init__(f"{message} (line {line}, column {column})")


class ParseError(ExcessError):
    """The query text is not a well-formed EXCESS statement."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        super().__init__(f"{message} (line {line}, column {column})")


class BindError(ExcessError):
    """Semantic analysis failed: unknown names, type mismatches, or
    constructs used outside their legal context (e.g. retrieving a
    universally quantified range variable in a target list)."""


class EvaluationError(ExcessError):
    """A runtime failure during query evaluation (e.g. array index out of
    bounds, division by zero surfaced to the user)."""


class StorageError(ExtraError):
    """A storage manager failure (page overflow, unknown OID, bad file)."""


class UnknownObjectError(StorageError):
    """An OID does not denote a live object (it was never allocated or has
    been deleted; deleted targets make ``ref`` values read as null)."""

    def __init__(self, oid: int):
        self.oid = oid
        super().__init__(f"no live object with oid {oid}")


class AuthorizationError(ExtraError):
    """The current user lacks the privilege required by a statement."""

    def __init__(self, user: str, privilege: str, obj: str):
        self.user = user
        self.privilege = privilege
        self.object_name = obj
        super().__init__(
            f"user {user!r} lacks {privilege!r} privilege on {obj!r}"
        )


class ProcedureError(ExcessError):
    """A stored procedure definition or invocation is invalid."""


class FunctionError(ExcessError):
    """An EXCESS function definition or invocation is invalid."""


class SerializationError(IntegrityError):
    """A transaction lost a snapshot-isolation conflict.

    Raised when first-committer-wins validation (or the eager
    first-updater check) finds that another transaction committed a
    change to state this transaction read-modified under an older
    snapshot. The losing transaction is aborted; the client should
    retry it against a fresh snapshot.
    """


class StatementTimeout(ExtraError):
    """A statement exceeded its session's ``statement_timeout_ms``.

    Raised cooperatively per pulled row (and at fused-pipeline
    epilogues), so the engine is always at a consistent point when the
    statement unwinds: MVCC workspaces, the version log, and the plan
    cache are untouched by the cancellation itself. The error is
    **retryable** — the statement had no effect (reads) or its implicit
    transaction was discarded (writes), so the client may simply run it
    again, ideally with a larger timeout.

    The message-only constructor keeps instances picklable, which is
    what lets parallel workers propagate a timeout across the process
    boundary byte-identically.
    """


class ServerOverloadedError(ExtraError):
    """The server refused work to protect itself (admission control).

    Raised when a connection arrives past ``max_connections`` or a
    statement arrives while the pending-statement queue is full (or the
    server is draining for shutdown). Always **retryable**: nothing was
    executed, so the client should back off and try again.
    """

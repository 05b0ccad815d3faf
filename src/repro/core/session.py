"""Per-session transaction contexts and MVCC snapshot isolation.

The seed engine held all mutable per-session state — the open
transaction, ``session_ranges``, the current user — directly on
:class:`~repro.core.database.Database` and the interpreter, so only one
logical session could exist. This module factors that state into
:class:`SessionContext` objects and builds multi-session **snapshot
isolation** on top, using the bidirectional swap records of
:mod:`repro.core.undo`:

Workspace parking
    Statements execute one at a time (the server serializes them), and
    at most one open transaction's uncommitted writes are applied to
    the live database: the executing session's. When another session
    runs a statement, the manager **parks** the previous transaction's
    workspace (applies its swap records once, reversed — live state
    returns to begin-time) and **resumes** it later (applies them
    forward once). Each swap is O(state touched by that transaction).

Version log
    When a transaction commits while other transactions remain open,
    its swap records — stamped with a commit timestamp — are retained
    as one :class:`_VersionEntry`. A reader whose snapshot predates the
    entry *rewinds* it (swap out, newest first) around each of its
    statements, reconstructing the database exactly as of its
    snapshot, then rolls it forward (oldest first) afterwards.

Conflict detection (first-committer-wins)
    Writes are validated at two points. Eagerly: the undo log's
    ``on_first_touch`` hook fires before a container is first mutated;
    if a committed version newer than the transaction's snapshot
    already touched that container, the write raises
    :class:`~repro.errors.SerializationError` before mutating anything
    (this also guarantees a transaction's workspace never overlaps the
    version entries it rewinds, which is what makes rewinding sound).
    At commit: the write set is validated against versions committed
    after the snapshot, and every *other* open transaction whose write
    set intersects the committing one is marked **doomed** — it can
    only abort, never resume (its parked before-images are stale).

This is the only transaction path: there is no whole-database snapshot
mode and no shared-workspace mode beside it. Instead of a second
implementation, the Hypothesis state machine in
``tests/property/test_session_model.py`` checks it against a
pure-Python dict model.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Iterator, Optional

from repro.errors import IntegrityError, SerializationError
from repro.util import faultinject

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.database import Database
    from repro.core.undo import UndoLog

__all__ = ["SessionContext", "Transaction", "TransactionManager"]

# Commit-path crash points (see util.faultinject): between write-set
# validation and the WAL append there are three distinct windows a
# process kill must leave recoverable.
faultinject.register("txn.commit.before_validate")
faultinject.register("txn.commit.after_validate")
faultinject.register("txn.commit.publish")


class Transaction:
    """One open transaction: a snapshot timestamp plus a workspace."""

    __slots__ = ("txn_id", "snapshot_ts", "undo", "doomed", "begin_epoch")

    def __init__(self, txn_id: int, snapshot_ts: int, undo: "UndoLog",
                 begin_epoch: int = 0):
        self.txn_id = txn_id
        #: catalog epoch at begin; once it moves (this transaction's own
        #: DDL/index/range/grant, or anyone else's) the transaction may
        #: see a catalog no other session sees, so its plans go private
        self.begin_epoch = begin_epoch
        #: commit-clock value at begin; this transaction sees exactly
        #: the versions with ``commit_ts <= snapshot_ts`` plus its own
        self.snapshot_ts = snapshot_ts
        self.undo = undo
        #: non-None once this transaction lost a conflict; it may only
        #: abort (its parked workspace is stale against newer commits)
        self.doomed: Optional[str] = None


class SessionContext:
    """All mutable per-session state: user, range declarations, flag
    overrides, and the open transaction."""

    def __init__(self, database: "Database", user: str, session_id: int,
                 name: Optional[str] = None, is_default: bool = False):
        self.db = database
        self.user = user
        self.id = session_id
        self.name = name or f"s{session_id}"
        #: the default session backs the single-session Python API
        #: (``db.execute``, ``db.begin``); its range declarations are
        #: shared engine-wide exactly like the seed's, so its plan-cache
        #: token stays empty outside transactions (full back-compat)
        self.is_default = is_default
        #: per-session EXCESS range declarations (``range of e is ...``)
        self.ranges: dict[str, Any] = {}
        #: bumped whenever a range is (re)declared; part of the plan
        #: cache key so re-declaring a range can never serve stale plans
        self.ranges_epoch = 0
        #: per-session ablation/flag overrides (``optimize``,
        #: ``compile_mode``, ``exec_mode``, ``batch_size``, ...);
        #: unset keys inherit the interpreter's global attribute
        self.overrides: dict[str, Any] = {}
        self.txn: Optional[Transaction] = None
        self.closed = False

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        txn = f" txn={self.txn.txn_id}" if self.txn else ""
        return f"<SessionContext {self.name} user={self.user!r}{txn}>"

    # -- flags -------------------------------------------------------------

    def flag(self, attribute: str) -> Any:
        """Resolve a session flag: the override if set, else the
        interpreter's global attribute."""
        if attribute in self.overrides:
            return self.overrides[attribute]
        return getattr(self.db.interpreter, attribute)

    # -- statement execution ----------------------------------------------

    def execute(self, text: str) -> Any:
        """Run EXCESS statements in this session (as this user, against
        this session's snapshot)."""
        return self.db.interpreter.execute(text, user=self.user, session=self)

    # -- transaction control ----------------------------------------------

    def begin(self) -> None:
        """Open a transaction in this session."""
        self.db.transactions.begin(self)

    def commit(self) -> None:
        """Commit this session's transaction (first-committer-wins)."""
        self.db.transactions.commit(self)

    def abort(self) -> None:
        """Abort this session's transaction."""
        self.db.transactions.abort(self)

    @property
    def in_transaction(self) -> bool:
        """True while this session has an open transaction."""
        return self.txn is not None

    def close(self) -> None:
        """End the session, aborting any open transaction."""
        if self.closed:
            return
        if self.txn is not None:
            try:
                self.db.transactions.abort(self)
            except IntegrityError:  # pragma: no cover - defensive
                pass
        self.closed = True
        self.db.transactions.forget(self)

    # -- plan-cache identity ----------------------------------------------

    def plan_token(self) -> tuple:
        """The part of the plan-cache key contributed by session state.

        Sessions with no private range declarations, no catalog-private
        transaction, and no flag overrides share the same (empty) token
        and therefore cache entries. A transaction splits the key only
        once the catalog epoch has moved since it began — its own first
        DDL/index/range/grant, or another session's: from then on it may
        bind against a catalog no one else sees, and plans bound there
        must never be served to other sessions (nor survive it). Until
        then its statements share plans like anyone's. The default
        session's ranges are engine-shared and invalidate via the global
        catalog epoch, so they contribute nothing — keeping its keys
        identical to the seed's.
        """
        ranges = (
            None if (self.is_default or not self.ranges)
            else (self.id, self.ranges_epoch)
        )
        txn = self.txn
        txn_id = (
            txn.txn_id
            if txn is not None and self.db.catalog.epoch != txn.begin_epoch
            else None
        )
        overrides = tuple(sorted(self.overrides.items())) if self.overrides else None
        if ranges is None and txn_id is None and overrides is None:
            return ()
        return (ranges, txn_id, overrides)


class _VersionEntry:
    """One committed transaction retained for snapshot readers."""

    __slots__ = ("commit_ts", "txn_id", "keys", "undo")

    def __init__(self, commit_ts: int, txn_id: int, keys: frozenset,
                 undo: "UndoLog"):
        self.commit_ts = commit_ts
        self.txn_id = txn_id
        self.keys = keys
        self.undo = undo

    def rewind(self) -> None:
        """Swap this commit *out* of the live database."""
        self.undo.park()

    def roll_forward(self) -> None:
        """Swap this commit back *in*."""
        self.undo.resume()


class TransactionManager:
    """Owns the commit clock, the version log, and workspace parking.

    One per :class:`Database`; never pickled (undo workspaces do not
    survive snapshots, so a loaded database starts a fresh manager).
    """

    def __init__(self, database: "Database"):
        self.db = database
        #: monotonically increasing commit timestamp; snapshots are
        #: clock values, versions are stamped with post-increment reads
        self.clock = 0
        self._next_txn = 1
        self._next_session = 1
        #: live sessions by id (the default session included)
        self.sessions: dict[int, SessionContext] = {}
        #: the transaction whose workspace is applied to live state
        #: (None when every open transaction is parked)
        self.applied: Optional[Transaction] = None
        #: committed versions retained for open snapshot readers,
        #: oldest first
        self.versions: list[_VersionEntry] = []
        #: statement-wrapper reentrancy depth (nested execute calls —
        #: procedure bodies, recovery replay — run inside the outer
        #: statement's snapshot window)
        self._depth = 0

    # -- sessions ----------------------------------------------------------

    def create_session(
        self, user: str, name: Optional[str] = None, is_default: bool = False
    ) -> SessionContext:
        """Register a new session."""
        session = SessionContext(
            self.db, user, self._next_session, name, is_default=is_default
        )
        self._next_session += 1
        self.sessions[session.id] = session
        return session

    def forget(self, session: SessionContext) -> None:
        """Drop a closed session from the registry."""
        self.sessions.pop(session.id, None)
        self._gc_versions()

    def _others_with_open_txn(self, session: SessionContext) -> list[Transaction]:
        return [
            s.txn
            for s in self.sessions.values()
            if s is not session and s.txn is not None
        ]

    # -- parking -----------------------------------------------------------

    def activate(self, session: SessionContext) -> None:
        """Make ``session``'s workspace (if any) the applied one,
        parking whichever other transaction currently holds live state."""
        txn = session.txn
        if self.applied is txn and (txn is None or not txn.undo.parked):
            return
        if self.applied is not None and self.applied is not txn:
            parked = self.applied
            self.applied = None
            self.db._detach_undo()
            parked.undo.park()
        if txn is not None and txn.doomed is None:
            txn.undo.resume()
            self.db._attach_undo(txn.undo)
            self.applied = txn

    # -- the per-statement snapshot window ---------------------------------

    @contextmanager
    def statement(self, session: SessionContext,
                  kind: str = "write") -> Iterator[None]:
        """Run one statement under ``session``'s snapshot.

        Parks any other session's workspace, resumes this session's,
        rewinds committed versions newer than the snapshot, and — when
        another transaction is open elsewhere — wraps a bare mutating
        statement in an implicit transaction so its effects become a
        version entry that open snapshot readers can rewind. With no
        concurrent transactions this is a handful of attribute checks.

        ``kind`` is the interpreter's statement classification:
        ``"control"`` (begin/commit/abort — manage transactions
        themselves, so no implicit transaction and no rewinding),
        ``"read"`` (needs the snapshot but never an implicit
        transaction), or ``"write"`` (the full treatment). Nested
        statements (procedure bodies, recovery replay) run inside the
        outer statement's window, like control statements.
        """
        if self._depth > 0 or kind == "control":
            self._depth += 1
            try:
                yield
            finally:
                self._depth -= 1
            return
        self._depth += 1
        implicit = False
        rewound: list[_VersionEntry] = []
        try:
            self.activate(session)
            txn = session.txn
            if txn is None and kind == "write" and self._needs_versioning(session):
                self.begin(session)
                implicit = True
                txn = session.txn
            if txn is not None and self.versions:
                snapshot = txn.snapshot_ts
                for entry in reversed(self.versions):
                    if entry.commit_ts > snapshot:
                        entry.rewind()
                        rewound.append(entry)  # newest first
            try:
                yield
            finally:
                for entry in reversed(rewound):  # oldest first
                    entry.roll_forward()
                rewound = []
            if implicit:
                self.commit(session)
                implicit = False
        finally:
            self._depth -= 1
            if implicit and session.txn is not None:
                # the statement (or its commit) failed: discard the
                # implicit transaction so the failure leaves no residue
                try:
                    self.abort(session)
                except IntegrityError:  # pragma: no cover - defensive
                    pass

    def _needs_versioning(self, session: SessionContext) -> bool:
        """True when another session holds a live open transaction, so
        this session's writes must be versioned for it."""
        return any(
            t.doomed is None for t in self._others_with_open_txn(session)
        )

    # -- begin / commit / abort --------------------------------------------

    def begin(self, session: SessionContext) -> None:
        """Open a transaction in ``session``."""
        if session.txn is not None:
            raise IntegrityError("a transaction is already open")
        from repro.core.undo import UndoLog

        self.activate(session)  # park any other applied workspace
        undo = UndoLog(self.db)
        txn = Transaction(
            self._next_txn, self.clock, undo, begin_epoch=self.db.catalog.epoch
        )
        self._next_txn += 1
        undo.on_first_touch = self._first_touch_check(txn)
        session.txn = txn
        self.db._attach_undo(undo)
        self.applied = txn
        if self.db.durability is not None:
            self.db.durability.on_begin(session)

    def _first_touch_check(self, txn: Transaction):
        """The eager first-updater-wins hook installed on a
        transaction's undo log: raises before the first mutation of any
        container a newer committed version already touched."""

        def check(key: tuple) -> None:
            for entry in self.versions:
                if entry.commit_ts > txn.snapshot_ts and key in entry.keys:
                    txn.doomed = (
                        f"write-write conflict on {key!r}: transaction "
                        f"{entry.txn_id} committed after this snapshot"
                    )
                    raise SerializationError(
                        f"transaction {txn.txn_id} aborted: {txn.doomed}"
                    )

        return check

    def commit(self, session: SessionContext) -> None:
        """Commit ``session``'s transaction.

        Order of operations: validate the write set against versions
        committed after the snapshot (first-committer-wins), doom
        overlapping open transactions, stamp and retain the version
        entry, then append the durable commit record. Crash points mark
        each window.
        """
        txn = session.txn
        if txn is None:
            raise IntegrityError("no transaction is open")
        if txn.doomed is not None:
            reason = txn.doomed
            self.abort(session)
            raise SerializationError(f"transaction {txn.txn_id} aborted: {reason}")
        self.activate(session)  # ensure the workspace is applied
        undo = txn.undo
        faultinject.crash_point("txn.commit.before_validate")
        write_set = undo.write_set()
        for entry in self.versions:
            if entry.commit_ts > txn.snapshot_ts and entry.keys & write_set:
                overlap = sorted(map(repr, entry.keys & write_set))[0]
                self.abort(session)
                raise SerializationError(
                    f"transaction {txn.txn_id} aborted: write-write "
                    f"conflict on {overlap} with transaction "
                    f"{entry.txn_id} (first committer wins)"
                )
        faultinject.crash_point("txn.commit.after_validate")
        undo.on_first_touch = None
        self.db._detach_undo()
        if self.applied is txn:
            self.applied = None
        session.txn = None
        self.clock += 1
        commit_ts = self.clock
        readers = []
        for other in self._others_with_open_txn(session):
            if other.doomed is not None:
                continue
            if write_set and other.undo.write_set() & write_set:
                # first-committer-wins: an open transaction that wrote an
                # intersecting container can no longer commit (and its
                # parked before-images are stale, so it may not resume)
                other.doomed = (
                    f"write-write conflict: transaction {txn.txn_id} "
                    "committed an overlapping write set first"
                )
            else:
                readers.append(other)
        if readers and undo.records:
            self.versions.append(
                _VersionEntry(commit_ts, txn.txn_id, frozenset(write_set), undo)
            )
        else:
            # the log dies here; an evicting object cache may release
            # the residency pins its closures held
            undo.release_pins()
        faultinject.crash_point("txn.commit.publish")
        # Other sessions' caches (plans, memoized hash builds) may hold
        # state computed against the pre-commit database: move the data
        # version (always, for write transactions) and the catalog epoch
        # (when the catalog changed) so they can never be served stale.
        if undo.records:
            self.db.data_version += 1
        if undo.catalog_touched:
            self.db.catalog.bump_epoch()
        if self.db.durability is not None:
            self.db.durability.on_commit(session, txn_id=txn.txn_id)
        self._gc_versions()

    def abort(self, session: SessionContext) -> None:
        """Abort ``session``'s transaction, discarding its workspace."""
        txn = session.txn
        if txn is None:
            raise IntegrityError("no transaction is open")
        seen_epoch = self.db.catalog.epoch
        seen_version = self.db.data_version
        session.txn = None
        if self.applied is txn:
            self.applied = None
            self.db._detach_undo()
            txn.undo.rollback()
        else:
            # the workspace is parked — swapped out of live state — so
            # discarding the log *is* the abort
            txn.undo.release_pins()
        # Force the catalog epoch and data version past every value
        # observed during the transaction: plans and memoized builds
        # cached against rolled-back state must never be served again.
        self.db.catalog._epoch = max(self.db.catalog.epoch, seen_epoch) + 1
        self.db.data_version = max(self.db.data_version, seen_version) + 1
        if self.db.durability is not None:
            self.db.durability.on_abort(session)
        self._gc_versions()

    # -- diagnostics -------------------------------------------------------

    def introspect(self) -> dict:
        """A leak-detection snapshot for tests and chaos harnesses:
        session/transaction/version counts plus whether any workspace
        is applied or parked. A quiesced engine (no open transactions)
        must show zero open transactions, zero parked workspaces, an
        empty version log, and no applied workspace."""
        open_txns = [
            s.txn for s in self.sessions.values() if s.txn is not None
        ]
        return {
            "sessions": len(self.sessions),
            "open_transactions": len(open_txns),
            "doomed_transactions": sum(
                1 for t in open_txns if t.doomed is not None
            ),
            "parked_workspaces": sum(
                1 for t in open_txns if t.undo.parked
            ),
            "version_entries": len(self.versions),
            "applied": self.applied is not None,
        }

    # -- version-log garbage collection ------------------------------------

    def _gc_versions(self) -> None:
        """Drop version entries no open snapshot can still rewind."""
        if not self.versions:
            return
        snapshots = [
            s.txn.snapshot_ts
            for s in self.sessions.values()
            if s.txn is not None and s.txn.doomed is None
        ]
        if not snapshots:
            for entry in self.versions:
                entry.undo.release_pins()
            self.versions.clear()
            return
        horizon = min(snapshots)
        if self.versions and self.versions[0].commit_ts <= horizon:
            kept = []
            for entry in self.versions:
                if entry.commit_ts > horizon:
                    kept.append(entry)
                else:
                    entry.undo.release_pins()
            self.versions = kept

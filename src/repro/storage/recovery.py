"""Crash recovery: durable open, commit logging, checkpointing.

The EXODUS storage manager owned "recovery and a form of versioning for
large storage objects" (paper §2); this module reproduces the user-level
contract for the whole engine with a *logical* redo log:

* :func:`open_database` (``Database.open``) roots a database in a
  directory holding a checkpoint snapshot (``snapshot.db``) and a
  write-ahead log of committed statements (``wal.log``). Opening loads
  the latest snapshot, repairs any torn tail on the log (CRC-detected,
  truncated at the last valid record), and replays the committed suffix
  through the EXCESS interpreter.
* :class:`DurabilityManager` logs every top-level mutating statement at
  commit time: auto-committed statements append (and fsync) one record
  each; statements inside an explicit transaction buffer in memory and
  flush as a **single** record on commit — so replay can never apply
  half a transaction. Aborted work is never logged.
* ``checkpoint()`` writes a new snapshot carrying the last logged LSN in
  its footer, then rotates the log. A crash between the two is safe:
  replay skips records at or below the snapshot's LSN.
* Replay follows commit order, but under snapshot isolation a
  transaction's statements ran against its *snapshot*, not against the
  commits that overtook it. Such a record carries the last LSN its
  snapshot held; replay begins the transaction right after that record,
  runs its statements there, and commits it at its own LSN — the same
  interleaving the live engine saw.

The crash matrix (see ``tests/integration/test_faultinjection.py``)
drives a :class:`~repro.util.faultinject.SimulatedCrash` through every
registered crash point and checks the two invariants that define the
contract: every *acknowledged* commit survives recovery, and no
*unacknowledged* work does.
"""

from __future__ import annotations

import os
from typing import Any

from repro.errors import StorageError
from repro.storage.persistence import read_snapshot, save_snapshot
from repro.storage.wal import WriteAheadLog, read_wal, repair_torn_tail
from repro.util import faultinject

__all__ = [
    "DurabilityManager",
    "open_database",
    "SNAPSHOT_NAME",
    "WAL_NAME",
    "PAGES_NAME",
]

SNAPSHOT_NAME = "snapshot.db"
WAL_NAME = "wal.log"
PAGES_NAME = "pages.data"

faultinject.register("commit.before_log")
faultinject.register("commit.after_log")
faultinject.register("checkpoint.before_snapshot")
faultinject.register("checkpoint.before_rotate")
faultinject.register("checkpoint.after_rotate")


class DurabilityManager:
    """Bridges the interpreter's commit points to the write-ahead log."""

    def __init__(self, database: Any, directory: str, wal: WriteAheadLog):
        self.db = database
        self.directory = directory
        self.wal = wal
        #: set while recovery replays the log, so replayed statements are
        #: never appended again (recovery attaches the manager only after
        #: replay, making this a second line of defense)
        self.replaying = False
        #: session id → statements of that session's open transaction,
        #: flushed as one record on commit and dropped on abort
        self._pending: dict[int, list[tuple[str, str]]] = {}
        #: session id → last LSN durable when its transaction began
        self._snapshots: dict[int, int] = {}

    # -- commit-time logging -----------------------------------------------

    def log_statement(self, text: str, user: str, session: Any = None) -> None:
        """Record one successfully executed mutating statement.

        Inside a transaction (explicit, or the implicit one MVCC wraps
        around concurrent auto-commits) the statement only buffers in
        its session's slot; the engine's acknowledgement of the
        *statement* promises nothing until commit. Outside one, the
        statement auto-commits and the record is on disk before the
        caller sees the result.
        """
        if self.replaying:
            return
        if session is None:
            session = self.db.default_session
        if session.txn is not None:
            self._pending.setdefault(session.id, []).append((user, text))
            return
        faultinject.crash_point("commit.before_log")
        self.wal.commit([(user, text)], session=session.name)
        faultinject.crash_point("commit.after_log")

    def on_begin(self, session: Any) -> None:
        """Remember which logged commits ``session``'s new snapshot holds."""
        self._snapshots[session.id] = self.wal.next_lsn - 1

    def on_commit(self, session: Any = None, txn_id: Any = None) -> None:
        """Flush one session's transaction statements as one atomic
        record (stamped with the transaction id and session name, and
        with its snapshot LSN when other commits were logged since)."""
        if session is None:
            session = self.db.default_session
        entries = self._pending.pop(session.id, None)
        snapshot = self._snapshots.pop(session.id, None)
        if self.replaying or not entries:
            return
        if snapshot == self.wal.next_lsn - 1:
            snapshot = None  # nothing overtook it: replay in place
        faultinject.crash_point("commit.before_log")
        self.wal.commit(entries, txn=txn_id, session=session.name,
                        snapshot=snapshot)
        faultinject.crash_point("commit.after_log")

    def on_abort(self, session: Any = None) -> None:
        """Drop the aborted transaction's buffered statements."""
        if session is None:
            self._pending.clear()
            self._snapshots.clear()
        else:
            self._pending.pop(session.id, None)
            self._snapshots.pop(session.id, None)

    # -- checkpointing -----------------------------------------------------

    def checkpoint(self) -> dict[str, Any]:
        """Snapshot the database and truncate the log.

        The snapshot's footer records the last LSN it contains; the log
        is rotated only after the snapshot is durable, and a crash in
        between is idempotent (replay skips records ≤ the footer LSN).
        """
        if self.db.in_transaction:
            raise StorageError("cannot checkpoint inside an open transaction")
        last_lsn = self.wal.next_lsn - 1
        snapshot_path = os.path.join(self.directory, SNAPSHOT_NAME)
        store = self.db.store
        # Incremental page flush: push dirty objects/pages down to the
        # disk (only pages dirtied since the last checkpoint get written
        # — shadow blocks, so the previous durable image stays intact)
        # and fsync, *before* the snapshot that references them.
        pages_written = None
        prepare = getattr(store, "prepare_checkpoint", None)
        if prepare is not None:
            writes_before = store.disk.stats.writes
            prepare()
            pages_written = store.disk.stats.writes - writes_before
        faultinject.crash_point("checkpoint.before_snapshot")
        written = save_snapshot(self.db, snapshot_path, wal_lsn=last_lsn)
        # The snapshot (carrying the extent table) is durably installed:
        # promote it to the shadow allocator's protected image and
        # recycle the blocks the previous image no longer references.
        commit = getattr(store, "commit_checkpoint", None)
        if commit is not None:
            commit()
        faultinject.crash_point("checkpoint.before_rotate")
        self.wal.rotate()
        faultinject.crash_point("checkpoint.after_rotate")
        out = {"snapshot": snapshot_path, "bytes": written, "wal_lsn": last_lsn}
        if pages_written is not None:
            out["pages_written"] = pages_written
        return out

    # -- diagnostics -------------------------------------------------------

    def status(self) -> dict[str, Any]:
        """Status summary for the CLI's ``\\wal`` command."""
        out = self.wal.status()
        out["directory"] = self.directory
        out["buffered_statements"] = sum(
            len(entries) for entries in self._pending.values()
        )
        return out

    def close(self) -> None:
        self.wal.close()


def open_database(
    directory: str,
    *,
    storage: str = "memory",
    fsync: bool = True,
    dba: str = "dba",
    authorization: bool = False,
    pool_capacity: int = 64,
    store_mode: str | None = None,
    cache_capacity: int | None = None,
) -> Any:
    """Open (creating if needed) a durable database rooted at ``directory``.

    Recovery sequence: load the newest checkpoint snapshot (or start
    empty), truncate any torn tail off the log, replay every record with
    an LSN above the snapshot's footer through the interpreter, then
    attach a :class:`DurabilityManager` continuing the LSN sequence.

    With ``storage="paged"`` the store defaults to the file-backed disk
    (``store_mode="file"``): pages persist in ``<directory>/pages.data``
    and ``checkpoint()`` writes only pages dirtied since the last one.
    The snapshot pickles the page *map* (extent table + OID directory),
    not page payloads, so its size tracks the catalog, not the data.
    """
    from repro.core.database import Database

    os.makedirs(directory, exist_ok=True)
    snapshot_path = os.path.join(directory, SNAPSHOT_NAME)
    wal_path = os.path.join(directory, WAL_NAME)
    pages_path = os.path.join(directory, PAGES_NAME)
    if storage == "paged" and store_mode is None:
        store_mode = "file"

    base_lsn = 0
    if os.path.exists(snapshot_path):
        db, base_lsn = read_snapshot(snapshot_path)
        store = db.store
        if getattr(store, "store_mode", None) == "file":
            # rebind to the page file; frees shadow litter the loaded
            # extent table does not reference
            store.attach(pages_path)
    else:
        if store_mode == "file" and os.path.exists(pages_path):
            # no snapshot references this page file (a crash before the
            # first checkpoint, or stale debris): start it fresh
            os.unlink(pages_path)
        db = Database(
            storage=storage,
            pool_capacity=pool_capacity,
            dba=dba,
            authorization=authorization,
            store_mode=store_mode,
            cache_capacity=cache_capacity,
            store_path=pages_path if store_mode == "file" else None,
        )

    next_lsn = base_lsn + 1
    on_disk = 0
    if os.path.exists(wal_path):
        repair_torn_tail(wal_path)
        records, _valid = read_wal(wal_path)
        on_disk = len(records)
        # db.durability is still None here, so replayed statements are
        # not re-logged while they re-execute. Records carry their
        # originating session name; each distinct name replays in its
        # own session context so session-scoped range declarations (and
        # any interleaving of commits across sessions) bind exactly as
        # they did before the crash.
        replay_sessions: dict[str, Any] = {}
        created: list = []
        #: snapshot LSN -> overtaken records to begin right after it
        overtaken: dict[int, list] = {}
        #: commit LSN -> session holding that record's open transaction
        open_at: dict[int, Any] = {}

        def context_for(record: Any) -> Any:
            name = record.session
            if name is None or name == "default":
                return db.default_session
            context = replay_sessions.get(name)
            if context is None or context.txn is not None:
                # a second session of that name may overlap the first
                context = db.connect(
                    user=record.entries[0][0] if record.entries else None,
                    name=name,
                )
                replay_sessions.setdefault(name, context)
                created.append(context)
            return context

        def run(record: Any, context: Any) -> None:
            for user, text in record.entries:
                try:
                    db.interpreter.execute(text, user=user, session=context)
                except Exception as exc:
                    raise StorageError(
                        f"WAL replay failed at LSN {record.lsn} for "
                        f"statement {text!r}: {exc}"
                    ) from exc

        def begin_overtaken(lsn: int) -> None:
            for record in overtaken.pop(lsn, ()):
                context = context_for(record)
                context.begin()
                run(record, context)
                open_at[record.lsn] = context

        for record in records:
            if record.lsn > base_lsn and record.snapshot is not None:
                overtaken.setdefault(
                    max(record.snapshot, base_lsn), []
                ).append(record)
        db.replaying = True
        try:
            begin_overtaken(base_lsn)
            for record in records:
                if record.lsn <= base_lsn:
                    continue  # already inside the checkpoint snapshot
                context = open_at.pop(record.lsn, None)
                if context is not None:
                    context.commit()
                else:
                    run(record, context_for(record))
                next_lsn = record.lsn + 1
                begin_overtaken(record.lsn)
        finally:
            db.replaying = False
        for context in created:
            context.close()

    wal = WriteAheadLog(
        wal_path, fsync=fsync, next_lsn=next_lsn, existing_records=on_disk
    )
    db.durability = DurabilityManager(db, directory, wal)
    store = db.store
    if cache_capacity is not None and hasattr(store, "cache_capacity"):
        store.cache_capacity = cache_capacity
    disk = getattr(store, "disk", None)
    if disk is not None and hasattr(disk, "lsn_provider"):
        # stamp written pages with the current durable WAL position
        disk.lsn_provider = lambda: wal.next_lsn - 1
    return db

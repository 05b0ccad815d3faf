"""Whole-database snapshots.

EXODUS delegated durability to its storage manager; here a database is
made durable by snapshotting the complete engine state (catalog, object
table, named objects, indexes, grants) with :mod:`pickle`. Snapshots are
atomic **and durable**: the new image is written to a temporary file,
fsynced, renamed over the target, and the containing directory is
fsynced — so a crash (or power loss) mid-save never corrupts an
existing snapshot and a completed save survives the rename.

Two format versions exist:

* **v1** (``EXTRA-EXCESS-SNAPSHOT-v1``): magic + pickle. Still loadable;
  reads as "no WAL position" (LSN 0).
* **v2** (``EXTRA-EXCESS-SNAPSHOT-v2``): magic + pickle + an 8-byte
  little-endian footer holding the last WAL LSN whose effects the
  snapshot contains. Recovery replays only log records *above* the
  footer LSN, which makes a crash between checkpoint-snapshot and
  log rotation harmless (replay skips what the snapshot already has).

What the pickle holds, and in which form:

* the catalog (schema types, named objects, index structures,
  statistics), authorization and the object table, as the objects
  themselves;
* every reference set (``ref`` / ``own ref`` elements) as its member
  OIDs, a plain int list in iteration order (``member_oids``); load
  rebuilds the ``{oid: Ref}`` dict. ``own`` value sets pickle their
  member list;
* with the paged store, the OID → ``Rid`` directory as one flat int list
  of ``(oid, page_no, slot_no)`` runs in directory order, next to the
  disk manager's extent table and the record type table. Object records
  themselves live in ``pages.data``, not in the snapshot.

So the two row-sized structures cost a few bytes per row and no Python
object per row at save; load builds only the rows' in-memory form
(a ``Ref`` per member, a ``Rid`` per directory entry).

Older forms that still read: reference sets pickled as a ``_members``
list of ``Ref`` objects (with or without the ``_oids`` index slot of
older engines), the directory pickled as a ``Rid`` dict, and everything
``tests/storage/test_legacy_format.py`` opens.

Limitations (documented, inherent to pickling): ADT classes and any
Python callables registered with the engine (ADT function
implementations, user-defined aggregates) must be importable module-level
objects — lambdas or REPL-local classes will fail to pickle.
"""

from __future__ import annotations

import os
import pickle
import struct
import tempfile
from typing import TYPE_CHECKING

from repro.errors import StorageError
from repro.util import faultinject

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.database import Database

__all__ = ["save_snapshot", "load_snapshot", "read_snapshot"]

_MAGIC_V1 = b"EXTRA-EXCESS-SNAPSHOT-v1\n"
_MAGIC_V2 = b"EXTRA-EXCESS-SNAPSHOT-v2\n"
#: current write format
_MAGIC = _MAGIC_V2

_FOOTER = struct.Struct("<Q")  # last WAL LSN contained in the snapshot

faultinject.register("snapshot.before_sync")
faultinject.register("snapshot.before_replace")
faultinject.register("snapshot.after_replace")


def save_snapshot(database: "Database", path: str, wal_lsn: int = 0) -> int:
    """Atomically and durably write ``database`` to ``path``.

    ``wal_lsn`` is the last WAL LSN whose effects the snapshot contains
    (0 for standalone saves). Returns bytes written.
    """
    payload = (
        _MAGIC_V2
        + pickle.dumps(database, protocol=pickle.HIGHEST_PROTOCOL)
        + _FOOTER.pack(wal_lsn)
    )
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(prefix=".snapshot-", dir=directory)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
            handle.flush()
            faultinject.crash_point("snapshot.before_sync")
            os.fsync(handle.fileno())
        faultinject.crash_point("snapshot.before_replace")
        os.replace(tmp_path, path)
        faultinject.crash_point("snapshot.after_replace")
        _fsync_directory(directory)
    except OSError as exc:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise StorageError(f"snapshot write failed: {exc}") from exc
    except BaseException:
        # a simulated crash between write and replace leaves the tmp
        # file behind on the real filesystem we test on; scrub it so
        # repeated sweep runs don't accumulate litter (a real crash
        # leaves it too — recovery ignores dot-prefixed temp files)
        if os.path.exists(tmp_path):
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
        raise
    return len(payload)


def read_snapshot(path: str) -> tuple["Database", int]:
    """Load a snapshot; returns ``(database, last_wal_lsn)``.

    Accepts both format versions (v1 reads as LSN 0). A corrupt or
    unknown header raises :class:`StorageError` naming both supported
    versions.
    """
    try:
        with open(path, "rb") as handle:
            payload = handle.read()
    except OSError as exc:
        raise StorageError(f"cannot read snapshot {path!r}: {exc}") from exc
    if payload.startswith(_MAGIC_V2):
        body = payload[len(_MAGIC_V2):]
        if len(body) < _FOOTER.size:
            raise StorageError(
                f"snapshot {path!r} is corrupt: v2 WAL-position footer missing"
            )
        (wal_lsn,) = _FOOTER.unpack(body[-_FOOTER.size:])
        pickled = body[:-_FOOTER.size]
    elif payload.startswith(_MAGIC_V1):
        wal_lsn = 0
        pickled = payload[len(_MAGIC_V1):]
    else:
        raise StorageError(
            f"{path!r} is not an EXTRA/EXCESS snapshot (expected header "
            f"{_MAGIC_V1!r} or {_MAGIC_V2!r})"
        )
    try:
        database = pickle.loads(pickled)
    except Exception as exc:  # pickle raises many types
        raise StorageError(f"snapshot {path!r} is corrupt: {exc}") from exc
    from repro.core.database import Database

    if not isinstance(database, Database):
        raise StorageError(f"snapshot {path!r} does not contain a database")
    return database, wal_lsn


def load_snapshot(path: str) -> "Database":
    """Load a database previously written by :func:`save_snapshot`."""
    database, _wal_lsn = read_snapshot(path)
    return database


def _fsync_directory(directory: str) -> None:
    """Flush a directory entry (makes the rename durable on POSIX)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # platforms without directory fds
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)

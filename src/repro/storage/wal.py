"""An append-only logical write-ahead log of committed statements.

The EXODUS storage manager owned logging and recovery (paper §2/§7);
this module reproduces the contract at the statement level. Durable
databases (:func:`repro.storage.recovery.open_database`) append one
**commit record** per commit unit — an auto-committed statement, or all
statements of an explicit transaction as a single record, so a torn
write can never half-apply a transaction on replay.

Record format (after a one-line file magic)::

    <length: u32 LE> <crc32(payload): u32 LE> <payload>

where the payload is UTF-8 JSON ``{"lsn": n, "entries": [[user,
statement_text], ...]}``. LSNs increase monotonically across rotations
so a checkpoint snapshot can record the last LSN it contains and replay
skips everything at or below it.

Torn-tail handling: :func:`read_wal` scans records until the first
short or CRC-mismatching record and reports the valid prefix length;
recovery truncates the file there. Only the *final* record can be torn
(earlier corruption means the file was damaged after the fact and is
reported as an error by the caller's policy — here we stop at the first
bad record either way, which is the standard ARIES tail rule).

``fsync`` is configurable per log: with it on (the default) a commit
returns only after the record reaches the disk; with it off, the record
reaches the OS page cache (surviving process death but not power loss).
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
import zlib
from dataclasses import dataclass
from typing import Optional

from repro.errors import StorageError
from repro.util import faultinject

__all__ = ["WalRecord", "WriteAheadLog", "read_wal", "WAL_MAGIC"]

WAL_MAGIC = b"EXTRA-EXCESS-WAL-v1\n"

_HEADER = struct.Struct("<II")  # payload length, crc32(payload)

#: guard against interpreting garbage as a gigantic record length
_MAX_RECORD = 64 * 1024 * 1024

faultinject.register("wal.append.before_write")
faultinject.register("wal.append.torn_write", torn=True)
faultinject.register("wal.append.before_sync")
faultinject.register("wal.append.after_sync")


@dataclass
class WalRecord:
    """One commit unit: every statement of one transaction (or one
    auto-committed statement).

    ``txn`` and ``session`` stamp records written by multi-session
    databases (the transaction id and originating session name), so
    recovery can replay each session's statements in a matching
    per-session context. Records written before these fields existed
    decode with both ``None`` — replay then uses the default session.

    ``snapshot`` is set when other commits overtook the transaction: it
    is the last LSN its snapshot contained, and replay runs the
    transaction's statements against the state as of that LSN.
    """

    lsn: int
    entries: list  # [(user, statement_text), ...]
    txn: Optional[int] = None
    session: Optional[str] = None
    snapshot: Optional[int] = None

    def encode(self) -> bytes:
        doc: dict = {"lsn": self.lsn, "entries": [list(e) for e in self.entries]}
        if self.txn is not None:
            doc["txn"] = self.txn
        if self.session is not None:
            doc["session"] = self.session
        if self.snapshot is not None:
            doc["snapshot"] = self.snapshot
        payload = json.dumps(doc, ensure_ascii=False).encode("utf-8")
        return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def _decode_payload(payload: bytes) -> WalRecord:
    doc = json.loads(payload.decode("utf-8"))
    txn = doc.get("txn")
    snapshot = doc.get("snapshot")
    return WalRecord(
        lsn=int(doc["lsn"]),
        entries=[(user, text) for user, text in doc["entries"]],
        txn=int(txn) if txn is not None else None,
        session=doc.get("session"),
        snapshot=int(snapshot) if snapshot is not None else None,
    )


class WriteAheadLog:
    """Appends commit records to one log file.

    ``next_lsn`` continues a numbering established by recovery (LSNs
    are monotonic across rotations, never per-file).
    """

    def __init__(self, path: str, fsync: bool = True, next_lsn: int = 1,
                 existing_records: int = 0):
        self.path = path
        self.fsync_enabled = fsync
        self.next_lsn = next_lsn
        #: commit records in the file since the last checkpoint rotation
        #: (diagnostics); recovery seeds it with what it found on disk
        self.appended = existing_records
        self._file = open(path, "ab")
        if self._file.tell() == 0:
            self._file.write(WAL_MAGIC)
            self._file.flush()
            self._sync()

    # -- appending -----------------------------------------------------------

    def commit(self, entries: list, txn: Optional[int] = None,
               session: Optional[str] = None,
               snapshot: Optional[int] = None) -> int:
        """Append one commit record; returns its LSN.

        The record is flushed to the OS unconditionally and fsynced
        when the log was opened with ``fsync=True``. Statements of one
        transaction always travel in one record (atomic on replay).
        """
        lsn = self.next_lsn
        record = WalRecord(lsn=lsn, entries=entries, txn=txn, session=session,
                           snapshot=snapshot)
        blob = record.encode()
        faultinject.crash_point("wal.append.before_write")
        cut = faultinject.torn_cut("wal.append.torn_write", len(blob))
        if cut is not None:
            # simulated power loss mid-write: persist a prefix, then die
            self._file.write(blob[:cut])
            self._file.flush()
            self._sync()
            raise faultinject.SimulatedCrash("wal.append.torn_write", 0)
        self._file.write(blob)
        self._file.flush()
        faultinject.crash_point("wal.append.before_sync")
        self._sync()
        faultinject.crash_point("wal.append.after_sync")
        self.next_lsn = lsn + 1
        self.appended += 1
        return lsn

    def _sync(self) -> None:
        if self.fsync_enabled:
            os.fsync(self._file.fileno())

    # -- rotation ------------------------------------------------------------

    def rotate(self) -> None:
        """Atomically replace the log with a fresh (empty) one.

        Called by checkpointing after the snapshot is durable: records
        up to the snapshot's LSN are no longer needed. LSN numbering
        continues — the snapshot footer is what makes replay skip
        already-applied records if a crash lands between snapshot and
        rotation.
        """
        directory = os.path.dirname(os.path.abspath(self.path)) or "."
        fd, tmp_path = tempfile.mkstemp(prefix=".wal-", dir=directory)
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(WAL_MAGIC)
                handle.flush()
                os.fsync(handle.fileno())
            self._file.close()
            os.replace(tmp_path, self.path)
            _fsync_directory(directory)
        except OSError as exc:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise StorageError(f"WAL rotation failed: {exc}") from exc
        self._file = open(self.path, "ab")
        self.appended = 0

    def close(self) -> None:
        if not self._file.closed:
            self._file.flush()
            self._sync()
            self._file.close()

    def status(self) -> dict:
        """Diagnostics for the CLI's ``\\wal`` command."""
        return {
            "path": self.path,
            "fsync": self.fsync_enabled,
            "next_lsn": self.next_lsn,
            "records_since_checkpoint": self.appended,
            "bytes": os.path.getsize(self.path) if os.path.exists(self.path) else 0,
        }


def read_wal(path: str) -> tuple[list[WalRecord], int]:
    """Scan a log file; returns ``(records, valid_length)``.

    Stops at the first torn or corrupt record: a truncated header, a
    length running past end-of-file, a CRC mismatch, or undecodable
    JSON all end the scan, and ``valid_length`` is the byte offset of
    the last good record's end — the caller truncates the file there.
    A file that is a strict prefix of the magic (torn header) reads as
    an empty log; anything else that fails the magic check is not a WAL
    and raises :class:`StorageError`.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise StorageError(f"cannot read WAL {path!r}: {exc}") from exc
    if not data.startswith(WAL_MAGIC):
        if WAL_MAGIC.startswith(data):  # torn header: treat as empty
            return [], 0
        raise StorageError(
            f"{path!r} is not an EXTRA/EXCESS write-ahead log "
            f"(expected magic {WAL_MAGIC!r})"
        )
    records: list[WalRecord] = []
    offset = len(WAL_MAGIC)
    total = len(data)
    while offset < total:
        if offset + _HEADER.size > total:
            break  # torn header
        length, crc = _HEADER.unpack_from(data, offset)
        start = offset + _HEADER.size
        if length > _MAX_RECORD or start + length > total:
            break  # torn or garbage length
        payload = data[start:start + length]
        if zlib.crc32(payload) != crc:
            break  # torn payload (CRC catches the partial write)
        try:
            record = _decode_payload(payload)
        except (ValueError, KeyError, TypeError):
            break
        records.append(record)
        offset = start + length
    return records, offset


def repair_torn_tail(path: str) -> Optional[int]:
    """Truncate ``path`` at the end of its last valid record.

    Returns the number of bytes removed, or ``None`` when the file was
    already clean. A file with a torn *header* is reset to empty (the
    magic is rewritten by the next :class:`WriteAheadLog` open).
    """
    _records, valid_length = read_wal(path)
    size = os.path.getsize(path)
    if size == valid_length:
        return None
    with open(path, "r+b") as handle:
        handle.truncate(valid_length)
        handle.flush()
        os.fsync(handle.fileno())
    return size - valid_length


def _fsync_directory(directory: str) -> None:
    """Flush a directory entry (makes a rename durable on POSIX)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # platforms without directory fds
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)

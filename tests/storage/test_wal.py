"""Unit tests for the write-ahead log: record codec, torn-tail
detection and repair, rotation, LSN monotonicity."""

import os
import struct
import zlib

import pytest

from repro.errors import StorageError
from repro.storage.wal import (
    WAL_MAGIC,
    WalRecord,
    WriteAheadLog,
    read_wal,
    repair_torn_tail,
)


@pytest.fixture
def wal_path(tmp_path):
    return str(tmp_path / "wal.log")


class TestRecordCodec:
    def test_roundtrip(self, wal_path):
        log = WriteAheadLog(wal_path, fsync=False)
        log.commit([("dba", 'append to S (x = 1)')])
        log.commit([("alice", "delete E from E in S"), ("alice", "analyze")])
        log.close()
        records, valid = read_wal(wal_path)
        assert [r.lsn for r in records] == [1, 2]
        assert records[0].entries == [("dba", 'append to S (x = 1)')]
        assert records[1].entries == [
            ("alice", "delete E from E in S"),
            ("alice", "analyze"),
        ]
        assert valid == os.path.getsize(wal_path)

    def test_unicode_statements_survive(self, wal_path):
        log = WriteAheadLog(wal_path, fsync=False)
        log.commit([("dba", 'append to S (name = "Zoë — ß")')])
        log.close()
        records, _ = read_wal(wal_path)
        assert records[0].entries[0][1] == 'append to S (name = "Zoë — ß")'

    def test_lsns_monotonic_across_reopen(self, wal_path):
        log = WriteAheadLog(wal_path, fsync=False)
        log.commit([("dba", "a")])
        log.close()
        records, _ = read_wal(wal_path)
        log2 = WriteAheadLog(wal_path, fsync=False, next_lsn=records[-1].lsn + 1)
        log2.commit([("dba", "b")])
        log2.close()
        records, _ = read_wal(wal_path)
        assert [r.lsn for r in records] == [1, 2]


class TestTornTail:
    def _write_records(self, wal_path, n=3):
        log = WriteAheadLog(wal_path, fsync=False)
        for i in range(n):
            log.commit([("dba", f"statement {i}")])
        log.close()

    def test_truncated_payload_detected_and_repaired(self, wal_path):
        self._write_records(wal_path)
        size = os.path.getsize(wal_path)
        with open(wal_path, "r+b") as handle:
            handle.truncate(size - 5)  # tear the last record's payload
        records, valid = read_wal(wal_path)
        assert [r.lsn for r in records] == [1, 2]
        removed = repair_torn_tail(wal_path)
        assert removed is not None and removed > 0
        assert os.path.getsize(wal_path) == valid
        # after repair the log reads clean and appends continue
        assert repair_torn_tail(wal_path) is None

    def test_corrupt_crc_stops_scan(self, wal_path):
        self._write_records(wal_path)
        # flip one byte inside the final record's payload: length still
        # reads fine, CRC catches the damage
        with open(wal_path, "r+b") as handle:
            data = handle.read()
            handle.seek(len(data) - 1)
            handle.write(bytes([data[-1] ^ 0xFF]))
        records, _ = read_wal(wal_path)
        assert [r.lsn for r in records] == [1, 2]

    def test_torn_header_detected(self, wal_path):
        self._write_records(wal_path, n=1)
        with open(wal_path, "ab") as handle:
            handle.write(b"\x03")  # 1 byte of a 8-byte header
        records, valid = read_wal(wal_path)
        assert [r.lsn for r in records] == [1]
        assert repair_torn_tail(wal_path) == 1

    def test_garbage_length_stops_scan(self, wal_path):
        self._write_records(wal_path, n=1)
        header = struct.Struct("<II")
        with open(wal_path, "ab") as handle:
            handle.write(header.pack(2**31, 0))  # absurd record length
        records, _ = read_wal(wal_path)
        assert [r.lsn for r in records] == [1]

    def test_truncated_magic_reads_empty(self, wal_path):
        with open(wal_path, "wb") as handle:
            handle.write(WAL_MAGIC[:7])
        assert read_wal(wal_path) == ([], 0)

    def test_non_wal_file_rejected(self, wal_path):
        with open(wal_path, "wb") as handle:
            handle.write(b"definitely not a log file, much longer than magic")
        with pytest.raises(StorageError, match="write-ahead log"):
            read_wal(wal_path)

    def test_snapshot_field_round_trips(self, wal_path):
        log = WriteAheadLog(wal_path, fsync=False)
        log.commit([("dba", "a")], txn=1, session="s1")
        log.commit([("dba", "b")], txn=2, session="s2", snapshot=0)
        log.close()
        records, _ = read_wal(wal_path)
        assert [r.snapshot for r in records] == [None, 0]

    def test_crc_actually_guards_payload(self):
        record = WalRecord(lsn=7, entries=[("dba", "analyze")])
        blob = record.encode()
        header = struct.Struct("<II")
        length, crc = header.unpack_from(blob, 0)
        assert crc == zlib.crc32(blob[header.size:])
        assert length == len(blob) - header.size


class TestRotation:
    def test_rotate_truncates_but_keeps_lsn_sequence(self, wal_path):
        log = WriteAheadLog(wal_path, fsync=False)
        log.commit([("dba", "a")])
        log.commit([("dba", "b")])
        log.rotate()
        assert log.appended == 0
        lsn = log.commit([("dba", "c")])
        log.close()
        assert lsn == 3
        records, _ = read_wal(wal_path)
        assert [r.lsn for r in records] == [3]

    def test_status_reports(self, wal_path):
        log = WriteAheadLog(wal_path, fsync=True)
        log.commit([("dba", "a")])
        status = log.status()
        log.close()
        assert status["fsync"] is True
        assert status["next_lsn"] == 2
        assert status["records_since_checkpoint"] == 1
        assert status["bytes"] > len(WAL_MAGIC)

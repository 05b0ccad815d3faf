"""Tests for durable open / WAL replay / checkpointing and the
versioned snapshot format."""

import os
import pickle

import pytest

from repro.core.database import Database
from repro.errors import StorageError
from repro.storage.persistence import (
    _MAGIC_V1,
    read_snapshot,
    save_snapshot,
)
from repro.storage.recovery import SNAPSHOT_NAME, WAL_NAME, open_database
from repro.storage.wal import read_wal
from repro.util.statedump import canonical_state


def _names(db):
    return sorted(
        row[0] for row in db.execute("retrieve (E.name) from E in Emps").rows
    )


def _seed(db):
    db.execute("define type Emp as (name: char(20), sal: int4)")
    db.execute("create {own ref Emp} Emps")
    db.execute('append to Emps (name = "sue", sal = 10)')
    db.execute('append to Emps (name = "joe", sal = 20)')


class TestDurableOpen:
    def test_fresh_directory_starts_empty(self, tmp_path):
        db = Database.open(str(tmp_path / "d"))
        assert db.durability is not None
        assert db.catalog.named_names() == []
        db.close()

    def test_committed_statements_replay(self, tmp_path):
        d = str(tmp_path / "d")
        db = open_database(d, fsync=False)
        _seed(db)
        db.close()
        db2 = open_database(d, fsync=False)
        assert _names(db2) == ["joe", "sue"]
        db2.close()

    def test_explicit_transaction_is_one_record(self, tmp_path):
        d = str(tmp_path / "d")
        db = open_database(d, fsync=False)
        _seed(db)
        before = len(read_wal(os.path.join(d, WAL_NAME))[0])
        db.execute("begin")
        db.execute('append to Emps (name = "a", sal = 1)')
        db.execute('append to Emps (name = "b", sal = 2)')
        # nothing reaches the log until commit
        assert len(read_wal(os.path.join(d, WAL_NAME))[0]) == before
        db.execute("commit")
        records, _ = read_wal(os.path.join(d, WAL_NAME))
        assert len(records) == before + 1
        assert len(records[-1].entries) == 2
        db.close()

    def test_aborted_work_never_logged(self, tmp_path):
        d = str(tmp_path / "d")
        db = open_database(d, fsync=False)
        _seed(db)
        db.execute("begin")
        db.execute('append to Emps (name = "ghost", sal = 0)')
        db.execute("abort")
        db.close()
        db2 = open_database(d, fsync=False)
        assert _names(db2) == ["joe", "sue"]
        db2.close()

    def test_python_api_commit_also_logs(self, tmp_path):
        d = str(tmp_path / "d")
        db = open_database(d, fsync=False)
        _seed(db)
        db.begin()  # Python API, not the EXCESS statement
        db.execute('append to Emps (name = "api", sal = 3)')
        db.commit()
        db.close()
        db2 = open_database(d, fsync=False)
        assert "api" in _names(db2)
        db2.close()

    def test_recovered_state_canonically_equal(self, tmp_path):
        d = str(tmp_path / "d")
        db = open_database(d, fsync=False)
        _seed(db)
        db.execute("create index on Emps (sal) using btree")
        db.execute("analyze")
        db.execute("grant select on Emps to alice")
        expected = canonical_state(db)
        db.close()
        db2 = open_database(d, fsync=False)
        assert canonical_state(db2) == expected
        db2.close()

    def test_parameterised_writes_replay_after_a_kill(self, tmp_path):
        """Shape hits log the statement's *own* text: a copy of the
        directory taken while the engine is still open (the kill) must
        recover every acknowledged write with its own literals — replay
        itself running through the shape-keyed plan cache."""
        import shutil

        d = str(tmp_path / "d")
        db = open_database(d, fsync=False)
        _seed(db)
        for index in range(40):
            result = db.execute(f'append to Emps (name = "e{index}", sal = {index})')
            assert result.metrics["cache"] == "hit"  # _seed's appends planned it
        for index in range(0, 40, 2):
            db.execute(f'replace E (sal = {1000 + index}) from E in Emps where E.name = "e{index}"')
        for index in range(1, 40, 4):
            db.execute(f'delete E from E in Emps where E.name = "e{index}"')
        expected = canonical_state(db)
        rows = sorted(db.execute("retrieve (E.name, E.sal) from E in Emps").rows)
        killed = str(tmp_path / "killed")
        shutil.copytree(d, killed)  # no close(), no checkpoint
        db.close()
        recovered = open_database(killed, fsync=False)
        assert sorted(
            recovered.execute("retrieve (E.name, E.sal) from E in Emps").rows
        ) == rows
        assert canonical_state(recovered) == expected
        stats = recovered.interpreter.plan_cache.stats()
        assert stats["hits"] > 60  # replay re-used one plan per shape
        recovered.close()

    def test_replay_failure_reports_lsn(self, tmp_path):
        from repro.storage.wal import WriteAheadLog

        d = str(tmp_path / "d")
        os.makedirs(d)
        log = WriteAheadLog(os.path.join(d, WAL_NAME), fsync=False)
        log.commit([("dba", "append to Nonexistent (x = 1)")])
        log.close()
        with pytest.raises(StorageError, match="LSN 1"):
            open_database(d, fsync=False)

    def test_torn_tail_repaired_on_open(self, tmp_path):
        d = str(tmp_path / "d")
        db = open_database(d, fsync=False)
        _seed(db)
        db.close()
        wal_path = os.path.join(d, WAL_NAME)
        size = os.path.getsize(wal_path)
        with open(wal_path, "r+b") as handle:
            handle.truncate(size - 3)  # tear the final record
        db2 = open_database(d, fsync=False)
        # the torn final append ("joe") is gone; everything before survives
        assert _names(db2) == ["sue"]
        assert os.path.getsize(wal_path) < size - 3  # truncated, then magic only grows on append
        db2.close()
        db3 = open_database(d, fsync=False)
        assert _names(db3) == ["sue"]
        db3.close()


class TestCheckpoint:
    def test_checkpoint_truncates_and_resumes(self, tmp_path):
        d = str(tmp_path / "d")
        db = open_database(d, fsync=False)
        _seed(db)
        info = db.checkpoint()
        assert info["wal_lsn"] == 4
        records, _ = read_wal(os.path.join(d, WAL_NAME))
        assert records == []
        db.execute('append to Emps (name = "post", sal = 30)')
        db.close()
        db2 = open_database(d, fsync=False)
        assert _names(db2) == ["joe", "post", "sue"]
        assert db2.durability.wal.next_lsn == 6
        db2.close()

    def test_replay_skips_records_covered_by_snapshot(self, tmp_path):
        """A crash between snapshot write and log rotation must not
        double-apply: replay skips records at or below the footer LSN."""
        d = str(tmp_path / "d")
        db = open_database(d, fsync=False)
        _seed(db)
        # snapshot without rotating — exactly the crash window
        last_lsn = db.durability.wal.next_lsn - 1
        save_snapshot(db, os.path.join(d, SNAPSHOT_NAME), wal_lsn=last_lsn)
        db.close()
        db2 = open_database(d, fsync=False)
        assert _names(db2) == ["joe", "sue"]  # not doubled
        db2.close()

    def test_checkpoint_refused_mid_transaction(self, tmp_path):
        db = open_database(str(tmp_path / "d"), fsync=False)
        db.execute("begin")
        with pytest.raises(StorageError, match="transaction"):
            db.checkpoint()
        db.execute("abort")
        db.close()

    def test_checkpoint_requires_durable_mode(self):
        db = Database()
        with pytest.raises(StorageError, match="Database.open"):
            db.checkpoint()


class TestSnapshotFormat:
    def test_v2_roundtrips_lsn(self, tmp_path):
        db = Database()
        _seed(db)
        path = str(tmp_path / "s.db")
        save_snapshot(db, path, wal_lsn=17)
        loaded, lsn = read_snapshot(path)
        assert lsn == 17
        assert _names(loaded) == ["joe", "sue"]

    def test_v1_still_loads_as_lsn_zero(self, tmp_path):
        db = Database()
        _seed(db)
        path = str(tmp_path / "s.db")
        with open(path, "wb") as handle:
            handle.write(
                _MAGIC_V1 + pickle.dumps(db, protocol=pickle.HIGHEST_PROTOCOL)
            )
        loaded, lsn = read_snapshot(path)
        assert lsn == 0
        assert _names(loaded) == ["joe", "sue"]

    def test_unknown_header_names_both_versions(self, tmp_path):
        path = str(tmp_path / "s.db")
        with open(path, "wb") as handle:
            handle.write(b"EXTRA-EXCESS-SNAPSHOT-v9\n" + b"garbage")
        with pytest.raises(StorageError) as excinfo:
            read_snapshot(path)
        assert "v1" in str(excinfo.value) and "v2" in str(excinfo.value)

    def test_v2_missing_footer_is_corrupt(self, tmp_path):
        path = str(tmp_path / "s.db")
        with open(path, "wb") as handle:
            handle.write(b"EXTRA-EXCESS-SNAPSHOT-v2\n" + b"abc")
        with pytest.raises(StorageError, match="footer"):
            read_snapshot(path)

    def test_corrupt_pickle_is_reported(self, tmp_path):
        path = str(tmp_path / "s.db")
        with open(path, "wb") as handle:
            handle.write(
                b"EXTRA-EXCESS-SNAPSHOT-v2\n"
                + b"\x00not a pickle\x00"
                + (0).to_bytes(8, "little")
            )
        with pytest.raises(StorageError, match="corrupt"):
            read_snapshot(path)

    def test_non_database_pickle_rejected(self, tmp_path):
        path = str(tmp_path / "s.db")
        with open(path, "wb") as handle:
            handle.write(
                b"EXTRA-EXCESS-SNAPSHOT-v2\n"
                + pickle.dumps({"not": "a database"})
                + (0).to_bytes(8, "little")
            )
        with pytest.raises(StorageError, match="does not contain"):
            read_snapshot(path)

    def test_save_never_leaves_temp_files(self, tmp_path):
        db = Database()
        _seed(db)
        save_snapshot(db, str(tmp_path / "s.db"), wal_lsn=1)
        leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".snapshot-")]
        assert leftovers == []


class TestCli:
    def test_open_checkpoint_wal_commands(self, tmp_path, capsys):
        import io

        from repro.cli import Shell

        out = io.StringIO()
        shell = Shell(out=out)
        shell.meta(f"\\open {tmp_path / 'd'}")
        shell.execute("define type T as (x: int4)")
        shell.execute("create {own T} Xs")
        shell.meta("\\wal")
        shell.meta("\\checkpoint")
        text = out.getvalue()
        assert "opened durable database" in text
        assert "next_lsn" in text
        assert "checkpointed" in text
        shell.db.close()

    def test_wal_on_plain_database(self):
        import io

        from repro.cli import Shell

        out = io.StringIO()
        shell = Shell(out=out)
        shell.meta("\\wal")
        assert "not in durable mode" in out.getvalue()
        assert "\\open" in out.getvalue()
        shell.meta("\\checkpoint")
        assert out.getvalue().count("not in durable mode") == 2

"""A ``set`` whose outcome would depend on row order is rejected.

Recovery replays logged statement text through a cold plan cache, so a
logged statement must mean the same thing under every access path. A
``set`` that two qualifying bindings would assign to one target — the
same named singleton, object slot or array element — keeps whichever
row came last, a choice of row order; it fails before it changes
anything, and is never logged (docs/LANGUAGE.md §8). A log written
before the rule still replays such a statement as acknowledged.
"""

import shutil

import pytest

from repro import Database
from repro.core.values import NULL
from repro.errors import EvaluationError
from repro.storage.recovery import WAL_NAME, open_database
from repro.storage.wal import WriteAheadLog


def _accounts(db):
    db.execute("define type Acct as (id: int4, bal: float8)")
    db.execute("create {own ref Acct} Accts")
    db.execute("create float8 Top")
    for index in range(1, 6):
        db.execute(f"append to Accts (id = {index}, bal = {index * 10}.0)")
    return db


def _balances(db):
    return sorted(db.execute("retrieve (A.id, A.bal) from A in Accts").rows)


class TestOneTargetOneRow:
    def test_multi_row_set_of_a_named_singleton_is_rejected(self):
        db = _accounts(Database())
        with pytest.raises(EvaluationError, match="row order"):
            db.execute("set Top = A.bal from A in Accts")
        assert db.execute("retrieve (Top)").rows == [(NULL,)]

    def test_one_qualifying_row_assigns(self):
        db = _accounts(Database())
        result = db.execute("set Top = A.bal from A in Accts where A.id = 3")
        assert result.count == 1
        assert db.execute("retrieve (Top)").rows == [(30.0,)]

    def test_one_slot_assigned_by_two_rows_is_rejected(self):
        db = _accounts(Database())
        before = _balances(db)
        with pytest.raises(EvaluationError, match="row order"):
            db.execute(
                "set S.bal = A.bal from S in Accts, A in Accts "
                "where S.id = 1 and A.id > 3"
            )
        assert _balances(db) == before

    def test_distinct_slots_assign(self):
        db = _accounts(Database())
        result = db.execute("set A.bal = A.bal + 1.0 from A in Accts")
        assert result.count == 5
        assert [bal for _id, bal in _balances(db)] == [11.0, 21.0, 31.0, 41.0, 51.0]

    def test_one_array_element_assigned_by_two_rows_is_rejected(self):
        db = _accounts(Database())
        db.execute("create [] own float8 Hist")
        db.execute("append to Hist (0.0)")
        with pytest.raises(EvaluationError, match="row order"):
            db.execute("set Hist[1] = A.bal from A in Accts where A.id < 3")
        assert db.execute("retrieve (Hist[1])").rows == [(0.0,)]
        db.execute("set Hist[1] = A.bal from A in Accts where A.id = 2")
        assert db.execute("retrieve (Hist[1])").rows == [(20.0,)]


class TestDurability:
    def test_single_row_set_survives_a_kill(self, tmp_path):
        directory = str(tmp_path / "d")
        db = _accounts(open_database(directory, fsync=False))
        db.execute("set Top = A.bal from A in Accts where A.id = 4")
        killed = str(tmp_path / "killed")
        shutil.copytree(directory, killed)  # no close(), no checkpoint
        db.close()
        recovered = open_database(killed, fsync=False)
        try:
            assert recovered.execute("retrieve (Top)").rows == [(40.0,)]
        finally:
            recovered.close()

    def test_older_log_with_a_multi_row_set_still_replays(self, tmp_path):
        # an engine from before the rule acknowledged and logged a
        # multi-row set (the last row won); its data directory must open
        directory = tmp_path / "d"
        directory.mkdir()
        log = WriteAheadLog(str(directory / WAL_NAME), fsync=False)
        for text in [
            "define type Acct as (id: int4, bal: float8)",
            "create {own ref Acct} Accts",
            "create float8 Top",
            *(f"append to Accts (id = {i}, bal = {i * 10}.0)" for i in range(1, 6)),
            "set Top = A.bal from A in Accts",
            "set A.bal = 7.0 from A in Accts, B in Accts where A.id = 1",
        ]:
            log.commit([("dba", text)])
        log.close()
        recovered = open_database(str(directory), fsync=False)
        try:
            assert recovered.execute("retrieve (Top)").rows == [(50.0,)]
            assert _balances(recovered)[0] == (1, 7.0)
            with pytest.raises(EvaluationError, match="row order"):
                recovered.execute("set Top = A.bal from A in Accts")
        finally:
            recovered.close()

    def test_rejected_set_is_not_logged(self, tmp_path):
        directory = str(tmp_path / "d")
        db = _accounts(open_database(directory, fsync=False))
        db.execute("set Top = A.bal from A in Accts where A.id = 2")
        with pytest.raises(EvaluationError, match="row order"):
            db.execute("set Top = A.bal from A in Accts")
        killed = str(tmp_path / "killed")
        shutil.copytree(directory, killed)
        db.close()
        recovered = open_database(killed, fsync=False)
        try:
            assert recovered.execute("retrieve (Top)").rows == [(20.0,)]
        finally:
            recovered.close()


def _replay_state(db):
    return (
        _balances(db),
        sorted(db.execute("retrieve (L.id, L.bal) from L in Log").rows),
        db.execute("retrieve (Top)").rows,
    )


class TestColdReplayAccessPath:
    """Recovery replays logged text through a cold plan cache, with the
    flags and statistics of the reopened engine — not those of the warm
    run. Here the warm run reuses a sequential-scan plan on every shape
    hit, while the replay plans the same statements with an index after
    ``analyze``; the recovered state must still be the acknowledged one."""

    STATEMENTS = [
        "replace A (bal = A.bal + 1.0) from A in Accts where A.bal >= 395.0",
        "replace A (bal = A.bal + 1.0) from A in Accts where A.bal >= 385.0",
        "append to Log (id = A.id, bal = A.bal) from A in Accts where A.bal >= 375.0",
        "append to Log (id = A.id, bal = A.bal) from A in Accts where A.bal >= 395.0",
        "delete A from A in Accts where A.bal >= 401.0",
        "set Top = A.bal from A in Accts where A.bal >= 392.0",
    ]

    @pytest.mark.parametrize("storage", ["memory", "paged"])
    def test_recovered_state_is_the_acknowledged_state(self, tmp_path, storage):
        directory = str(tmp_path / "d")
        db = open_database(directory, storage=storage, fsync=False)
        db.interpreter.parallel_mode = "off"
        db.execute("define type Acct as (id: int4, bal: float8)")
        db.execute("create {own ref Acct} Accts")
        db.execute("create {own ref Acct} Log")
        db.execute("create float8 Top")
        for index in range(1, 41):
            db.execute(f"append to Accts (id = {index}, bal = {index * 10}.0)")
        db.execute("create index on Accts (bal) using btree")
        db.execute("analyze Accts")
        warm = db.connect()
        warm.set_flag("optimize", False)  # flags are not logged
        for text in self.STATEMENTS:
            result = warm.execute(text)
            assert result.plan.index_scans == []
        assert warm.execute(self.STATEMENTS[1]).metrics["cache"] == "hit"
        acknowledged = _replay_state(db)
        killed = str(tmp_path / "killed")
        shutil.copytree(directory, killed)  # no close(), no checkpoint
        db.close()
        recovered = open_database(killed, storage=storage, fsync=False)
        try:
            assert _replay_state(recovered) == acknowledged
            # the replayed shapes were planned cold, on the index
            probe = recovered.execute(self.STATEMENTS[0])
            assert probe.metrics["cache"] == "hit"
            assert probe.plan.index_scans
        finally:
            recovered.close()

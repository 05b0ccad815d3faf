"""Multi-session MVCC: snapshot isolation, conflicts, crashes.

The contract under test (``repro.core.session``):

* a transaction sees exactly the state committed at its snapshot plus
  its own writes — never another session's uncommitted work, never a
  commit that happened after its snapshot;
* write-write conflicts resolve first-committer-wins: the second
  writer fails (eagerly at first touch against committed versions, or
  at commit against transactions it raced), always with
  :class:`SerializationError`, and a doomed transaction can only abort;
* the durability contract survives multi-session interleavings: a
  crash at any commit-path point recovers to acknowledged-commits-only
  (checked with canonical state dumps).

``tests/property/test_session_model.py`` checks the same contract
against a pure-Python model over random interleavings.
"""

import os

import pytest

from repro.core.database import Database
from repro.errors import SerializationError
from repro.storage.recovery import WAL_NAME, open_database
from repro.storage.wal import read_wal
from repro.util import faultinject
from repro.util.statedump import canonical_state

SCHEMA = [
    "define type Dept as (dname: char(20), floor: int4)",
    "create {own ref Dept} Depts",
    'append to Depts (dname = "Toys", floor = 2)',
]


def _setup(db):
    for text in SCHEMA:
        db.execute(text)


def _names(session):
    return {row[0] for row in
            session.execute("retrieve (D.dname) from D in Depts").rows}


def _floor(session, name):
    return session.execute(
        f'retrieve (D.floor) from D in Depts where D.dname = "{name}"'
    ).scalar()


class TestSnapshotIsolation:
    def test_reader_never_sees_uncommitted_writes(self, db):
        _setup(db)
        writer = db.connect(user="alice")
        reader = db.connect(user="bob")
        writer.begin()
        writer.execute('append to Depts (dname = "Shoes", floor = 1)')
        assert _names(writer) == {"Toys", "Shoes"}  # sees its own write
        assert _names(reader) == {"Toys"}
        writer.commit()
        assert _names(reader) == {"Toys", "Shoes"}

    def test_open_snapshot_never_sees_later_commits(self, db):
        _setup(db)
        reader = db.connect(user="bob")
        writer = db.connect(user="alice")
        reader.begin()
        writer.execute('append to Depts (dname = "Shoes", floor = 1)')
        # the commit happened after the reader's snapshot:
        assert _names(reader) == {"Toys"}
        assert _names(writer) == {"Toys", "Shoes"}
        reader.commit()
        assert _names(reader) == {"Toys", "Shoes"}

    def test_two_open_transactions_are_mutually_invisible(self, db):
        # disjoint write sets (appends to one set are a write-write
        # conflict at the container granularity — see TestConflicts)
        _setup(db)
        db.execute("create {own ref Dept} Annex")
        s1 = db.connect(user="alice")
        s2 = db.connect(user="bob")
        s1.begin()
        s2.begin()
        s1.execute('append to Depts (dname = "Shoes", floor = 1)')
        s2.execute('append to Annex (dname = "Books", floor = 3)')
        assert _names(s1) == {"Toys", "Shoes"}
        assert not s1.execute(
            "retrieve (A.dname) from A in Annex").rows
        assert _names(s2) == {"Toys"}
        assert {r[0] for r in s2.execute(
            "retrieve (A.dname) from A in Annex").rows} == {"Books"}
        s1.commit()
        # s2's snapshot predates s1's commit
        assert _names(s2) == {"Toys"}
        s2.commit()
        assert _names(s2) == {"Toys", "Shoes"}
        assert {r[0] for r in s2.execute(
            "retrieve (A.dname) from A in Annex").rows} == {"Books"}

    def test_default_session_api_is_unchanged(self, db):
        _setup(db)
        db.begin()
        db.execute('append to Depts (dname = "Shoes", floor = 1)')
        db.abort()
        assert {r[0] for r in db.execute(
            "retrieve (D.dname) from D in Depts").rows} == {"Toys"}

    def test_abort_discards_only_that_session(self, db):
        _setup(db)
        db.execute("create {own ref Dept} Annex")
        s1 = db.connect(user="alice")
        s2 = db.connect(user="bob")
        s1.begin()
        s2.begin()
        s1.execute('append to Depts (dname = "Shoes", floor = 1)')
        s2.execute('append to Annex (dname = "Books", floor = 3)')
        s1.abort()
        s2.commit()
        assert _names(db.default_session) == {"Toys"}
        assert {r[0] for r in db.execute(
            "retrieve (A.dname) from A in Annex").rows} == {"Books"}

    def test_close_aborts_open_transaction(self, db):
        _setup(db)
        s1 = db.connect(user="alice")
        s1.begin()
        s1.execute('append to Depts (dname = "Shoes", floor = 1)')
        s1.close()
        assert _names(db.default_session) == {"Toys"}
        assert s1.closed


class TestConflicts:
    def test_first_committer_wins(self, db):
        _setup(db)
        s1 = db.connect(user="alice")
        s2 = db.connect(user="bob")
        s1.begin()
        s2.begin()
        s1.execute('replace D (floor = 5) from D in Depts '
                   'where D.dname = "Toys"')
        s2.execute('replace D (floor = 9) from D in Depts '
                   'where D.dname = "Toys"')
        s1.commit()
        with pytest.raises(SerializationError):
            s2.commit()
        # the loser rolled back; the winner's write stands
        assert _floor(db.default_session, "Toys") == 5
        assert not s2.in_transaction

    def test_eager_first_touch_conflict(self, db):
        _setup(db)
        s1 = db.connect(user="alice")
        s2 = db.connect(user="bob")
        s2.begin()  # snapshot taken before s1's commit
        assert _names(s2) == {"Toys"}
        s1.execute('replace D (floor = 5) from D in Depts '
                   'where D.dname = "Toys"')
        with pytest.raises(SerializationError):
            s2.execute('replace D (floor = 9) from D in Depts '
                       'where D.dname = "Toys"')
        # doomed: every further statement except abort is rejected
        with pytest.raises(SerializationError):
            s2.execute("retrieve (D.dname) from D in Depts")
        s2.execute("abort")
        assert _floor(db.default_session, "Toys") == 5

    def test_doomed_transaction_can_only_abort(self, db):
        _setup(db)
        s1 = db.connect(user="alice")
        s2 = db.connect(user="bob")
        s1.begin()
        s2.begin()
        s1.execute('replace D (floor = 5) from D in Depts '
                   'where D.dname = "Toys"')
        s2.execute('replace D (floor = 9) from D in Depts '
                   'where D.dname = "Toys"')
        s1.commit()  # dooms s2
        with pytest.raises(SerializationError):
            s2.execute('append to Depts (dname = "Books", floor = 3)')
        s2.abort()
        assert _floor(db.default_session, "Toys") == 5

    def test_disjoint_writes_both_commit(self, db):
        _setup(db)
        db.execute('append to Depts (dname = "Shoes", floor = 1)')
        s1 = db.connect(user="alice")
        s2 = db.connect(user="bob")
        s1.begin()
        s2.begin()
        s1.execute('replace D (floor = 5) from D in Depts '
                   'where D.dname = "Toys"')
        s2.execute("define type Later as (x: int4)")
        s1.commit()
        s2.commit()
        assert _floor(db.default_session, "Toys") == 5
        assert db.catalog.has_type("Later")

    # A delete and a replace of the same stored object write the same
    # key, ("oid", oid): whichever commits second must fail, never
    # silently drop the other's acknowledged write.

    def test_replace_loses_to_committed_delete(self, db):
        _setup(db)
        s1 = db.connect(user="alice")
        s2 = db.connect(user="bob")
        s1.begin()
        s2.begin()
        s1.execute('delete D from D in Depts where D.dname = "Toys"')
        s2.execute('replace D (floor = 9) from D in Depts '
                   'where D.dname = "Toys"')
        s1.commit()
        with pytest.raises(SerializationError):
            s2.commit()
        assert _names(db.default_session) == set()

    def test_delete_loses_to_committed_replace(self, db):
        _setup(db)
        s1 = db.connect(user="alice")
        s2 = db.connect(user="bob")
        s1.begin()
        s2.begin()
        s1.execute('delete D from D in Depts where D.dname = "Toys"')
        s2.execute('replace D (floor = 9) from D in Depts '
                   'where D.dname = "Toys"')
        s2.commit()
        with pytest.raises(SerializationError):
            s1.commit()
        assert _floor(db.default_session, "Toys") == 9

    def test_replace_after_committed_delete_conflicts(self, db):
        _setup(db)
        s1 = db.connect(user="alice")
        s2 = db.connect(user="bob")
        s1.begin()
        s2.begin()
        s1.execute('delete D from D in Depts where D.dname = "Toys"')
        s1.commit()
        # s2's snapshot still shows Toys; updating it is a conflict
        assert _names(s2) == {"Toys"}
        with pytest.raises(SerializationError):
            s2.execute('replace D (floor = 9) from D in Depts '
                       'where D.dname = "Toys"')
        s2.abort()
        assert _names(db.default_session) == set()

    def test_delete_after_committed_replace_conflicts_eagerly(self, db):
        _setup(db)
        s1 = db.connect(user="alice")
        s2 = db.connect(user="bob")
        s2.begin()
        s1.execute('replace D (floor = 5) from D in Depts '
                   'where D.dname = "Toys"')
        # the deletion toggle checks its key before it removes anything
        with pytest.raises(SerializationError):
            s2.execute('delete D from D in Depts where D.dname = "Toys"')
        s2.abort()
        assert _floor(db.default_session, "Toys") == 5

    def test_replace_records_one_key_per_object(self, db):
        _setup(db)
        oid = db.execute("retrieve (D) from D in Depts").scalar().oid
        db.begin()
        db.execute('replace D (floor = 5) from D in Depts')
        write_set = db.default_session.txn.undo.write_set()
        db.abort()
        assert write_set == {("oid", oid)}

    def test_autocommit_write_is_versioned_for_open_readers(self, db):
        """A bare statement from one session while another holds a
        snapshot runs as an implicit transaction and is rewound for the
        reader — then visible after the reader finishes."""
        _setup(db)
        reader = db.connect(user="bob")
        writer = db.connect(user="alice")
        reader.begin()
        writer.execute('append to Depts (dname = "Shoes", floor = 1)')
        writer.execute('append to Depts (dname = "Books", floor = 3)')
        assert _names(reader) == {"Toys"}
        reader.abort()
        assert _names(reader) == {"Toys", "Shoes", "Books"}

    def test_version_log_is_garbage_collected(self, db):
        _setup(db)
        reader = db.connect(user="bob")
        writer = db.connect(user="alice")
        reader.begin()
        writer.execute('append to Depts (dname = "Shoes", floor = 1)')
        assert db.transactions.versions  # retained for the snapshot
        reader.commit()
        assert not db.transactions.versions


class TestMultiSessionDurability:
    """Crash at every commit-path point during an interleaved
    two-session workload; recovery must land on acked-commits-only."""

    @pytest.fixture(autouse=True)
    def _clean_faults(self):
        faultinject.reset()
        yield
        faultinject.reset()

    def _expected(self, statements):
        db = Database()
        for text in statements:
            db.execute(text)
        # recovery registers the user of every session whose commits it
        # replays, exactly like the original connect() did
        if any("Shoes" in text for text in statements):
            db.authz.directory.add_user("alice")
        if any("Books" in text for text in statements):
            db.authz.directory.add_user("bob")
        return canonical_state(db)

    def _run(self, directory):
        """Returns ``(acked, in_flight, crashed)``: statements whose
        commit was acknowledged, the commit unit in flight when the
        crash hit (may land on either side of durability), and whether
        the armed point fired."""
        db = open_database(directory, fsync=False)
        acked: list = []
        in_flight: list = []
        try:
            for text in SCHEMA + ["create {own ref Dept} Annex"]:
                in_flight = [text]
                db.execute(text)
                acked.append(text)
                in_flight = []
            s1 = db.connect(user="alice", name="alice")
            s2 = db.connect(user="bob", name="bob")
            s1.begin()
            s2.begin()
            s1_stmts = ['append to Depts (dname = "Shoes", floor = 1)']
            s2_stmts = ['append to Annex (dname = "Books", floor = 3)']
            for text in s1_stmts:
                s1.execute(text)
            for text in s2_stmts:
                s2.execute(text)
            in_flight = s1_stmts
            s1.commit()
            acked.extend(s1_stmts)
            in_flight = s2_stmts
            s2.commit()
            acked.extend(s2_stmts)
            in_flight = []
            db.close()
            return acked, [], False
        except faultinject.SimulatedCrash:
            db.durability.wal._file.close()
            return acked, in_flight, True

    @pytest.mark.parametrize("point", [
        "txn.commit.before_validate",
        "txn.commit.after_validate",
        "txn.commit.publish",
        "commit.before_log",
        "wal.append.before_sync",
    ])
    @pytest.mark.parametrize("on_hit", [1, 2])
    def test_crash_in_commit_path_recovers(self, tmp_path, point, on_hit):
        directory = str(tmp_path / "db")
        faultinject.arm(point, on_hit=on_hit)
        acked, in_flight, crashed = self._run(directory)
        faultinject.reset()

        recovered = open_database(directory, fsync=False)
        actual = canonical_state(recovered)
        recovered.close()

        if point.startswith("txn.commit.") or point == "commit.before_log":
            # every one of these fires before the WAL append: a crash
            # there can never leave the in-flight commit durable
            assert actual == self._expected(acked)
        else:
            # the WAL-append points may land on either side of
            # durability, but never durably apply *half* a transaction
            candidates = [self._expected(acked)]
            if crashed and in_flight:
                candidates.append(self._expected(acked + in_flight))
            assert actual in candidates

    def test_overtaken_transaction_replays_against_its_snapshot(self, tmp_path):
        """Replay follows commit order, but a transaction's statements
        ran against its snapshot: a commit that overtook it must stay
        invisible to them on replay too."""
        directory = str(tmp_path / "db")
        db = open_database(directory, fsync=False)
        _setup(db)
        s1 = db.connect(user="alice", name="alice")
        s2 = db.connect(user="bob", name="bob")
        s1.begin()
        s2.begin()
        s2.execute('append to Depts (dname = "Shoes", floor = 1)')
        s2.commit()
        # s1's snapshot holds only Toys: it moves Toys, never Shoes
        assert s1.execute("replace D (floor = 7) from D in Depts").count == 1
        s1.commit()
        live = canonical_state(db)
        assert _floor(db.default_session, "Shoes") == 1
        db.close()
        records, _ = read_wal(os.path.join(directory, WAL_NAME))
        assert [r.snapshot for r in records[-2:]] == [None, records[-3].lsn]
        recovered = open_database(directory, fsync=False)
        assert canonical_state(recovered) == live
        assert not recovered.in_transaction
        recovered.close()

    def _overtake(self, first, second):
        """``first`` begins, ``second`` appends Shoes and commits, then
        ``first`` moves every department it sees and commits."""
        first.begin()
        second.execute('append to Depts (dname = "Shoes", floor = 1)')
        first.execute("replace D (floor = 7) from D in Depts")
        first.commit()

    def test_overtaken_transaction_after_a_checkpoint(self, tmp_path):
        directory = str(tmp_path / "db")
        db = open_database(directory, fsync=False)
        _setup(db)
        db.checkpoint()
        self._overtake(db.connect(name="a"), db.connect(name="b"))
        live = canonical_state(db)
        db.close()
        recovered = open_database(directory, fsync=False)
        assert canonical_state(recovered) == live
        assert _floor(recovered.default_session, "Shoes") == 1
        recovered.close()

    def test_overtaken_default_session_transaction(self, tmp_path):
        directory = str(tmp_path / "db")
        db = open_database(directory, fsync=False)
        _setup(db)
        self._overtake(db.default_session, db.connect(name="b"))
        live = canonical_state(db)
        db.close()
        recovered = open_database(directory, fsync=False)
        assert canonical_state(recovered) == live
        recovered.close()

    def test_overtaken_transaction_shares_its_session_name(self, tmp_path):
        """Two sessions of one name overlap: replay gives the overtaken
        transaction a context of its own."""
        directory = str(tmp_path / "db")
        db = open_database(directory, fsync=False)
        _setup(db)
        self._overtake(db.connect(name="twin"),
                       db.connect(name="twin"))
        live = canonical_state(db)
        db.close()
        recovered = open_database(directory, fsync=False)
        assert canonical_state(recovered) == live
        assert len(recovered.transactions.sessions) == 1  # replay's are closed
        recovered.close()

    def test_interleaved_commits_replay_in_commit_order(self, tmp_path):
        directory = str(tmp_path / "db")
        acked, _in_flight, crashed = self._run(directory)
        assert not crashed
        recovered = open_database(directory, fsync=False)
        assert canonical_state(recovered) == self._expected(acked)
        recovered.close()


class TestConcurrentStress:
    """Many worker threads hammer one server: every acknowledged commit
    is present exactly once afterwards, every aborted one absent."""

    def test_server_stress_with_conflicts(self):
        import threading

        from repro.server import Client, ServerThread

        server = ServerThread()
        host, port = server.start()
        _setup(server.db)
        server.db.execute("create {own ref Dept} Log")

        workers, rounds = 4, 6
        committed = [[] for _ in range(workers)]
        errors = []

        def work(wid):
            try:
                client = Client(host, port, user=f"w{wid}")
                for i in range(rounds):
                    tag = f"w{wid}r{i}"
                    try:
                        client.begin()
                        client.query(
                            f'append to Log (dname = "{tag}", floor = {wid})'
                        )
                        client.commit()
                        committed[wid].append(tag)
                    except Exception as exc:
                        if not getattr(exc, "serialization", False):
                            raise
                        # conflict: roll back (a commit-time loser has
                        # already auto-aborted; a statement-time loser
                        # is doomed and must abort explicitly)
                        try:
                            client.abort()
                        except Exception:
                            pass
                client.close()
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(w,))
                   for w in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors, errors

        rows = {row[0] for row in server.db.execute(
            "retrieve (L.dname) from L in Log").rows}
        acked = {tag for tags in committed for tag in tags}
        assert rows == acked
        assert len(server.db.execute(
            "retrieve (L.dname) from L in Log").rows) == len(acked)
        assert acked  # the workload must have made progress
        server.stop()

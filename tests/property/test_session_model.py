"""Model check: multi-session snapshot isolation against a dict model.

A Hypothesis state machine drives three sessions of one durable database
holding an ``Accts(id, bal)`` ``own ref`` set with a hash index on
``id``. Each session may begin, read one row, read every row, replace,
append, delete, commit or abort, and aborts when a statement loses a
conflict, as a retrying client would. While no transaction is open the
database may checkpoint or be closed and reopened; every run ends with a
reopen, which first closes (and so aborts) whatever is still open.

The oracle is a pure-Python model: the committed state is a dict
``id -> bal``, and an open transaction is its begin-time copy of that
dict plus its own writes. The engine decides *when* a
:class:`~repro.errors.SerializationError` happens; the model checks the
outcomes:

* every read inside a transaction sees its snapshot plus its own writes;
* a read outside a transaction sees the committed model;
* a reopen recovers exactly the acknowledged commits;
* no two overlapping transactions both commit a write to the same
  ``id`` (a delete counts as a write);
* a transaction that was the only one open for its whole life never
  gets a ``SerializationError``.

The machine runs on the memory store and on the paged file store with
an object cache smaller than the set, so eviction is exercised too.
"""

from __future__ import annotations

import shutil
import tempfile
from typing import Optional

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.database import Database
from repro.errors import SerializationError

SESSIONS = 3
ROWS = 6

sessions = st.integers(min_value=0, max_value=SESSIONS - 1)
#: how a row id is drawn (see ``SessionModel._pick``): the id written
#: last, the newest append, a row that never existed, or an initial row
picks = st.integers(min_value=0, max_value=ROWS + 7)
#: ``end`` commits three times in four, so transactions overlap often
commits = st.integers(min_value=0, max_value=3).map(lambda n: n > 0)
balances = st.integers(min_value=0, max_value=999).map(float)


class _Txn:
    """The model of one open transaction."""

    def __init__(self, snapshot: dict, begin_seq: int, alone: bool):
        self.snapshot = snapshot
        #: id -> new balance, or None for a delete
        self.writes: dict[int, Optional[float]] = {}
        self.begin_seq = begin_seq
        #: True while no other transaction overlapped this one
        self.alone = alone

    def view(self) -> dict:
        state = dict(self.snapshot)
        for key, bal in self.writes.items():
            if bal is None:
                state.pop(key, None)
            else:
                state[key] = bal
        return state


class SessionModel(RuleBasedStateMachine):
    """Three sessions against one durable database and its dict model."""

    open_kwargs: dict = {}

    def __init__(self):
        super().__init__()
        self.directory = tempfile.mkdtemp(prefix="session-model-")
        self.db = Database.open(self.directory, fsync=False, **self.open_kwargs)
        self.db.execute("define type Acct as (id: int4, bal: float8)")
        self.db.execute("create {own ref Acct} Accts")
        self.db.execute("create index on Accts (id) using hash")
        self.committed: dict[int, float] = {}
        for key in range(1, ROWS + 1):
            self.db.execute(f"append to Accts (id = {key}, bal = {float(key)!r})")
            self.committed[key] = float(key)
        self.next_id = ROWS + 1
        #: ids written so far, by any session, newest last
        self.recent: list[int] = []
        #: commits so far; a transaction's begin_seq is this at begin
        self.seq = 0
        #: (commit_seq, ids written) of every acknowledged write commit
        self.history: list[tuple[int, frozenset]] = []
        self.txns: list[Optional[_Txn]] = [None] * SESSIONS
        self._connect()

    def _connect(self) -> None:
        self.sessions = [self.db.connect(name=f"m{i}") for i in range(SESSIONS)]

    def teardown(self) -> None:
        try:
            self.reopen()  # every run ends by checking recovery
            for session in self.sessions:
                session.close()
            self.db.close()
        finally:
            shutil.rmtree(self.directory, ignore_errors=True)

    # -- helpers -----------------------------------------------------------

    def _pick(self, pick: int) -> int:
        """Map a drawn ``pick`` to a row id. Half the picks take the id
        written last, by any session, so sessions collide on purpose."""
        if pick < 6:
            return self.recent[-1] if self.recent else 1
        if pick == 6:
            return self.next_id - 1  # the newest append
        if pick == 7:
            return self.next_id  # never handed out
        return pick - 7  # an initial row

    def _view(self, index: int) -> dict:
        txn = self.txns[index]
        return self.committed if txn is None else txn.view()

    def _others_open(self, index: int) -> list[_Txn]:
        return [t for i, t in enumerate(self.txns) if i != index and t is not None]

    def _record_commit(self, begin_seq: int, ids: frozenset) -> None:
        self.seq += 1
        for commit_seq, other in self.history:
            assert commit_seq <= begin_seq or not (other & ids), (
                f"overlapping transactions both committed writes to {other & ids}"
            )
        if ids:
            self.history.append((self.seq, ids))

    def _run(self, index: int, text: str):
        """Execute ``text``; None when the engine raised a conflict, after
        which the session aborts, as a retrying client would."""
        try:
            return self.sessions[index].execute(text)
        except SerializationError:
            txn = self.txns[index]
            assert txn is not None, "SerializationError outside a transaction"
            assert not txn.alone, "a transaction alone got SerializationError"
            self.abort(index)
            return None

    def _write(self, index: int, text: str, writes, in_txn: bool) -> None:
        """Run a write — inside a transaction when ``in_txn``, opening
        one if needed — and, if it succeeds, apply it to the model.
        ``writes`` maps the session's view to the ids written."""
        if in_txn:
            self.begin(index)
        txn = self.txns[index]
        writes = writes(self._view(index))
        self.recent.extend(writes)
        if txn is None:
            others = self._others_open(index)
            self.sessions[index].execute(text)  # autocommit never conflicts
            for other in others:
                other.alone = False
            for key, bal in writes.items():
                if bal is None:
                    self.committed.pop(key, None)
                else:
                    self.committed[key] = bal
            self._record_commit(self.seq, frozenset(writes))
            return
        if self._run(index, text) is not None:
            txn.writes.update(writes)

    # -- transaction control -----------------------------------------------

    @rule(index=sessions)
    def begin(self, index):
        if self.txns[index] is not None:
            return
        others = self._others_open(index)
        self.sessions[index].begin()
        for other in others:
            other.alone = False
        self.txns[index] = _Txn(dict(self.committed), self.seq, not others)

    @rule(index=sessions, commit=commits)
    def end(self, index, commit):
        if not commit:
            self.abort(index)
            return
        txn = self.txns[index]
        if txn is None:
            return
        self.txns[index] = None
        try:
            self.sessions[index].commit()
        except SerializationError:
            assert not txn.alone, "a transaction alone got SerializationError"
            return
        for key, bal in txn.writes.items():
            if bal is None:
                self.committed.pop(key, None)
            else:
                self.committed[key] = bal
        self._record_commit(txn.begin_seq, frozenset(txn.writes))

    def abort(self, index):
        if self.txns[index] is None:
            return
        self.sessions[index].abort()
        self.txns[index] = None

    # -- reads -------------------------------------------------------------

    @rule(index=sessions, pick=picks)
    def point_read(self, index, pick):
        key = self._pick(pick)
        result = self._run(
            index, f"retrieve (A.bal) from A in Accts where A.id = {key}"
        )
        if result is not None:
            view = self._view(index)
            expected = [(view[key],)] if key in view else []
            assert result.rows == expected, (key, result.rows, expected)

    @rule(index=sessions)
    def full_read(self, index):
        result = self._run(index, "retrieve (A.id, A.bal) from A in Accts")
        if result is not None:
            assert sorted(result.rows) == sorted(self._view(index).items())

    # -- writes ------------------------------------------------------------

    @rule(index=sessions, in_txn=st.booleans(), pick=picks, bal=balances)
    def replace(self, index, in_txn, pick, bal):
        key = self._pick(pick)
        self._write(
            index,
            f"replace A (bal = {bal!r}) from A in Accts where A.id = {key}",
            lambda view: {key: bal} if key in view else {},
            in_txn,
        )

    @rule(index=sessions, in_txn=st.booleans(), bal=balances)
    def append(self, index, in_txn, bal):
        key = self.next_id
        self.next_id += 1
        self._write(index, f"append to Accts (id = {key}, bal = {bal!r})",
                    lambda view: {key: bal}, in_txn)

    @rule(index=sessions, in_txn=st.booleans(), pick=picks)
    def delete(self, index, in_txn, pick):
        key = self._pick(pick)
        self._write(
            index,
            f"delete A from A in Accts where A.id = {key}",
            lambda view: {key: None} if key in view else {},
            in_txn,
        )

    # -- durability ----------------------------------------------------------

    @precondition(lambda self: all(t is None for t in self.txns))
    @rule()
    def checkpoint(self):
        self.db.checkpoint()

    @precondition(lambda self: all(t is None for t in self.txns))
    @rule()
    def reopen(self):
        for session in self.sessions:
            session.close()  # aborts any open transaction
        self.txns = [None] * SESSIONS
        self.db.close()
        self.db = Database.open(self.directory, fsync=False, **self.open_kwargs)
        self._connect()
        rows = self.db.execute("retrieve (A.id, A.bal) from A in Accts").rows
        assert sorted(rows) == sorted(self.committed.items())

    @invariant()
    def open_transactions_match(self):
        engine = self.db.transactions.introspect()["open_transactions"]
        assert engine == sum(t is not None for t in self.txns)


class PagedSessionModel(SessionModel):
    """The same machine over the paged file store, cache below set size."""

    open_kwargs = {"storage": "paged", "cache_capacity": ROWS // 2}


TestSessionModelMemory = SessionModel.TestCase
TestSessionModelMemory.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)

TestSessionModelPagedFile = PagedSessionModel.TestCase
TestSessionModelPagedFile.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)


@pytest.mark.parametrize("machine_class", [SessionModel, PagedSessionModel])
class TestFixedSchedules:
    """Interleavings a random search reaches only rarely, run through
    the same model; each ends with the teardown's reopen check."""

    def test_commit_overtaken_by_an_append(self, machine_class):
        machine = machine_class()
        try:
            machine.begin(0)
            machine.append(1, False, 50.0)  # commits after 0's snapshot
            machine.replace(0, True, 6, 77.0)  # that newest row: unseen by 0
            machine.end(0, True)
        finally:
            machine.teardown()

    def test_delete_and_replace_of_one_row(self, machine_class):
        machine = machine_class()
        try:
            machine.delete(0, True, 8)  # initial row 1
            machine.replace(1, True, 0, 99.0)  # the id written last: row 1
            machine.end(0, True)
            machine.end(1, True)
        finally:
            machine.teardown()

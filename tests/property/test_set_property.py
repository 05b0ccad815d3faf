"""SetInstance against a plain-list model.

A stateful machine drives one set with ``ref``, ``own ref`` or ``own``
elements through interleaved inserts, removes, membership tests, value
copies, pickle round trips (current and older state forms) and undo-log
transactions (rollback, park/resume). After every step the set must
iterate exactly as the model list: same members, same insertion order.

A second test pins the complexity of the OID-keyed reference container:
removing the first or the last member of a large reference set never
falls back to the member-by-member equality scan.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro import Database
from repro.core import values
from repro.core.types import INT4, SetType, TupleType, own, own_ref, ref
from repro.core.undo import UndoLog
from repro.core.values import Ref, SetInstance, copy_value

TARGET = TupleType([("n", own(INT4))])
SPECS = {"ref": ref(TARGET), "own ref": own_ref(TARGET), "own": own(INT4)}
PICKS = st.integers(min_value=1, max_value=12)


class SetMachine(RuleBasedStateMachine):
    """One set, its list model, and at most one open undo log."""

    def __init__(self) -> None:
        super().__init__()
        self.db = Database()
        self.undo: UndoLog | None = None
        self.begin_model: list = []

    @initialize(kind=st.sampled_from(sorted(SPECS)))
    def create(self, kind: str) -> None:
        self.kind = kind
        self.set = SetInstance(SetType(SPECS[kind]))
        self.model: list = []

    def member(self, pick: int):
        return pick if self.kind == "own" else Ref(pick)

    def before_write(self) -> None:
        if self.undo is not None:
            self.undo.save_set(self.set)

    # -- membership -----------------------------------------------------------

    @rule(pick=PICKS)
    def insert(self, pick: int) -> None:
        value = self.member(pick)
        self.before_write()
        stored = self.set.insert(value)
        if value in self.model:
            assert stored is None
        else:
            assert stored == value
            self.model.append(value)

    @rule(pick=PICKS)
    def remove(self, pick: int) -> None:
        value = self.member(pick)
        self.before_write()
        assert self.set.remove(value) == (value in self.model)
        if value in self.model:
            self.model.remove(value)

    @rule(pick=PICKS)
    def contains(self, pick: int) -> None:
        value = self.member(pick)
        assert self.set.contains(value) == (value in self.model)
        if self.kind != "own":
            # reference elements compare by OID: a bare int never matches
            assert not self.set.contains(pick)

    @rule()
    def clear(self) -> None:
        self.before_write()
        self.set.clear()
        self.model.clear()

    # -- copies and pickles ---------------------------------------------------

    @precondition(lambda self: self.undo is None)
    @rule(pick=PICKS)
    def copy_is_independent(self, pick: int) -> None:
        clone = copy_value(self.set)
        assert list(clone) == self.model
        clone.insert(self.member(pick + 100))
        for member in self.model[:1]:
            clone.remove(member)
        assert list(self.set) == self.model
        self.set = copy_value(self.set)

    @precondition(lambda self: self.undo is None)
    @rule()
    def pickle_round_trip(self) -> None:
        self.set = pickle.loads(pickle.dumps(self.set))

    @precondition(lambda self: self.undo is None)
    @rule()
    def load_older_state(self) -> None:
        """Older pickles hold a member list plus an ``_oids`` index."""
        members = self.set.members()
        oids = {m.oid for m in members} if self.kind != "own" else None
        state = (
            None,
            {"type": self.set.type, "key": None, "_members": members, "_oids": oids},
        )
        loaded = SetInstance.__new__(SetInstance)
        loaded.__setstate__(state)
        self.set = loaded

    # -- transactions -----------------------------------------------------------

    @precondition(lambda self: self.undo is None)
    @rule()
    def begin(self) -> None:
        self.undo = UndoLog(self.db)
        self.begin_model = list(self.model)

    @precondition(lambda self: self.undo is not None)
    @rule()
    def rollback(self) -> None:
        self.undo.rollback()
        self.undo = None
        self.model = self.begin_model

    @precondition(lambda self: self.undo is not None)
    @rule()
    def commit(self) -> None:
        self.undo.release_pins()
        self.undo = None

    @precondition(lambda self: self.undo is not None)
    @rule()
    def park_and_resume(self) -> None:
        self.undo.park()
        assert list(self.set) == self.begin_model
        self.undo.resume()

    # -- the model check ----------------------------------------------------------

    @invariant()
    def iterates_as_the_model(self) -> None:
        assert list(self.set) == self.model
        assert self.set.members() == self.model
        assert len(self.set) == len(self.model)


SetMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)
TestSetAgainstListModel = SetMachine.TestCase


@pytest.mark.parametrize("kind", ["ref", "own ref"])
def test_reference_removal_never_scans(kind, monkeypatch):
    collection = SetInstance(SetType(SPECS[kind]))
    for oid in range(1, 20_001):
        collection.insert(Ref(oid))

    def scanned(*_args):
        raise AssertionError("reference set fell back to an equality scan")

    monkeypatch.setattr(values, "_members_equal", scanned)
    assert collection.remove(Ref(1))
    assert collection.remove(Ref(20_000))
    assert not collection.remove(Ref(1))
    assert collection.contains(Ref(10_000))
    assert len(collection) == 19_998
    members = collection.members()
    assert (members[0], members[-1]) == (Ref(2), Ref(19_999))

"""The create path: a new object reaches its store once, fully built.

Every test runs on the memory store, on the paged store with a 2-object
cache (components built for an object evict each other while it is
being built) and on the paged store with an unbounded cache.
"""

import pytest

from repro import Database
from repro.core.values import Ref, SetInstance, TupleInstance
from repro.errors import TypeSystemError
from repro.util.statedump import canonical_state

STORES = {
    "memory": {},
    "paged-tiny-cache": {"storage": "paged", "cache_capacity": 2},
    "paged-unbounded": {"storage": "paged"},
}


@pytest.fixture(params=list(STORES))
def db(request):
    db = Database(**STORES[request.param])
    db.interpreter.parallel_mode = "off"
    db.execute(
        "define type Person as (name: char(20), age: int4, "
        "kids: {own ref Person})"
    )
    db.execute("create {own ref Person} People")
    db.insert("People", name="Z", age=90, kids=[{"name": "z1", "age": 60}])
    return db


def paged(db) -> bool:
    return hasattr(db.store, "file")


def stored_records(db) -> int:
    """Records the store holds: heap records on the paged store."""
    return db.store.file.record_count if paged(db) else len(db.store)


class HeapCounter:
    """Counts heap inserts and relocating updates on one heap file."""

    def __init__(self, heap):
        self.inserts = 0
        self.relocations = 0
        insert, update = heap.insert, heap.update

        def counted_insert(record):
            self.inserts += 1
            return insert(record)

        def counted_update(rid, record):
            new_rid = update(rid, record)
            if new_rid != rid:
                self.relocations += 1
                self.inserts -= 1  # a relocation re-inserts through insert
            return new_rid

        heap.insert = counted_insert
        heap.update = counted_update


def render(value):
    """A comparable rendering of a stored value (OIDs kept as they are)."""
    if isinstance(value, TupleInstance):
        return {name: render(slot) for name, slot in value._slots.items()}
    if isinstance(value, SetInstance):
        return sorted(render(member) for member in value.members())
    if isinstance(value, Ref):
        return value.oid
    return value


def test_each_new_object_is_one_heap_insert_and_no_writeback(db):
    counter = HeapCounter(db.store.file) if paged(db) else None
    writebacks = db.store.cache_stats.writebacks if paged(db) else 0
    before = stored_records(db)
    created = []
    for n in range(5):
        parent = db.insert(
            "People", name=f"p{n}", age=n,
            kids=[{"name": f"k{n}.{k}", "age": k} for k in range(2)],
        )
        created.append(parent.oid)
        created.extend(kid.oid for kid in db.objects.fetch(parent.oid).get("kids").members())
    assert len(created) == 15
    assert stored_records(db) == before + 15
    if paged(db):
        db.store.flush()  # what a checkpoint writes first
        assert counter.inserts == 15
        assert counter.relocations == 0
        assert db.store.cache_stats.writebacks == writebacks
        for oid in created:
            assert render(db.store.fetch_cold(oid).value) == render(
                db.objects.fetch(oid)
            )
    names = {db.objects.fetch(oid).get("name") for oid in created}
    assert names == {f"p{n}" for n in range(5)} | {
        f"k{n}.{k}" for n in range(5) for k in range(2)
    }


def test_owner_gets_a_lower_oid_than_its_inline_kids(db):
    parent = db.insert(
        "People", name="A", age=40,
        kids=[
            {"name": "a1", "age": 10, "kids": [{"name": "a11", "age": 1}]},
            {"name": "a2", "age": 12},
        ],
    )
    kids = db.objects.fetch(parent.oid).get("kids").members()
    assert len(kids) == 2
    for kid in kids:
        assert parent.oid < kid.oid
        assert db.objects.owner_of(kid.oid) == (parent.oid, None)
        for grandkid in db.objects.fetch(kid.oid).get("kids").members():
            assert kid.oid < grandkid.oid
    assert db.objects.owner_of(parent.oid) == (None, "People")


BAD_SECOND_KID = dict(
    name="A", age=1,
    kids=[{"name": "a1", "age": 2}, {"name": "a2", "age": "not a number"}],
)


def test_failed_creation_leaves_the_state_as_it_was(db):
    state, records = canonical_state(db), stored_records(db)
    live = sorted(db.objects.oids())
    with pytest.raises(TypeSystemError):
        db.insert("People", **BAD_SECOND_KID)
    assert canonical_state(db) == state
    assert stored_records(db) == records
    assert sorted(db.objects.oids()) == live


def test_failed_creation_inside_a_committed_transaction(db):
    state, records = canonical_state(db), stored_records(db)
    db.begin()
    with pytest.raises(TypeSystemError):
        db.insert("People", **BAD_SECOND_KID)
    db.commit()
    assert canonical_state(db) == state
    assert stored_records(db) == records


def test_failed_oids_are_not_reused(db):
    last_live = max(db.objects.oids())
    with pytest.raises(TypeSystemError):
        db.insert("People", **BAD_SECOND_KID)
    failed = db.objects.allocated_after(last_live)  # the parent, a1 and a2
    assert len(failed) == 3
    assert all(db.objects.is_tombstoned(oid) for oid in failed)
    assert db.insert("People", name="B", age=3).oid > max(failed)


def test_abort_removes_a_parent_and_its_kids(db):
    state, records = canonical_state(db), stored_records(db)
    db.begin()
    parent = db.insert(
        "People", name="A", age=40,
        kids=[{"name": f"a{k}", "age": k} for k in range(3)],
    )
    kids = [kid.oid for kid in db.objects.fetch(parent.oid).get("kids").members()]
    db.abort()
    assert canonical_state(db) == state
    assert stored_records(db) == records
    assert not db.objects.is_live(parent.oid)
    assert not any(db.objects.is_live(kid) for kid in kids)


@pytest.fixture(params=list(STORES))
def pal_db(request):
    db = Database(**STORES[request.param])
    db.interpreter.parallel_mode = "off"
    db.execute(
        "define type Person as (name: char(20), age: int4, "
        "pal: own ref Person, kids: {own ref Person})"
    )
    db.execute("create {own ref Person} People")
    return db


def free_person(db, name):
    """A live object nothing owns."""
    return db.integrity.create_object(db.type("Person"), {"name": name, "age": 1})


def assert_given_back(db, ref):
    """``ref`` is live and unowned, and a later creation may claim it."""
    assert db.objects.is_live(ref.oid)
    assert db.objects.owner_of(ref.oid) == (None, None)
    claimer = db.insert("People", name="C", age=3, pal=ref)
    assert db.objects.owner_of(ref.oid) == (claimer.oid, None)


def test_failed_creation_gives_back_a_pal_claimed_by_a_built_slot(pal_db):
    free = free_person(pal_db, "f")
    with pytest.raises(TypeSystemError):
        pal_db.insert(
            "People", name="A", age=1, pal=free,
            kids=[{"name": "a1", "age": "not a number"}],
        )
    assert_given_back(pal_db, free)


def test_failed_creation_gives_back_a_kid_claimed_by_the_failing_slot(pal_db):
    free = free_person(pal_db, "f")
    with pytest.raises(TypeSystemError):
        pal_db.insert(
            "People", name="A", age=1,
            kids=[free, {"name": "a2", "age": "not a number"}],
        )
    assert_given_back(pal_db, free)


def test_failed_creation_gives_back_what_an_inline_kid_claimed(pal_db):
    free = free_person(pal_db, "f")
    state, records = canonical_state(pal_db), stored_records(pal_db)
    with pytest.raises(TypeSystemError):
        pal_db.insert(
            "People", name="A", age=1,
            kids=[
                {"name": "a1", "age": 2, "pal": free},
                {"name": "a2", "age": "not a number"},
            ],
        )
    assert canonical_state(pal_db) == state
    assert stored_records(pal_db) == records
    assert_given_back(pal_db, free)

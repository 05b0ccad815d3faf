"""Unit tests for the object table: OIDs, tombstones, ownership."""

import pytest

from repro.core.identity import MemoryObjectStore, ObjectTable
from repro.core.types import INT4, TupleType, own
from repro.core.values import TupleInstance
from repro.errors import OwnershipError, UnknownObjectError


def make_instance(x: int = 0) -> TupleInstance:
    t = TupleType([("x", own(INT4))])
    return TupleInstance(t, {"x": x})


class TestRegistration:
    def test_oids_start_at_one_and_increase(self):
        table = ObjectTable()
        a = table.register(make_instance())
        b = table.register(make_instance())
        assert a == 1
        assert b == 2

    def test_register_sets_instance_oid(self):
        table = ObjectTable()
        instance = make_instance()
        oid = table.register(instance)
        assert instance.oid == oid

    def test_fetch_and_deref(self):
        table = ObjectTable()
        instance = make_instance(7)
        oid = table.register(instance)
        assert table.fetch(oid) is instance
        assert table.deref(oid) is instance

    def test_unknown_oid(self):
        table = ObjectTable()
        with pytest.raises(UnknownObjectError):
            table.fetch(99)
        assert table.deref(99) is None

    def test_len_counts_live(self):
        table = ObjectTable()
        for _ in range(3):
            table.register(make_instance())
        assert len(table) == 3


class TestDeletion:
    def test_delete_leaves_tombstone(self):
        table = ObjectTable()
        oid = table.register(make_instance())
        table.delete(oid)
        assert not table.is_live(oid)
        assert table.is_tombstoned(oid)
        assert table.was_allocated(oid)
        assert table.deref(oid) is None
        with pytest.raises(UnknownObjectError):
            table.fetch(oid)

    def test_double_delete_raises(self):
        table = ObjectTable()
        oid = table.register(make_instance())
        table.delete(oid)
        with pytest.raises(UnknownObjectError):
            table.delete(oid)

    def test_oids_never_reused(self):
        table = ObjectTable()
        oid = table.register(make_instance())
        table.delete(oid)
        new_oid = table.register(make_instance())
        assert new_oid != oid

    def test_never_allocated_vs_tombstoned(self):
        table = ObjectTable()
        oid = table.register(make_instance())
        assert table.was_allocated(oid)
        assert not table.was_allocated(oid + 5)
        assert not table.is_tombstoned(oid)
        assert not table.is_tombstoned(oid + 5)

    def test_older_snapshot_tombstone_set_is_dropped(self):
        import pickle

        table = ObjectTable()
        oid = table.register(make_instance())
        table.delete(oid)
        state = table.__getstate__()
        state["_tombstones"] = {oid}  # what older snapshots carry
        loaded = ObjectTable.__new__(ObjectTable)
        loaded.__setstate__(state)
        assert "_tombstones" not in vars(loaded)
        assert loaded.is_tombstoned(oid)
        assert pickle.loads(pickle.dumps(table)).is_tombstoned(oid)


class TestOwnership:
    def test_claim_by_object(self):
        table = ObjectTable()
        owner = table.register(make_instance())
        child = table.register(make_instance())
        table.claim(child, owner=owner)
        assert table.is_owned(child)
        assert table.owner_of(child) == (owner, None)

    def test_claim_by_name(self):
        table = ObjectTable()
        child = table.register(make_instance())
        table.claim(child, owner_name="Employees")
        assert table.owner_of(child) == (None, "Employees")

    def test_exclusivity(self):
        table = ObjectTable()
        owner1 = table.register(make_instance())
        owner2 = table.register(make_instance())
        child = table.register(make_instance())
        table.claim(child, owner=owner1)
        with pytest.raises(OwnershipError):
            table.claim(child, owner=owner2)
        with pytest.raises(OwnershipError):
            table.claim(child, owner_name="Friends")

    def test_release_allows_reclaim(self):
        table = ObjectTable()
        owner1 = table.register(make_instance())
        owner2 = table.register(make_instance())
        child = table.register(make_instance())
        table.claim(child, owner=owner1)
        table.release(child)
        table.claim(child, owner=owner2)
        assert table.owner_of(child) == (owner2, None)

    def test_claim_requires_exactly_one_owner(self):
        table = ObjectTable()
        child = table.register(make_instance())
        with pytest.raises(OwnershipError):
            table.claim(child)
        with pytest.raises(OwnershipError):
            table.claim(child, owner=1, owner_name="X")

    def test_register_with_owner(self):
        table = ObjectTable()
        owner = table.register(make_instance())
        child = table.register(make_instance(), owner=owner)
        assert table.owned_by(owner) == [child]

    def test_owned_by_name(self):
        table = ObjectTable()
        a = table.register(make_instance(), owner_name="S")
        b = table.register(make_instance(), owner_name="S")
        table.register(make_instance(), owner_name="T")
        assert sorted(table.owned_by_name("S")) == [a, b]

    def test_register_rejects_two_owners(self):
        table = ObjectTable()
        with pytest.raises(OwnershipError):
            table.register(make_instance(), owner=1, owner_name="S")


class TestMemoryObjectStore:
    def test_basic_round_trip(self):
        from repro.core.identity import StoredObject

        store = MemoryObjectStore()
        record = StoredObject(oid=1, value=make_instance())
        store.insert(1, record)
        assert 1 in store
        assert store.fetch(1) is record
        store.delete(1)
        assert 1 not in store

    def test_record_reads_dead_as_none_and_survives_pickling(self):
        import pickle

        from repro.core.identity import StoredObject

        store = MemoryObjectStore()
        record = StoredObject(oid=1, value=make_instance())
        store.insert(1, record)
        assert store.record(1) is record
        assert store.record(2) is None
        copy = pickle.loads(pickle.dumps(store))
        assert copy.record(1).oid == 1
        copy.delete(1)
        assert copy.record(1) is None

    def test_duplicate_insert_rejected(self):
        from repro.core.identity import StoredObject
        from repro.errors import StorageError

        store = MemoryObjectStore()
        store.insert(1, StoredObject(oid=1, value=make_instance()))
        with pytest.raises(StorageError):
            store.insert(1, StoredObject(oid=1, value=make_instance()))

    def test_stored_object_is_slotted_weakrefable_and_reads_dict_state(self):
        import pickle
        import weakref

        from repro.core.identity import StoredObject

        record = StoredObject(oid=3, value=make_instance(4), owner_name="S")
        assert not hasattr(record, "__dict__")
        assert weakref.ref(record)() is record
        copy = pickle.loads(pickle.dumps(record))
        assert (copy.oid, copy.owner, copy.owner_name) == (3, None, "S")
        assert copy.value.get("x") == 4
        older = StoredObject.__new__(StoredObject)
        older.__setstate__(  # the dataclass-era pickle state
            {"oid": 3, "value": record.value, "owner": 1, "owner_name": None}
        )
        assert (older.oid, older.owner, older.owner_name) == (3, 1, None)

    def test_update_unknown_rejected(self):
        from repro.core.identity import StoredObject
        from repro.errors import StorageError

        store = MemoryObjectStore()
        with pytest.raises(StorageError):
            store.update(5, StoredObject(oid=5, value=make_instance()))

"""Unit tests for the paged object store."""

import pytest

from repro.core.identity import ObjectTable, StoredObject
from repro.core.types import INT4, TEXT, TupleType, own
from repro.core.values import TupleInstance
from repro.errors import StorageError
from repro.storage.object_store import PagedObjectStore


def make_record(oid: int, payload: str = "x") -> StoredObject:
    t = TupleType([("n", own(INT4)), ("s", own(TEXT))])
    return StoredObject(oid=oid, value=TupleInstance(t, {"n": oid, "s": payload}))


class TestPagedStore:
    def test_insert_fetch(self):
        store = PagedObjectStore()
        store.insert(1, make_record(1))
        assert store.fetch(1).value.get("n") == 1
        assert 1 in store
        assert len(store) == 1

    def test_duplicate_insert_rejected(self):
        store = PagedObjectStore()
        store.insert(1, make_record(1))
        with pytest.raises(StorageError):
            store.insert(1, make_record(1))

    def test_fetch_unknown_raises_keyerror(self):
        store = PagedObjectStore()
        with pytest.raises(KeyError):
            store.fetch(9)

    def test_update_round_trip(self):
        store = PagedObjectStore()
        store.insert(1, make_record(1, "a"))
        store.update(1, make_record(1, "b"))
        assert store.fetch(1).value.get("s") == "b"

    def test_update_unknown_rejected(self):
        store = PagedObjectStore()
        with pytest.raises(StorageError):
            store.update(9, make_record(9))

    def test_delete(self):
        store = PagedObjectStore()
        store.insert(1, make_record(1))
        store.delete(1)
        assert 1 not in store
        assert len(store) == 0

    def test_oids_iteration(self):
        store = PagedObjectStore()
        for oid in (1, 2, 3):
            store.insert(oid, make_record(oid))
        assert sorted(store.oids()) == [1, 2, 3]

    def test_cold_fetch_deserializes_from_pages(self):
        store = PagedObjectStore()
        store.insert(1, make_record(1, "cold"))
        store.evict_live_cache()
        record = store.fetch_cold(1)
        assert record.value.get("s") == "cold"
        # cold fetch returns a fresh deserialization, not the live object
        live = store.fetch(1)
        assert store.fetch_cold(1) is not live

    def test_pages_grow_with_volume(self):
        store = PagedObjectStore()
        for oid in range(1, 101):
            store.insert(oid, make_record(oid, "payload" * 20))
        assert store.page_count > 1
        for oid in (1, 50, 100):
            assert store.fetch_cold(oid).value.get("n") == oid

    def test_update_growing_record_relocates(self):
        store = PagedObjectStore()
        store.insert(1, make_record(1, "a"))
        # grow it past its page's free space by inserting filler first
        for oid in range(2, 30):
            store.insert(oid, make_record(oid, "f" * 100))
        store.update(1, make_record(1, "b" * 3000))
        assert store.fetch_cold(1).value.get("s") == "b" * 3000

    def test_rid_of_unknown(self):
        store = PagedObjectStore()
        with pytest.raises(StorageError):
            store.rid_of(5)


class TestObjectTableOverPagedStore:
    def test_register_and_deref(self):
        store = PagedObjectStore()
        table = ObjectTable(store)
        t = TupleType([("n", own(INT4))])
        oid = table.register(TupleInstance(t, {"n": 7}))
        assert table.fetch(oid).get("n") == 7
        table.delete(oid)
        assert table.deref(oid) is None

    def test_mark_dirty_reserializes(self):
        store = PagedObjectStore()
        table = ObjectTable(store)
        t = TupleType([("n", own(INT4))])
        instance = TupleInstance(t, {"n": 1})
        oid = table.register(instance)
        instance.set("n", 42)
        table.mark_dirty(oid)
        assert store.fetch_cold(oid).value.get("n") == 42


class TestRecordFormat:
    """The compact record format: no schema state on a page, types shared
    with the catalog through snapshots, older full-pickle records read."""

    @staticmethod
    def _db():
        """A paged database holding two Zebrafish, the second of which
        has a value in every slot (its pals set refers to the first)."""
        from repro.adt.builtin import Date
        from repro.core.database import Database

        db = Database(storage="paged", cache_capacity=4)
        db.execute(
            "define type Zebrafish as (alphaattr: int4, betaattr: char(20), "
            "innerattr: (deepattr: int4), tagsattr: {char(8)}, "
            "bornattr: Date, pals: {ref Zebrafish})"
        )
        zebrafish = db.catalog.schema_type("Zebrafish")
        first = db.integrity.create_object(zebrafish, {"alphaattr": 1})
        second = db.integrity.create_object(zebrafish, {
            "alphaattr": 7, "betaattr": "x", "innerattr": {"deepattr": 3},
            "tagsattr": ["t"], "bornattr": Date(1988, 7, 4), "pals": [first],
        })
        return db, second.oid

    def test_record_holds_no_schema_state(self):
        db, oid = self._db()
        db.store.flush()
        data = db.store.file.read(db.store.rid_of(oid))
        assert data[0] != 0x80  # not a full pickle
        for needle in (
            b"Zebrafish", b"alphaattr", b"betaattr", b"innerattr",
            b"deepattr", b"tagsattr", b"bornattr", b"pals", b"Date",
            b"char", b"int4", b"repro", b"Schema",
        ):
            assert needle not in data, needle
        record = db.store.fetch_cold(oid)
        assert record.value.get("innerattr").get("deepattr") == 3
        assert record.value.type is db.catalog.schema_type("Zebrafish")

    def test_snapshot_shares_the_type_table_with_the_catalog(self):
        import pickle

        db, oid = self._db()
        clone = pickle.loads(pickle.dumps(db))
        clone.store.evict_live_cache()
        zebrafish = clone.catalog.schema_type("Zebrafish")
        value = clone.objects.fetch(oid)
        assert value.type is zebrafish
        assert value.get("pals").type is zebrafish.attribute("pals").type
        assert value.get("innerattr").type is zebrafish.attribute("innerattr").type

    def test_reads_full_pickle_records_of_older_engines(self):
        import pickle

        store = PagedObjectStore()
        record = make_record(4, "old")
        decoded = store._deserialize(pickle.dumps(record, protocol=4))
        assert decoded.oid == 4
        assert decoded.value.get("s") == "old"


class Tagged:
    """An ADT class with its own reduction: its records pickle it whole."""

    def __init__(self, label: str):
        self.label = label

    def __reduce__(self):
        return (Tagged, (self.label,))

    def __eq__(self, other):
        return isinstance(other, Tagged) and other.label == self.label


class TestRecordValues:
    @staticmethod
    def _round_trip(py_class, value):
        """Store ``value`` in an ADT slot of class ``py_class`` and read
        it back through the record codec."""
        from repro.core.types import AdtType

        t = TupleType([("v", own(AdtType(py_class.__name__, py_class)))])
        instance = TupleInstance(t)
        instance._slots["v"] = value
        store = PagedObjectStore()
        record = store._deserialize(store._serialize(StoredObject(1, instance)))
        return record.value.get("v")

    def test_adt_with_its_own_reduction_pickles_as_itself(self):
        assert self._round_trip(Tagged, Tagged("x")) == Tagged("x")

    def test_a_plain_tuple_is_refused(self):
        with pytest.raises(StorageError):
            self._round_trip(tuple, (1, 2))

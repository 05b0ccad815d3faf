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
        table.mark_dirty(instance)
        assert store.fetch_cold(oid).value.get("n") == 42

    def test_mark_dirty_writes_the_instance_the_caller_holds(self):
        """A caller holding only the TupleInstance while five other
        objects pass through a 2-object cache: the record is evicted and
        dropped, and mark_dirty must write the caller's instance, not a
        copy faulted back from the page."""
        import gc

        from repro import Database

        db = Database(storage="paged", cache_capacity=2)
        db.execute("define type Acct as (id: int4, bal: float8)")
        db.execute("create {own ref Acct} Accts")
        refs = [db.insert("Accts", id=n, bal=0.0) for n in range(6)]
        instance = db.objects.fetch(refs[0].oid)
        for ref in refs[1:]:
            db.objects.fetch(ref.oid)
        gc.collect()
        instance._slots["bal"] = 99.0
        db.objects.mark_dirty(instance)
        db.store.flush()
        assert db.store.fetch_cold(refs[0].oid).value.get("bal") == 99.0
        assert db.objects.fetch(refs[0].oid).get("bal") == 99.0


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


class TestLiveMapping:
    """``store.live`` — the read-only view of live OIDs that generated
    pipelines test liveness against — agrees with ``is_live`` through an
    object's whole life, on both stores."""

    @staticmethod
    def _open(kind, tmp_path):
        from repro.storage.recovery import open_database

        return open_database(
            str(tmp_path / "db"),
            storage=kind,
            cache_capacity=2 if kind == "paged" else None,
        )

    @staticmethod
    def _assert_agrees(db):
        table = db.objects
        live = table.store.live
        for oid in range(0, table._next_oid + 2):
            assert (oid in live) == table.is_live(oid) == (oid in table.store)
        assert sorted(live) == sorted(table.oids())
        with pytest.raises(TypeError):
            live[1] = None  # read-only

    @staticmethod
    def _names(db):
        return sorted(
            row[0] for row in db.execute("retrieve (I.name) from I in Items").rows
        )

    @pytest.mark.parametrize("kind", ["memory", "paged"])
    def test_live_agrees_with_is_live(self, kind, tmp_path):
        db = self._open(kind, tmp_path)
        db.execute("define type Item as (name: char(8))")
        db.execute("create {own ref Item} Items")
        for n in range(6):  # a cache of 2 evicts most of them
            db.execute(f'append to Items (name = "i{n}")')
        self._assert_agrees(db)
        if kind == "paged":
            assert db.objects.store.cache_stats.evictions > 0
        db.execute('delete I from I in Items where I.name = "i1"')
        self._assert_agrees(db)
        assert 2 not in db.objects.store.live
        # an aborted delete: undo re-registers the object
        db.execute("begin")
        db.execute('delete I from I in Items where I.name = "i2"')
        assert 3 not in db.objects.store.live
        db.execute("abort")
        assert 3 in db.objects.store.live
        self._assert_agrees(db)
        db.checkpoint()
        db.close()
        db = self._open(kind, tmp_path)
        self._assert_agrees(db)
        assert self._names(db) == ["i0", "i2", "i3", "i4", "i5"]
        db.close()

    def test_cached_fused_plan_sees_an_object_resurrected_by_abort(self):
        """``abort`` moves the catalog epoch, so the plan cache never
        serves a plan across it; the plan kept from before the
        transaction is run directly, its generated function reused."""
        from repro import Database
        from repro.excess.compile import fused_pipeline
        from repro.excess.evaluator import Evaluator
        from repro.excess.plan import PlanContext

        db = Database()
        db.execute("define type Dept as (dname: char(8))")
        db.execute("define type Emp as (name: char(8), dept: ref Dept)")
        db.execute("create {own ref Dept} Depts")
        db.execute("create {own ref Emp} Emps")
        toys = db.insert("Depts", dname="Toys")
        db.insert("Emps", name="Sue", dept=toys)
        query = (
            "retrieve (E.name, E.dept.dname, D.dname) from E in Emps, "
            "D in Depts where E.dept is D"
        )
        assert db.execute(query).rows == [("Sue", "Toys", "Toys")]
        interpreter = db.interpreter
        root = interpreter.plan_cache.get(
            interpreter._cache_key(query, "dba", db.default_session)
        ).plan_root
        assert "exec=fused" in db.execute(query).plan_tree.splitlines()[1]
        generated = fused_pipeline(root, True)

        def run():
            ctx = PlanContext(Evaluator(db))
            return [row for batch in root.batches(ctx, {}, 1024) for row in batch]

        assert run() == [("Sue", "Toys", "Toys")]
        db.execute("begin")
        db.execute('delete D from D in Depts where D.dname = "Toys"')
        assert run() == []
        db.execute("abort")
        assert toys.oid in db.objects.store.live
        assert run() == [("Sue", "Toys", "Toys")]
        assert fused_pipeline(root, True) is generated

"""Unit tests for the bounded live-object cache: LRU eviction, pins,
write-back, and weak-reference identity."""

import gc

from repro.core.identity import StoredObject
from repro.core.types import INT4, TEXT, TupleType, own
from repro.core.values import TupleInstance
from repro.storage.object_store import PagedObjectStore


def make_record(oid: int, payload: str = "x") -> StoredObject:
    t = TupleType([("n", own(INT4)), ("s", own(TEXT))])
    return StoredObject(oid=oid, value=TupleInstance(t, {"n": oid, "s": payload}))


def make_store(capacity, **kwargs) -> PagedObjectStore:
    return PagedObjectStore(cache_capacity=capacity, **kwargs)


class TestBoundedCache:
    def test_live_count_stays_bounded(self):
        store = make_store(4)
        for oid in range(1, 21):
            store.insert(oid, make_record(oid))
        gc.collect()
        assert store.live_count <= 4
        assert store.cache_stats.peak_live <= 4
        assert store.cache_stats.evictions >= 16
        assert len(store) == 20  # nothing lost, just cold

    def test_unbounded_cache_keeps_everything(self):
        store = make_store(None)
        for oid in range(1, 21):
            store.insert(oid, make_record(oid))
        assert store.live_count == 20
        assert store.cache_stats.evictions == 0

    def test_fault_back_after_eviction(self):
        store = make_store(2)
        for oid in range(1, 6):
            store.insert(oid, make_record(oid, f"p{oid}"))
        gc.collect()
        faults_before = store.cache_stats.faults
        assert store.fetch(1).value.get("s") == "p1"
        assert store.cache_stats.faults == faults_before + 1

    def test_record_faults_back_and_reads_dead_as_none(self):
        store = make_store(2)
        for oid in range(1, 6):
            store.insert(oid, make_record(oid, f"p{oid}"))
        gc.collect()
        faults_before = store.cache_stats.faults
        assert store.record(1).value.get("s") == "p1"
        assert store.cache_stats.faults == faults_before + 1
        store.delete(2)
        assert store.record(2) is None
        assert store.record(99) is None

    def test_lru_victim_selection(self):
        store = make_store(2)
        store.insert(1, make_record(1))
        store.insert(2, make_record(2))
        store.fetch(1)  # 2 is now least recently used
        store.insert(3, make_record(3))
        gc.collect()
        assert 1 in store._live
        assert 2 not in store._live
        assert 3 in store._live

    def test_dirty_eviction_writes_back(self):
        store = make_store(2)
        store.insert(1, make_record(1, "old"))
        store.update(1, make_record(1, "new"))
        store.insert(2, make_record(2))
        store.insert(3, make_record(3))  # evicts dirty oid 1
        gc.collect()
        assert store.cache_stats.writebacks >= 1
        assert store.fetch_cold(1).value.get("s") == "new"

    def test_update_defers_serialization(self):
        store = make_store(None)
        store.insert(1, make_record(1, "a"))
        writes = store.pool.disk.stats.writes
        store.update(1, make_record(1, "b"))
        assert store.pool.disk.stats.writes == writes  # write-back, not through
        assert store.dirty_count == 1
        store.flush()
        assert store.dirty_count == 0
        assert store.fetch_cold(1).value.get("s") == "b"

    def test_weak_identity_survives_eviction(self):
        """While any caller still references an evicted object, fetch
        returns that same instance — eviction cannot fork identity."""
        store = make_store(1)
        record = make_record(1, "held")
        store.insert(1, record)
        store.insert(2, make_record(2))  # evicts 1 from the live cache
        assert 1 not in store._live
        assert store.fetch(1) is record

    def test_dropped_references_fault_fresh(self):
        store = make_store(1)
        store.insert(1, make_record(1, "v"))
        store.insert(2, make_record(2))
        gc.collect()  # no strong refs to 1 remain anywhere
        fetched = store.fetch(1)
        assert fetched.value.get("s") == "v"
        assert store.cache_stats.faults >= 1


class TestPins:
    def test_pinned_objects_are_not_evicted(self):
        store = make_store(2)
        store.insert(1, make_record(1))
        store.pin(1)
        for oid in range(2, 8):
            store.insert(oid, make_record(oid))
        assert 1 in store._live
        store.unpin(1)
        store.insert(8, make_record(8))
        store.fetch(8)
        gc.collect()
        assert store.live_count <= 2

    def test_pins_nest(self):
        store = make_store(8)
        store.insert(1, make_record(1))
        store.pin(1)
        store.pin(1)
        assert store.pin_count(1) == 2
        store.unpin(1)
        assert store.pin_count(1) == 1
        store.unpin(1)
        assert store.pin_count(1) == 0
        assert store.pinned_count == 0

    def test_all_pinned_overflows_instead_of_failing(self):
        store = make_store(2)
        for oid in range(1, 5):
            store.pin(oid)
            store.insert(oid, make_record(oid))
        assert store.live_count == 4  # over capacity, but correct

    def test_admitted_object_is_never_its_own_victim(self):
        """With every other cached object pinned, the object being
        admitted stays resident (overflow) — evicting it would drop the
        only record of an instance its caller is about to mutate."""
        store = make_store(2)
        for oid in (1, 2):
            store.insert(oid, make_record(oid))
            store.pin(oid)
        record = make_record(3, "fresh")
        store.insert(3, record)
        del record
        gc.collect()
        assert 3 in store._live
        store.fetch(3).value._slots["s"] = "mutated"
        gc.collect()
        assert store.fetch(3).value.get("s") == "mutated"

    def test_unpin_drains_overflow(self):
        store = make_store(2)
        for oid in range(1, 5):
            store.pin(oid)
            store.insert(oid, make_record(oid))
        for oid in range(1, 5):
            store.unpin(oid)
        gc.collect()
        assert store.live_count <= 2

    def test_unpin_tolerates_deleted_oid(self):
        store = make_store(4)
        store.insert(1, make_record(1))
        store.pin(1)
        store.delete(1)
        store.unpin(1)  # must not raise
        assert store.pinned_count == 0


class TestScanAndStats:
    def test_scan_objects_bounded_residency(self):
        store = make_store(4)
        for oid in range(1, 41):
            store.insert(oid, make_record(oid))
        gc.collect()
        store.cache_stats.reset()
        seen = []
        for oid, record in store.scan_objects():
            seen.append(oid)
            assert record.value.get("n") == oid
            assert store.live_count <= 5  # capacity + the pinned current
        assert seen == list(range(1, 41))
        assert store.cache_stats.peak_live <= 5

    def test_hits_and_faults_counted(self):
        store = make_store(None)
        store.insert(1, make_record(1))
        store.fetch(1)
        store.fetch(1)
        assert store.cache_stats.hits == 2
        store.evict_live_cache()
        store.fetch(1)
        assert store.cache_stats.faults == 1

"""``alter type`` over stores whose objects leave RAM.

A paged store with a tiny object cache evicts and faults objects back
all through an ``alter type`` pass, and a reopened file store faults
every object in from pages written before the reopen. Both must reach
every instance, and a faulted-in object must share its schema type with
the catalog, or a write to the new attribute fails on a stale copy.
"""

from __future__ import annotations

import pytest

from repro.core.database import Database
from repro.core.values import NULL
from repro.storage.recovery import open_database

ROWS = 1000


def _seed(db: Database, rows: int) -> Database:
    db.execute("define type Item as (name: char(20), qty: int4)")
    db.execute("create {own ref Item} Items")
    for i in range(rows):
        db.execute(f'append to Items (name = "it{i}", qty = {i})')
    return db


def _open_file(tmp_path) -> Database:
    return open_database(str(tmp_path / "db"), storage="paged", cache_capacity=4)


def _open(kind: str, tmp_path) -> Database:
    if kind == "memory":
        return Database()
    if kind == "paged":
        return Database(storage="paged", cache_capacity=4)
    return _open_file(tmp_path)


def _reopened(tmp_path, rows: int) -> Database:
    """A file store closed after a checkpoint and opened again, so every
    object faults in from pages written before the reopen."""
    db = _seed(_open_file(tmp_path), rows)
    db.checkpoint()
    db.close()
    return _open_file(tmp_path)


def _missing_slot(db: Database, attribute: str) -> list[int]:
    return [
        oid for oid in db.objects.oids()
        if attribute not in db.objects.fetch(oid)._slots
    ]


@pytest.mark.parametrize("kind", ["memory", "paged", "file"])
def test_alter_add_reaches_every_instance(kind, tmp_path):
    db = _seed(_open(kind, tmp_path), ROWS)
    message = db.execute("alter type Item add (price: float8)").message
    assert f"{ROWS} instance(s) patched" in message
    assert _missing_slot(db, "price") == []
    assert db.execute("retrieve (I.price) from I in Items").rows == [(NULL,)] * ROWS
    db.close()


def test_alter_drop_reaches_every_instance():
    db = _seed(Database(storage="paged", cache_capacity=4), 200)
    db.execute("alter type Item drop (qty)")
    assert [
        oid for oid in db.objects.oids()
        if "qty" in db.objects.fetch(oid)._slots
    ] == []
    names = sorted(row[0] for row in db.execute(
        "retrieve (I.name) from I in Items").rows)
    assert names == sorted(f"it{i}" for i in range(200))


def test_alter_parent_keeps_cold_subtype_slots_in_place():
    """The attribute a parent gains lands mid-way in the subtype's order;
    cold subtype records written before must still read slot for slot."""
    db = Database(storage="paged", cache_capacity=4)
    db.execute("define type P as (name: char(10))")
    db.execute("define type E as (pay: int4) inherits P")
    db.execute("create {own ref E} Es")
    for i in range(100):
        db.execute(f'append to Es (name = "e{i}", pay = {i})')
    db.store.evict_live_cache()
    db.execute("alter type P add (nick: char(10))")
    rows = db.execute("retrieve (E.name, E.pay, E.nick) from E in Es").rows
    assert sorted(rows) == sorted((f"e{i}", i, NULL) for i in range(100))


@pytest.mark.parametrize("kind", ["paged", "reopened"])
class TestFaultedObjectsShareTheCatalogType:
    def _db(self, kind, tmp_path) -> Database:
        if kind == "paged":
            db = _seed(Database(storage="paged", cache_capacity=4), 50)
            db.store.evict_live_cache()
            return db
        return _reopened(tmp_path, 50)

    def test_faulted_value_type_is_the_catalog_type(self, kind, tmp_path):
        db = self._db(kind, tmp_path)
        item = db.catalog.schema_type("Item")
        oids = list(db.objects.oids())
        faults = db.store.cache_stats.faults
        assert all(db.objects.fetch(oid).type is item for oid in oids)
        assert db.store.cache_stats.faults > faults
        db.close()

    def test_alter_then_replace_the_new_attribute_on_every_row(self, kind, tmp_path):
        db = self._db(kind, tmp_path)
        db.execute("alter type Item add (price: float8)")
        db.execute("replace I (price = I.qty * 2.5) from I in Items")
        rows = db.execute("retrieve (I.qty, I.price) from I in Items").rows
        assert len(rows) == 50
        assert all(price == qty * 2.5 for qty, price in rows)
        if kind == "reopened":
            db.checkpoint()
            db.close()
            db = _open_file(tmp_path)
            assert sorted(db.execute(
                "retrieve (I.price) from I in Items where I.qty < 3"
            ).rows) == [(0.0,), (2.5,), (5.0,)]
        db.close()

"""Data directories written by older engines still open.

Both fixture roots were written by ``tests/fixtures/legacy_format/build.py``
with an older engine's ``src``.

``legacy_format`` comes from the engine from before reference sets were
keyed by OID. Its pickles hold the older forms of four things:

* sets with list members plus an ``_oids`` index slot;
* ``Ref`` and ``StoredObject`` as attribute-dict state;
* hash-index buckets as Python sets;
* an explicit ``_tombstones`` set on the object table.

``rid_dict_format`` comes from the engine from just before snapshots
wrote flat integers. It holds compact page records, but reference sets
pickle a ``_members`` list of ``Ref`` objects and the paged store
pickles its directory as an OID → ``Rid`` dict.

Each store must open to exactly the canonical state the writing engine
recorded, and keep working in the current format afterwards.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.core.database import Database
from repro.core.values import Ref
from repro.storage.pages import Rid
from repro.util.statedump import canonical_state

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
ROOTS = ["legacy_format", "rid_dict_format"]
STORES = ["memory", "paged"]


def _open(tmp_path: Path, root: str, storage: str) -> tuple[Database, dict]:
    """Open a private copy of one fixture directory (opening writes)."""
    directory = tmp_path / storage
    shutil.copytree(FIXTURES / root / storage, directory)
    expected = json.loads((directory / "state.json").read_text(encoding="utf-8"))
    return Database.open(str(directory), storage=storage, fsync=False), expected


def _canon(db: Database) -> dict:
    """The canonical state as it reads back from ``state.json``
    (statistics may hold a raw ``Ref`` as an attribute min/max)."""
    return json.loads(json.dumps(canonical_state(db), default=repr))


def _names(db: Database, set_name: str) -> list[str]:
    rows = db.execute(f"retrieve (S.name) from S in {set_name}").rows
    return sorted(row[0] for row in rows)


@pytest.mark.parametrize("root", ROOTS)
@pytest.mark.parametrize("storage", STORES)
class TestLegacyDataDirectory:
    def test_opens_to_the_recorded_state(self, tmp_path, root, storage):
        db, expected = _open(tmp_path, root, storage)
        assert _canon(db) == expected
        db.close()

    def test_loaded_values_use_the_current_representation(self, tmp_path, root, storage):
        db, _expected = _open(tmp_path, root, storage)
        emps = db.named("Emps").value
        assert isinstance(emps._members, dict)
        assert all(
            isinstance(oid, int) and member == Ref(oid)
            for oid, member in emps._members.items()
        )
        first = db.objects.fetch(emps.members()[0].oid)
        assert isinstance(first.get("friends")._members, dict)
        assert isinstance(first.get("tags")._members, list)
        assert "_tombstones" not in vars(db.objects)
        dead = [
            oid for oid in range(1, db.objects._next_oid)
            if db.objects.is_tombstoned(oid)
        ]
        assert dead and all(db.objects.deref(oid) is None for oid in dead)
        (hash_index,) = [
            d.index for d in db.catalog.indexes.all_indexes() if d.kind == "hash"
        ]
        assert all(isinstance(b, list) for b in hash_index._buckets.values())
        if storage == "paged":
            assert all(isinstance(rid, Rid) for rid in db.store._directory.values())
        db.close()

    def test_keeps_working_and_reopens_in_the_current_format(self, tmp_path, root, storage):
        db, _expected = _open(tmp_path, root, storage)
        db.execute('delete E from E in Emps where E.name = "e4"')
        db.execute('append to Stars (E) from E in Emps where E.name = "e0"')
        assert _names(db, "Stars") == ["e0", "e12", "e9"]
        rows = db.execute('retrieve (E.age) from E in Emps where E.name = "e12"').rows
        assert rows == [(40,)]
        db.checkpoint()
        db.execute('delete E from E in Emps where E.name = "e9"')
        state = _canon(db)
        db.close()
        reopened = Database.open(str(tmp_path / storage), storage=storage, fsync=False)
        assert _canon(reopened) == state
        assert _names(reopened, "Stars") == ["e0", "e12"]
        reopened.close()


@pytest.mark.parametrize("root", ROOTS)
def test_both_stores_open_to_the_same_state(tmp_path, root):
    states = []
    for storage in STORES:
        db, _expected = _open(tmp_path, root, storage)
        states.append(_canon(db))
        db.close()
    assert states[0] == states[1]

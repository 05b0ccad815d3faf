"""How a snapshot encodes the two row-sized structures it holds.

A checkpoint pickles the paged store's OID → ``Rid`` directory and every
reference set's membership. Both are written as flat integers, so the
snapshot grows by a few bytes per row and loading it builds no Python
object per row beyond the rows' in-memory form. These tests pin the
growth per row and that both structures reload in the order they were
saved.
"""

from __future__ import annotations

import random

from repro.core.database import Database

#: Snapshot bytes one more ``Acct`` row may add (directory entry,
#: ``Accts`` membership, hash-index bucket). Measured: 19.3 B/row. With
#: the directory pickled as ``Rid`` objects and the membership as ``Ref``
#: objects it was 50.3 B/row; either one alone stays above the bound.
MAX_BYTES_PER_ROW = 24


def _accounts(directory: str, rows: int) -> Database:
    """A paged file store holding ``rows`` accounts behind a cache of a
    tenth of them, with a hash index and an empty ``{ref Acct}`` set."""
    db = Database.open(
        directory, storage="paged", fsync=False, cache_capacity=max(10, rows // 10)
    )
    db.execute(
        """
        define type Acct as (id: int4, bal: float8, branch: int4, note: char(40))
        create {own ref Acct} Accts
        create {ref Acct} Picks
        create index on Accts (id) using hash
        """
    )
    for i in range(rows):
        db.insert("Accts", id=i, bal=float(i), branch=i % 50, note=f"account-{i:08d}")
    return db


def _snapshot_bytes(directory: str, rows: int) -> int:
    db = _accounts(directory, rows)
    size = db.checkpoint()["bytes"]
    db.close()
    return size


def test_snapshot_bytes_per_row_stay_under_the_bound(tmp_path):
    small = _snapshot_bytes(str(tmp_path / "small"), 2000)
    large = _snapshot_bytes(str(tmp_path / "large"), 4000)
    assert (large - small) / 2000 < MAX_BYTES_PER_ROW


def test_reference_sets_and_the_directory_reload_in_saved_order(tmp_path):
    directory = str(tmp_path / "d")
    db = _accounts(directory, 300)
    picks = list(range(0, 300, 7))
    random.Random(5).shuffle(picks)
    for key in picks:
        db.execute(f"append to Picks (A) from A in Accts where A.id = {key}")
    db.execute("delete A from A in Accts where A.id = 42 or A.id = 3")
    db.checkpoint()
    before = dict(db.store._directory)
    # longer notes relocate records, which rewrites directory entries
    db.insert("Accts", id=-1, bal=0.0, branch=-1, note="n" * 40)
    db.execute("replace A (note = L.note) from A in Accts, L in Accts "
               "where A.branch < 25 and L.id = -1")
    db.checkpoint()
    assert any(db.store._directory[oid] != rid for oid, rid in before.items())
    saved_picks = [ref.oid for ref in db.named("Picks").value.members()]
    saved_accts = [ref.oid for ref in db.named("Accts").value.members()]
    saved_directory = list(db.store._directory.items())
    db.close()

    reopened = Database.open(directory, storage="paged", fsync=False, cache_capacity=30)
    assert [ref.oid for ref in reopened.named("Picks").value.members()] == saved_picks
    assert [ref.oid for ref in reopened.named("Accts").value.members()] == saved_accts
    assert list(reopened.store._directory.items()) == saved_directory
    rows = reopened.execute("retrieve (A.id) from A in Picks").rows
    assert [row[0] for row in rows] == [key for key in picks if key != 42]
    reopened.close()

"""Write the on-disk format fixture that ``tests/storage/test_legacy_format.py`` opens.

The fixture pins data written by an *older* engine: run this script with
that engine's ``src`` on ``PYTHONPATH``, never with the code under test::

    PYTHONPATH=<old checkout>/src python tests/fixtures/legacy_format/build.py

It writes one durable data directory per store into this directory:

* ``memory/`` — ``snapshot.db`` + ``wal.log``;
* ``paged/``  — ``snapshot.db`` + ``wal.log`` + ``pages.data`` (file store).

Each holds ``ref`` and ``own ref`` sets (named and embedded), an ``own``
value set, a hash and a B+-tree index, and objects deleted both before
the checkpoint (inside the snapshot) and after it (in the WAL suffix that
recovery replays). ``state.json`` beside them is the canonical state
(:func:`repro.util.statedump.canonical_state`) the writing engine saw
just before it closed.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from repro.core.database import Database
from repro.util.statedump import canonical_state

HERE = os.path.dirname(os.path.abspath(__file__))

BEFORE_CHECKPOINT = [
    "define type Dept as (dname: char(20), floor: int4)",
    "define type Person as (name: char(20), age: int4, "
    "kids: {own ref Person}, friends: {ref Person}, tags: {own int4})",
    "define type Emp as (salary: int4, dept: ref Dept) inherits Person",
    "create {own ref Dept} Depts",
    "create {own ref Emp} Emps",
    "create {ref Emp} Stars",
    "create index on Emps (name) using hash",
    "create index on Emps (salary) using btree",
    'append to Depts (dname = "Toys", floor = 2)',
    'append to Depts (dname = "Shoes", floor = 1)',
    *(
        f'append to Emps (name = "e{i}", age = {20 + i}, '
        f"salary = {1000 + 100 * (i % 5)}, dept = D) from D in Depts "
        f'where D.dname = "{"Toys" if i % 2 else "Shoes"}"'
        for i in range(12)
    ),
    'append to E.kids (name = "k1", age = 3) from E in Emps where E.name = "e1"',
    'append to E.kids (name = "k2", age = 5) from E in Emps where E.name = "e1"',
    'append to E.kids (name = "k4", age = 7) from E in Emps where E.name = "e4"',
    "append to E.friends (F) from E in Emps, F in Emps "
    'where E.name = "e0" and F.age > 26',
    "append to E.tags (7) from E in Emps where E.age < 24",
    "append to E.tags (9) from E in Emps where E.age < 22",
    "append to Stars (E) from E in Emps where E.salary >= 1300",
    'delete E from E in Emps where E.name = "e8"',
    'delete K from E in Emps, K in E.kids where K.name = "k2"',
    "analyze",
]

AFTER_CHECKPOINT = [
    'append to Emps (name = "e12", age = 40, salary = 1400, dept = D) '
    'from D in Depts where D.dname = "Toys"',
    'append to Stars (E) from E in Emps where E.name = "e12"',
    'delete E from E in Emps where E.name = "e3"',
    'replace E (salary = 900) from E in Emps where E.name = "e9"',
    'append to E.friends (F) from E in Emps, F in Emps '
    'where E.name = "e2" and F.name = "e12"',
]


def build(directory: str, storage: str) -> None:
    """Write one data directory and its ``state.json``."""
    shutil.rmtree(directory, ignore_errors=True)
    db = Database.open(directory, storage=storage, fsync=False)
    for text in BEFORE_CHECKPOINT:
        db.execute(text)
    db.checkpoint()
    for text in AFTER_CHECKPOINT:
        db.execute(text)
    state = canonical_state(db)
    db.close()
    with open(os.path.join(directory, "state.json"), "w", encoding="utf-8") as out:
        json.dump(state, out, indent=1, sort_keys=True)
        out.write("\n")


def main() -> int:
    # relative directories: the file store pickles its page-file path,
    # which should not name the machine the fixture was built on (open
    # re-attaches the store to the directory it is given)
    os.chdir(HERE)
    for storage in ("memory", "paged"):
        build(storage, storage)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Property: a checkpoint followed by a reopen restores the database exactly.

Random statement sequences run against both durable stores (the memory
store and the file-backed paged store with a tiny object cache):
appends, deletes that cascade through an ``own ref`` set, replaces that
move a B+-tree key, and replaces that grow a ``char`` field so paged
records relocate. The schema has ``ref``, ``own ref`` and ``own`` sets,
a hash and a B+-tree index. After a checkpoint, reopening must give the
same :func:`~repro.util.statedump.canonical_state`, member order
included; so must a reopen that replays a WAL tail written after the
checkpoint.
"""

from __future__ import annotations

import shutil
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.database import Database
from repro.util.statedump import canonical_state

SCHEMA = [
    "define type Item as (name: char(12), size: int4, note: char(900), "
    "tags: {own int4}, kids: {own ref Item}, pals: {ref Item})",
    "create {own ref Item} Items",
    "create {ref Item} Picks",
    "create index on Items (name) using hash",
    "create index on Items (size) using btree",
]

STORES = {
    "memory": {"storage": "memory"},
    "paged": {"storage": "paged", "cache_capacity": 4, "pool_capacity": 4},
}

names = st.integers(min_value=0, max_value=3).map(lambda n: f"i{n}")
sizes = st.integers(min_value=-5, max_value=5)

statements = st.one_of(
    st.builds(
        'append to Items (name = "{}", size = {}, note = "s")'.format, names, sizes
    ),
    st.builds(
        'append to I.kids (name = "k", size = {1}) from I in Items '
        'where I.name = "{0}"'.format,
        names, sizes,
    ),
    st.builds(
        'append to I.tags ({1}) from I in Items where I.name = "{0}"'.format,
        names, sizes,
    ),
    st.builds(
        'append to Picks (I) from I in Items where I.name = "{}"'.format, names
    ),
    st.builds(
        "append to A.pals (B) from A in Items, B in Items "
        'where A.name = "{}" and B.name = "{}"'.format,
        names, names,
    ),
    st.builds(
        'delete I from I in Items where I.name = "{}"'.format, names
    ),
    st.builds(
        'replace I (size = {1}) from I in Items where I.name = "{0}"'.format,
        names, sizes,
    ),
    st.builds(
        'replace I (note = "{1}") from I in Items where I.name = "{0}"'.format,
        names,
        st.integers(min_value=300, max_value=900).map(lambda n: "x" * n),
    ),
)


#: every item created up front, in a drawn order, so OID order differs
#: from the order later statements add members to sets
creations = st.permutations(range(4)).map(
    lambda order: [
        f'append to Items (name = "i{n}", size = {n}, note = "s")' for n in order
    ]
)


def _run(db: Database, texts: list[str]) -> None:
    for text in texts:
        db.execute(text)


@pytest.mark.parametrize("store", sorted(STORES))
@given(
    before=st.tuples(creations, st.lists(statements, max_size=25)).map(
        lambda parts: parts[0] + parts[1]
    ),
    after=st.lists(statements, max_size=8),
)
@settings(max_examples=40, deadline=None)
def test_checkpoint_then_reopen_restores_the_state(store, before, after):
    directory = tempfile.mkdtemp(prefix="snapshot-roundtrip-")
    options = STORES[store]
    try:
        db = Database.open(directory, fsync=False, **options)
        _run(db, SCHEMA + before)
        db.checkpoint()
        checkpointed = canonical_state(db)
        db.close()

        db = Database.open(directory, fsync=False, **options)
        assert canonical_state(db) == checkpointed
        _run(db, after)  # the WAL tail the next reopen replays
        expected = canonical_state(db)
        db.close()

        db = Database.open(directory, fsync=False, **options)
        assert canonical_state(db) == expected
        db.close()
    finally:
        shutil.rmtree(directory, ignore_errors=True)

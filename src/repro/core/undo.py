"""Incremental undo logging and version workspaces for transactions.

Replaces the seed's whole-database pickle with per-mutation **swap
records**: ``Database.begin()`` opens an :class:`UndoLog` and attaches
it to every manager that can mutate durable state (object table,
catalog, statistics, indexes, authorization); each mutation site records
either

* a **before-image** — a copy-on-first-touch snapshot of the container
  it is about to change (a tuple's slot dict, a set's members, an
  array's slot list, one set's :class:`SetStats`, a named object's
  value binding, one cardinality counter), deduplicated per container
  so a transaction touching one object a thousand times saves it once;
  or
* a **structural toggle** — an inverse/redo closure pair undoing (and
  re-doing) a structural change (object registered → unregister it,
  object deleted → re-insert its record, ownership claimed → restore
  prior owner, index entry added → remove it, grant added → discard
  it, …).

Every record is **bidirectional**: applying it exchanges the live state
of its container with the stored image, so applying it twice is the
identity. That single property is what multi-session MVCC
(:mod:`repro.core.session`) builds on:

* ``rollback()`` applies every record newest-first once — abort, exactly
  as before, at O(state touched) cost;
* ``park()`` / ``resume()`` swap a transaction's *entire uncommitted
  workspace* out of and back into the live database, so sessions with
  open transactions can interleave statements without ever seeing each
  other's uncommitted writes;
* after commit the same records, stamped with a commit timestamp,
  become one link of the **version chain** a snapshot reader rewinds
  through to reconstruct the database as of its snapshot.

Each data-bearing record also carries a **write-set key** (container
identity), giving commit-time first-committer-wins conflict detection
its write sets for free. A stored object has exactly one key,
``("oid", oid)``, shared by its slot before-image, its registration and
deletion toggles and its ownership record — so a ``replace`` of an
object and a concurrent ``delete`` of it conflict. Statistics and
cardinality records are bookkeeping, not data, and are excluded from
the write set.
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING, Any, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.core.values import ArrayInstance, SetInstance, TupleInstance

__all__ = ["UndoLog"]

#: sentinel distinguishing "key was absent" from "key held None"
_ABSENT = object()


class _SwapRecord:
    """One bidirectional undo record.

    ``swap`` exchanges the live state of the record's container with the
    stored image (calling it twice is the identity). ``key`` is the
    container's write-set identity for conflict detection, or ``None``
    for bookkeeping records (statistics, cardinalities, index entries
    already covered by their set's member-list key).
    """

    __slots__ = ("swap", "key")

    def __init__(self, swap: Callable[[], None], key: Optional[tuple]):
        self.swap = swap
        self.key = key


class UndoLog:
    """The swap-record log of one open transaction."""

    def __init__(self, database: Any):
        self.db = database
        #: swap records in recording order; rollback applies them reversed
        self._records: list[_SwapRecord] = []
        #: dedup keys of containers whose before-image is already saved
        self._seen: set = set()
        #: strong refs keeping id()-keyed containers alive for the txn
        #: (and for the committed version entry grown from this log)
        self._keepalive: list = []
        #: OIDs whose live instances were touched (re-serialized on every
        #: workspace swap so paged stores pick the restored slots up)
        self._dirty_oids: set[int] = set()
        #: OIDs pinned against live-cache eviction while this log (or the
        #: version entry grown from it) references their instances
        self._pinned: set[int] = set()
        #: total records, for diagnostics
        self.records = 0
        #: True once a catalog registry (types, named objects, functions,
        #: procedures, indexes, owners) was touched — commit then bumps
        #: the catalog epoch so other sessions' cached plans re-bind
        self.catalog_touched = False
        #: True while the workspace is swapped out of the live database
        self.parked = False
        #: optional hook called with each data write-set key on first
        #: touch (the MVCC manager uses it for eager first-updater-wins
        #: conflict checks); raising from it prevents the mutation
        self.on_first_touch: Optional[Callable[[tuple], None]] = None

    # -- recording ---------------------------------------------------------

    def _add(self, swap: Callable[[], None], key: Optional[tuple]) -> None:
        """Append one record; every caller records *before* it mutates,
        so a raising ``on_first_touch`` leaves live state untouched."""
        if key is not None and self.on_first_touch is not None:
            self.on_first_touch(key)
        self._records.append(_SwapRecord(swap, key))
        self.records += 1

    def op(
        self,
        inverse: Callable[[], None],
        redo: Callable[[], None],
        key: Optional[tuple] = None,
    ) -> None:
        """Record one structural change as an inverse/redo toggle.

        ``inverse`` must undo the change the caller is about to make;
        ``redo`` must re-apply it.
        """
        applied = [True]

        def swap() -> None:
            if applied[0]:
                inverse()
                applied[0] = False
            else:
                redo()
                applied[0] = True

        self._add(swap, key)

    def _pin(self, oid: Optional[int]) -> None:
        """Pin ``oid``'s live instance for the lifetime of this log: undo
        closures mutate the instance in place, so an evicting object
        cache must not let it fall out from under them."""
        if oid is None or oid in self._pinned:
            return
        self._pinned.add(oid)
        self.db.objects.pin(oid)

    def release_pins(self) -> None:
        """Release every residency pin (the log is being discarded)."""
        if not self._pinned:
            return
        objects = self.db.objects
        for oid in self._pinned:
            objects.unpin(oid)
        self._pinned.clear()

    def _first_touch(self, key: tuple, container: Any) -> bool:
        if key in self._seen:
            return False
        self._seen.add(key)
        self._keepalive.append(container)
        return True

    # before-images --------------------------------------------------------

    def save_tuple(self, instance: "TupleInstance") -> None:
        """Snapshot a tuple instance's slots before the first mutation.

        A stored object is keyed by its OID — the same key its deletion
        toggle carries — so updating and deleting one object conflict;
        an embedded tuple (no OID) is keyed by its identity."""
        oid = instance.oid
        key = ("oid", oid) if oid is not None else ("slots", id(instance))
        if not self._first_touch(key, instance):
            return
        stored = [dict(instance._slots)]
        if oid is not None:
            self._dirty_oids.add(oid)
            self._pin(oid)

        def swap() -> None:
            current = dict(instance._slots)
            instance._slots.clear()
            instance._slots.update(stored[0])
            stored[0] = current

        self._add(swap, key)

    def save_set(self, collection: "SetInstance") -> None:
        """Snapshot a set instance's member container before mutation."""
        key = ("members", id(collection))
        if not self._first_touch(key, collection):
            return
        stored = [collection._members.copy()]

        def swap() -> None:
            current = collection._members
            collection._members = stored[0]
            stored[0] = current

        self._add(swap, key)

    def save_array(self, array: "ArrayInstance") -> None:
        """Snapshot an array instance's slots before mutation."""
        key = ("array", id(array))
        if not self._first_touch(key, array):
            return
        stored = [list(array._slots)]

        def swap() -> None:
            current = list(array._slots)
            array._slots[:] = stored[0]
            stored[0] = current

        self._add(swap, key)

    def save_value(self, value: Any) -> None:
        """Snapshot whichever mutable container ``value`` is (no-op for
        scalars and references, which are immutable)."""
        from repro.core.values import ArrayInstance, SetInstance, TupleInstance

        if isinstance(value, TupleInstance):
            self.save_tuple(value)
        elif isinstance(value, SetInstance):
            self.save_set(value)
        elif isinstance(value, ArrayInstance):
            self.save_array(value)

    def note_dirty(self, oid: Optional[int]) -> None:
        """Mark a stored object as touched so workspace swaps re-serialize
        it (used when the mutation happens inside an embedded collection
        whose owner lives in a paged store)."""
        if oid is not None:
            self._dirty_oids.add(oid)
            self._pin(oid)

    def save_named_binding(self, named: Any) -> None:
        """Snapshot a named object's ``value`` binding (``set Name = …``
        rebinds the slot itself rather than mutating the container)."""
        key = ("binding", id(named))
        if not self._first_touch(key, named):
            return
        stored = [named.value]

        def swap() -> None:
            current = named.value
            named.value = stored[0]
            stored[0] = current

        self._add(swap, key)

    def save_object_dict(self, obj: Any) -> None:
        """Snapshot an object's entire ``__dict__`` (schema evolution
        rewrites shared :class:`SchemaType` objects in place)."""
        key = ("dict", id(obj))
        if not self._first_touch(key, obj):
            return
        self.catalog_touched = True
        stored = [dict(obj.__dict__)]

        def swap() -> None:
            current = dict(obj.__dict__)
            obj.__dict__.clear()
            obj.__dict__.update(stored[0])
            stored[0] = current

        self._add(swap, key)

    def save_stats(self, manager: Any, set_name: str) -> None:
        """Snapshot one set's optimizer statistics (deep — the upkeep
        hooks mutate :class:`AttributeStats` fields in place).
        Bookkeeping, not data: excluded from the write set."""
        if not self._first_touch(("stats", set_name), manager):
            return
        stored = [copy.deepcopy(manager._stats.get(set_name))]

        def swap() -> None:
            current = manager._stats.get(set_name)
            if stored[0] is None:
                manager._stats.pop(set_name, None)
            else:
                manager._stats[set_name] = stored[0]
            stored[0] = current

        self._add(swap, None)

    def save_cardinality(self, catalog: Any, set_name: str) -> None:
        """Snapshot one tracked set cardinality counter (bookkeeping)."""
        if not self._first_touch(("card", set_name), catalog):
            return
        stored = [catalog._cardinalities.get(set_name, _ABSENT)]

        def swap() -> None:
            current = catalog._cardinalities.get(set_name, _ABSENT)
            if stored[0] is _ABSENT:
                catalog._cardinalities.pop(set_name, None)
            else:
                catalog._cardinalities[set_name] = stored[0]
            stored[0] = current

        self._add(swap, None)

    # structural toggles ---------------------------------------------------

    def note_object_registered(self, table: Any, oid: int) -> None:
        """A fresh object got identity: toggle its store presence.

        The record captures the stored record lazily on first swap-out,
        so a later mutation + before-image interplay stays consistent
        (before-images restore slots; this toggles existence).
        """
        self._pin(oid)
        stashed: list = [None]

        def swap() -> None:
            if oid in table._store:
                stashed[0] = table._store.fetch(oid)
                table._store.delete(oid)
            elif stashed[0] is not None:
                table._store.insert(oid, stashed[0])

        self._add(swap, ("oid", oid))

    def note_object_deleted(self, table: Any, record: Any) -> None:
        """An object died: toggle its stored record back in on rollback.

        ``record`` is captured at delete time; if the transaction also
        mutated the instance earlier, its (earlier-recorded, hence
        later-applied) before-image restores the begin-time slots after
        resurrection.
        """
        self._dirty_oids.add(record.oid)
        self._pin(record.oid)
        stashed = [record]

        def swap() -> None:
            if stashed[0] is not None and record.oid not in table._store:
                table._store.insert(record.oid, stashed[0])
                stashed[0] = None
            elif record.oid in table._store:
                stashed[0] = table._store.fetch(record.oid)
                table._store.delete(record.oid)

        self._add(swap, ("oid", record.oid))

    def note_ownership(
        self, table: Any, oid: int, owner: Optional[int], owner_name: Optional[str]
    ) -> None:
        """Ownership is about to change: swap the prior owner back in."""
        self._dirty_oids.add(oid)
        self._pin(oid)
        stored = [(owner, owner_name)]

        def swap() -> None:
            if oid in table._store:
                record = table._store.fetch(oid)
                current = (record.owner, record.owner_name)
                record.owner, record.owner_name = stored[0]
                table._store.update(oid, record)
                stored[0] = current

        self._add(swap, ("oid", oid))

    def note_map_set(self, mapping: dict, key: Any) -> None:
        """A dict entry is about to be set/replaced/popped: swap it.

        Generic record for catalog registries (types, named objects,
        functions, procedures, indexes) and authorization owner records.
        """
        self.catalog_touched = True
        record_key = ("map", id(mapping), key)
        self._keepalive.append(mapping)
        stored = [mapping.get(key, _ABSENT)]

        def swap() -> None:
            current = mapping.get(key, _ABSENT)
            if stored[0] is _ABSENT:
                mapping.pop(key, None)
            else:
                mapping[key] = stored[0]
            stored[0] = current

        self._add(swap, record_key)

    # -- write set ---------------------------------------------------------

    def write_set(self) -> set:
        """Container identities this transaction wrote (conflict keys)."""
        return {r.key for r in self._records if r.key is not None}

    # -- applying ----------------------------------------------------------

    def _mark_dirty(self) -> None:
        """Re-serialize every touched live object into the store (paged
        stores pickle on write, so swapped slots must be re-pickled)."""
        objects = self.db.objects
        for oid in self._dirty_oids:
            if objects.is_live(oid):
                # pinned since the log touched it: fetch returns the
                # instance the swaps wrote
                objects.mark_dirty(objects.fetch(oid))

    def rollback(self) -> None:
        """Apply every record newest-first: live state returns to what it
        was at ``begin()``. The log is dead afterwards."""
        for record in reversed(self._records):
            record.swap()
        self._mark_dirty()
        self.release_pins()

    def park(self) -> None:
        """Swap this transaction's uncommitted workspace *out* of the
        live database (records then hold the transaction's after-images;
        live state shows begin-time state). Idempotent via ``parked``."""
        if self.parked:
            return
        for record in reversed(self._records):
            record.swap()
        self.parked = True
        self._mark_dirty()

    def resume(self) -> None:
        """Swap the workspace back *into* the live database."""
        if not self.parked:
            return
        for record in self._records:
            record.swap()
        self.parked = False
        self._mark_dirty()

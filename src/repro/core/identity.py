"""Object identity for EXTRA.

EXTRA distinguishes *values* (``own`` components, which lack identity in
the sense of [Khos86]) from *first-class objects* (instances that are
``ref``-erable). First-class objects carry an **OID** allocated by the
:class:`ObjectTable`, which also records ownership for ``own ref``
components (ORION composite-object semantics) and never reuses an OID,
so a deleted one stays a tombstone and dangling references read as null
(GEM-style referential integrity) rather than erroring.

The table delegates raw storage to an object-store implementing the small
:class:`ObjectStore` protocol; :class:`MemoryObjectStore` is the default,
and :class:`repro.storage.object_store.PagedObjectStore` provides the
EXODUS-storage-manager-like paged implementation.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Iterator, Mapping, Optional, Protocol

from repro.errors import OwnershipError, StorageError, UnknownObjectError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.values import TupleInstance

__all__ = ["Oid", "ObjectStore", "MemoryObjectStore", "StoredObject", "ObjectTable"]

#: OIDs are plain integers; 0 is never allocated.
Oid = int


class StoredObject:
    """The object table's record for one live first-class object.

    ``owner`` is the OID of the owner when this object is an ``own ref``
    component of another object; ``owner_name`` names the collection that
    owns it directly when ownership is at the database-name level (an
    element of ``Employees`` created as ``{own ref Employee}``). Both are
    ``None`` for an independent object.

    Slotted, with ``__weakref__`` because the paged store keeps records
    in a weak-value map. It pickles as the attribute dict older pages and
    snapshots hold, and :meth:`__setstate__` reads that dict.
    """

    __slots__ = ("oid", "value", "owner", "owner_name", "__weakref__")

    def __init__(
        self,
        oid: Oid,
        value: "TupleInstance",
        owner: Optional[Oid] = None,
        owner_name: Optional[str] = None,
    ):
        self.oid = oid
        self.value = value
        self.owner = owner
        self.owner_name = owner_name

    def __getstate__(self) -> dict:
        return {
            "oid": self.oid,
            "value": self.value,
            "owner": self.owner,
            "owner_name": self.owner_name,
        }

    def __setstate__(self, state: dict) -> None:
        self.oid = state["oid"]
        self.value = state["value"]
        self.owner = state["owner"]
        self.owner_name = state["owner_name"]

    def __repr__(self) -> str:
        return (
            f"StoredObject(oid={self.oid}, value={self.value!r}, "
            f"owner={self.owner!r}, owner_name={self.owner_name!r})"
        )


class ObjectStore(Protocol):
    """Minimal storage interface the object table requires."""

    #: read-only view of the store's own index, keyed by the live OIDs:
    #: ``oid in store.live`` is the liveness test without a method call
    live: Mapping[Oid, Any]

    def insert(self, oid: Oid, record: StoredObject) -> None:
        """Store a new record under ``oid``; ``oid`` must be fresh."""
        ...

    def fetch(self, oid: Oid) -> StoredObject:
        """Return the record for ``oid``; raise ``KeyError`` if absent."""
        ...

    def record(self, oid: Oid) -> Optional[StoredObject]:
        """Return the record for ``oid``, or ``None`` when it is not live:
        one lookup that is both the liveness test and the fetch."""
        ...

    def update(self, oid: Oid, record: StoredObject) -> None:
        """Replace the record stored under ``oid``."""
        ...

    def delete(self, oid: Oid) -> None:
        """Remove the record stored under ``oid``."""
        ...

    def __contains__(self, oid: Oid) -> bool: ...

    def oids(self) -> Iterator[Oid]:
        """Iterate over the OIDs of all stored records."""
        ...


class MemoryObjectStore:
    """Dictionary-backed object store (the default substrate)."""

    def __init__(self) -> None:
        self._records: dict[Oid, StoredObject] = {}
        self.live = MappingProxyType(self._records)
        #: the protocol's ``record``: the records dict's own ``get``
        self.record = self._records.get

    def __getstate__(self) -> dict:
        return {"_records": self._records}

    def __setstate__(self, state: dict) -> None:
        self._records = state["_records"]
        self.live = MappingProxyType(self._records)
        self.record = self._records.get

    def insert(self, oid: Oid, record: StoredObject) -> None:
        """Store ``record`` under a fresh ``oid``."""
        if oid in self._records:
            raise StorageError(f"oid {oid} already present")
        self._records[oid] = record

    def fetch(self, oid: Oid) -> StoredObject:
        """Return the record for ``oid`` (KeyError when absent)."""
        return self._records[oid]

    def update(self, oid: Oid, record: StoredObject) -> None:
        """Replace the record under ``oid``."""
        if oid not in self._records:
            raise StorageError(f"cannot update unknown oid {oid}")
        self._records[oid] = record

    def delete(self, oid: Oid) -> None:
        """Drop the record under ``oid``."""
        self._records.pop(oid, None)

    def __contains__(self, oid: Oid) -> bool:
        return oid in self._records

    def oids(self) -> Iterator[Oid]:
        """All live OIDs."""
        return iter(list(self._records))

    def __len__(self) -> int:
        return len(self._records)


class ObjectTable:
    """Allocates OIDs and tracks every live first-class object.

    Responsibilities:

    * OID allocation (monotonically increasing, never reused, so that a
      tombstoned OID can always be distinguished from a never-allocated
      one);
    * ownership bookkeeping for ``own ref`` components, enforcing the
      exclusivity rule of paper §2.2 (an object cannot acquire a second
      owner);
    * tombstones: after deletion, :meth:`is_live` is False but
      :meth:`was_allocated` remains True, letting references dangle to
      null without ambiguity. Because OIDs are never reused, a tombstone
      is simply an allocated OID that is not live; no set records them.
    """

    #: the open transaction's undo log (attached by ``Database.begin``);
    #: class attribute so snapshots from before this field existed load
    undo = None

    def __init__(self, store: Optional[ObjectStore] = None):
        self._store: ObjectStore = store if store is not None else MemoryObjectStore()
        self._next_oid: Oid = 1

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("undo", None)  # undo logs never survive pickling
        return state

    def __setstate__(self, state: dict) -> None:
        # older snapshots carry an explicit tombstone set; drop it
        state.pop("_tombstones", None)
        self.__dict__.update(state)

    # -- allocation ---------------------------------------------------------

    def register(
        self,
        value: "TupleInstance",
        owner: Optional[Oid] = None,
        owner_name: Optional[str] = None,
    ) -> Oid:
        """Give ``value`` identity: allocate an OID and store the object.

        ``owner``/``owner_name`` record an ``own ref`` owner at creation
        time (at most one of the two may be given).
        """
        if owner is not None and owner_name is not None:
            raise OwnershipError("an object cannot have two owners")
        oid = self._next_oid
        self._next_oid += 1
        record = StoredObject(oid=oid, value=value, owner=owner, owner_name=owner_name)
        self._store.insert(oid, record)
        value.oid = oid
        if self.undo is not None:
            self.undo.note_object_registered(self, oid)
        return oid

    # -- lookup -------------------------------------------------------------

    def fetch(self, oid: Oid) -> "TupleInstance":
        """Return the live object with ``oid``.

        Raises :class:`UnknownObjectError` for dead or unallocated OIDs;
        callers implementing GEM-style null-on-dangle semantics should use
        :meth:`deref` instead.
        """
        try:
            return self._store.fetch(oid).value
        except KeyError:
            raise UnknownObjectError(oid) from None

    def deref(self, oid: Oid) -> Optional["TupleInstance"]:
        """Return the object for ``oid`` or ``None`` when it is dead.

        This is the referential-integrity-friendly lookup: a reference to
        a deleted object reads as null (paper §2.2 / GEM semantics).
        """
        record = self._store.record(oid)
        return None if record is None else record.value

    def record(self, oid: Oid) -> StoredObject:
        """Return the full stored record (value + ownership) for ``oid``."""
        try:
            return self._store.fetch(oid)
        except KeyError:
            raise UnknownObjectError(oid) from None

    def is_live(self, oid: Oid) -> bool:
        """True when ``oid`` denotes a live (undeleted) object."""
        return oid in self._store.live

    @property
    def store(self) -> ObjectStore:
        """The backing store (generated pipelines bind its ``live`` and
        ``record`` once per call; ``record(oid)`` read as dead when None
        is :meth:`deref`)."""
        return self._store

    def was_allocated(self, oid: Oid) -> bool:
        """True when ``oid`` was ever handed out (live or tombstoned)."""
        return 0 < oid < self._next_oid

    def oids(self) -> Iterator[Oid]:
        """Iterate over all live OIDs."""
        return self._store.oids()

    def __len__(self) -> int:
        return sum(1 for _ in self._store.oids())

    # -- residency (paged stores) --------------------------------------------

    def pin(self, oid: Oid) -> None:
        """Exempt ``oid`` from live-cache eviction while a transaction's
        undo log or a parked workspace references it (no-op for stores
        without an evicting cache)."""
        pin = getattr(self._store, "pin", None)
        if pin is not None:
            pin(oid)

    def unpin(self, oid: Oid) -> None:
        """Release one residency pin on ``oid``."""
        unpin = getattr(self._store, "unpin", None)
        if unpin is not None:
            unpin(oid)

    # -- mutation -----------------------------------------------------------

    def mark_dirty(self, instance: "TupleInstance") -> None:
        """Write ``instance`` — an object the caller mutated in place —
        back to the store.

        The store's record may hold another copy: a bounded cache evicts
        a clean record nobody references, and a caller that kept only
        the instance then sees a later fetch fault a fresh copy from the
        page. The caller's instance carries the writes, so it becomes the
        record's value."""
        oid = instance.oid
        record = self.record(oid)
        record.value = instance
        self._store.update(oid, record)

    def delete(self, oid: Oid) -> None:
        """Remove the object with ``oid``, leaving a tombstone.

        Cascade deletion of owned components is the responsibility of
        :mod:`repro.core.integrity`, which calls this per object.
        """
        if oid not in self._store:
            raise UnknownObjectError(oid)
        if self.undo is not None:
            self.undo.note_object_deleted(self, self._store.fetch(oid))
        self._store.delete(oid)

    def is_tombstoned(self, oid: Oid) -> bool:
        """True when ``oid`` was handed out and is no longer live: the
        object was deleted, or created by a transaction that rolled back
        (dangling refs to it are null)."""
        return self.was_allocated(oid) and not self.is_live(oid)

    # -- ownership ----------------------------------------------------------

    def owner_of(self, oid: Oid) -> tuple[Optional[Oid], Optional[str]]:
        """Return ``(owner_oid, owner_name)`` for the object ``oid``."""
        record = self.record(oid)
        return record.owner, record.owner_name

    def is_owned(self, oid: Oid) -> bool:
        """True when the object already has an ``own ref`` owner."""
        record = self.record(oid)
        return record.owner is not None or record.owner_name is not None

    def claim(
        self,
        oid: Oid,
        owner: Optional[Oid] = None,
        owner_name: Optional[str] = None,
    ) -> None:
        """Make ``owner`` (or the named collection ``owner_name``) the
        exclusive owner of ``oid``.

        Raises :class:`OwnershipError` when the object is already owned —
        the paper's composite-object exclusivity rule: "a Person instance
        in the kids set of one Employee instance cannot be in the kids set
        of another Employee instance simultaneously".
        """
        if (owner is None) == (owner_name is None):
            raise OwnershipError("exactly one of owner / owner_name is required")
        record = self.record(oid)
        if record.owner is not None or record.owner_name is not None:
            current = (
                f"object {record.owner}" if record.owner is not None
                else f"collection {record.owner_name!r}"
            )
            raise OwnershipError(
                f"object {oid} is already owned by {current}; own ref components "
                "are exclusive"
            )
        if self.undo is not None:
            self.undo.note_ownership(self, oid, record.owner, record.owner_name)
        record.owner = owner
        record.owner_name = owner_name
        self._store.update(oid, record)

    def release(self, oid: Oid) -> None:
        """Drop the ownership claim on ``oid`` (e.g. when it is removed
        from an owned collection without being deleted)."""
        record = self.record(oid)
        if self.undo is not None:
            self.undo.note_ownership(self, oid, record.owner, record.owner_name)
        record.owner = None
        record.owner_name = None
        self._store.update(oid, record)

    def owned_by(self, owner: Oid) -> list[Oid]:
        """OIDs of all live objects directly owned by the object ``owner``."""
        return [
            oid for oid in self._store.oids() if self._store.fetch(oid).owner == owner
        ]

    def owned_by_name(self, owner_name: str) -> list[Oid]:
        """OIDs of all live objects owned directly by a named collection."""
        return [
            oid
            for oid in self._store.oids()
            if self._store.fetch(oid).owner_name == owner_name
        ]

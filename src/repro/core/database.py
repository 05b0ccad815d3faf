"""The top-level EXTRA/EXCESS database facade.

A :class:`Database` wires together the object table (over a memory or
paged store), the catalog, the integrity manager, the ADT registry (with
the built-in ``Date`` and ``Complex`` ADTs pre-registered), the
access-method tables, and authorization. It exposes:

* a **Python-level API** (``define_type``, ``create_named``, ``insert``,
  ``delete``, ``create_index`` …) used by tests, benchmarks, and embedding
  applications, and
* the **EXCESS statement interface**: :meth:`execute` parses, binds,
  optimizes, and evaluates any EXCESS statement; :meth:`session` returns a
  per-user session enforcing authorization.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Union

from repro.adt.builtin import register_builtin_adts
from repro.authz.grants import AuthorizationManager
from repro.core.catalog import Catalog, NamedObject
from repro.core.identity import MemoryObjectStore, ObjectTable
from repro.core.integrity import IntegrityManager
from repro.core.schema import Rename, SchemaType
from repro.core.types import (
    ArrayType,
    ComponentSpec,
    Semantics,
    SetType,
    TupleType,
    Type,
    own,
)
from repro.core.values import (
    NULL,
    ArrayInstance,
    Ref,
    SetInstance,
    TupleInstance,
)
from repro.errors import (
    CatalogError,
    IntegrityError,
    StorageError,
    TypeSystemError,
)

__all__ = ["Database", "Session"]

#: scalar Python types that can serve as index keys
_INDEXABLE = (int, float, str, bool)


class Database:
    """One EXTRA/EXCESS database instance."""

    #: monotonic data-change counter (class default covers old snapshots);
    #: every insert/remove/delete/update bumps it, so plan-level caches
    #: keyed by it (hash-join build tables) are never served stale
    data_version: int = 0

    #: the :class:`~repro.storage.recovery.DurabilityManager` when the
    #: database was opened durably via :meth:`open`; None otherwise
    durability: Any = None

    #: True while recovery re-executes the write-ahead log: a log written
    #: before ``set`` rejected two rows assigning one target may hold such
    #: a statement, and replay applies it as it was acknowledged (the
    #: last row wins)
    replaying: bool = False

    def __init__(
        self,
        storage: str = "memory",
        pool_capacity: int = 64,
        dba: str = "dba",
        authorization: bool = False,
        store_mode: Optional[str] = None,
        cache_capacity: Optional[int] = None,
        store_path: Optional[str] = None,
    ):
        """Create an empty database.

        ``storage`` selects the object store: ``"memory"`` (default) or
        ``"paged"`` for the slotted-page store with buffer accounting.
        With ``storage="paged"``, ``store_mode`` picks the disk substrate
        (``"sim"``, the default, or ``"file"`` — 4KB pages persisted at
        ``store_path``, or an anonymous temp file when no path is given),
        and ``cache_capacity`` bounds the live-object cache (``None`` =
        unbounded, the ablation baseline). ``authorization`` turns on
        privilege checking (off by default so single-user scripts need no
        grants).
        """
        if storage == "memory":
            if store_mode is not None or store_path is not None:
                raise CatalogError(
                    "store_mode/store_path require storage='paged'"
                )
            self.store: Any = MemoryObjectStore()
        elif storage == "paged":
            from repro.storage.object_store import PagedObjectStore

            self.store = PagedObjectStore(
                pool_capacity=pool_capacity,
                cache_capacity=cache_capacity,
                store_mode=store_mode,
                path=store_path,
            )
        else:
            raise CatalogError(f"unknown storage kind {storage!r}")
        self.objects = ObjectTable(self.store)
        self.catalog = Catalog()
        self.integrity = IntegrityManager(self.objects, self.catalog)
        self.authz = AuthorizationManager()
        self.authz.directory.dba = dba
        self.authz.directory.add_user(dba)
        self.authz.enabled = authorization
        register_builtin_adts(self.catalog.adts, self.catalog.access_table)
        self.data_version = 0
        self._interpreter: Any = None

    # -- pickling (snapshots) ----------------------------------------------------

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_interpreter"] = None  # rebuilt lazily after load
        # sessions and transaction workspaces never survive pickling
        state.pop("_transactions", None)
        state.pop("_default_session", None)
        state.pop("durability", None)  # holds an open WAL file handle
        return state

    # -- sessions and transactions -------------------------------------------------

    @property
    def transactions(self) -> Any:
        """The (lazily constructed) multi-session transaction manager."""
        manager = self.__dict__.get("_transactions")
        if manager is None:
            from repro.core.session import TransactionManager

            manager = TransactionManager(self)
            self.__dict__["_transactions"] = manager
        elif manager.db is None:  # closed, now used again
            manager.attach(self)
        return manager

    @property
    def default_session(self) -> Any:
        """The session backing the single-session Python API: every
        ``db.execute`` / ``db.begin`` call without an explicit session
        runs here, preserving the seed's one-session semantics."""
        session = self.__dict__.get("_default_session")
        if session is not None and session.db is None:
            self.transactions  # closed, now used again: links the sessions
        if session is None or session.closed:
            session = self.transactions.create_session(
                self.authz.directory.dba, name="default", is_default=True
            )
            self.__dict__["_default_session"] = session
        return session

    def connect(self, user: Optional[str] = None, name: Optional[str] = None) -> Any:
        """Open a new isolated session (its own range declarations,
        flag overrides, and snapshot-isolated transactions)."""
        user = user or self.authz.directory.dba
        self.authz.directory.add_user(user)
        return self.transactions.create_session(user, name=name)

    @property
    def in_transaction(self) -> bool:
        """True while any session has an open transaction."""
        manager = self.__dict__.get("_transactions")
        if manager is None:
            return False
        return any(s.txn is not None for s in manager.sessions.values())

    def _undo_targets(self) -> tuple:
        """Every manager that records undo information for open
        transactions (they all carry an ``undo`` attribute)."""
        return (
            self.objects,
            self.catalog,
            self.catalog.statistics,
            self.catalog.indexes,
            self.authz,
            self.authz.directory,
        )

    def _attach_undo(self, undo: Any) -> None:
        for target in self._undo_targets():
            target.undo = undo

    def _detach_undo(self) -> None:
        for target in self._undo_targets():
            target.__dict__.pop("undo", None)  # falls back to class None

    def begin(self) -> None:
        """Open a transaction in the default session.

        The EXODUS storage manager provided transactions; this engine
        reproduces the *interface*. Every transaction attaches an
        incremental :class:`~repro.core.undo.UndoLog` to every manager:
        each mutation records a bidirectional swap, so abort costs
        O(state touched), not O(database), and multi-session MVCC
        (:mod:`repro.core.session`) can park and version workspaces.
        Nested transactions are not supported.
        """
        self.transactions.begin(self.default_session)

    def commit(self) -> None:
        """Make the default session's transaction permanent."""
        self.transactions.commit(self.default_session)

    def abort(self) -> None:
        """Undo every change made since :meth:`begin`."""
        self.transactions.abort(self.default_session)

    # -- schema definition ----------------------------------------------------------

    def define_type(
        self,
        name: str,
        attributes: Union[dict[str, ComponentSpec], list[tuple[str, ComponentSpec]]],
        parents: Iterable[str] = (),
        renames: Iterable[Rename] = (),
    ) -> SchemaType:
        """Define a schema type (the Python-level ``define type``)."""
        if isinstance(attributes, dict):
            attribute_list = list(attributes.items())
        else:
            attribute_list = list(attributes)
        return self.catalog.define_type(
            name, attribute_list, parents=list(parents), renames=list(renames)
        )

    def type(self, name: str) -> SchemaType:
        """Look up a schema type."""
        return self.catalog.schema_type(name)

    # -- named objects ------------------------------------------------------------------

    def create_named(
        self,
        name: str,
        spec: Union[ComponentSpec, Type],
        key: Optional[tuple[str, ...]] = None,
        user: str = "dba",
    ) -> NamedObject:
        """Create a named persistent object (the ``create`` statement).

        ``spec`` may be a bare :class:`Type` (treated as ``own`` for value
        types) or a full :class:`ComponentSpec`. Sets and arrays start
        empty; reference singletons start null; own tuple singletons start
        as an all-null instance; scalar/ADT singletons start null.
        ``key`` attaches a key constraint to a set instance.
        """
        if isinstance(spec, Type):
            spec = own(spec) if not isinstance(spec, SchemaType) else own(spec)
        value = self._initial_value(spec, key)
        named = NamedObject(name=name, spec=spec, value=value, owner=user)
        self.catalog.create_named(named)
        self.authz.record_owner(name, user)
        return named

    def _initial_value(
        self, spec: ComponentSpec, key: Optional[tuple[str, ...]]
    ) -> Any:
        if key is not None and not isinstance(spec.type, SetType):
            raise TypeSystemError("key constraints apply only to sets")
        if isinstance(spec.type, SetType):
            if key is not None:
                element = spec.type.element.type
                if not isinstance(element, TupleType):
                    raise TypeSystemError("keyed sets require tuple elements")
                for attribute in key:
                    element.attribute(attribute)  # validates existence
            return SetInstance(spec.type, key=key)
        if isinstance(spec.type, ArrayType):
            return ArrayInstance(spec.type)
        if spec.semantics is Semantics.OWN and isinstance(spec.type, TupleType):
            return TupleInstance(spec.type)
        return NULL

    def named(self, name: str) -> NamedObject:
        """Look up a named object."""
        return self.catalog.named(name)

    def destroy_named(self, name: str) -> int:
        """Destroy a named object, cascading deletes of owned members.

        Returns the number of first-class objects deleted.
        """
        named = self.catalog.named(name)
        deleted = 0
        value = named.value
        if isinstance(value, (SetInstance, ArrayInstance)):
            element = value.element
            if element.semantics is Semantics.OWN_REF:
                for member in list(value):
                    if isinstance(member, Ref) and self.objects.is_live(member.oid):
                        deleted += self.integrity.delete_object(member.oid)
        elif isinstance(value, Ref) and named.spec.semantics is Semantics.OWN_REF:
            if self.objects.is_live(value.oid):
                deleted += self.integrity.delete_object(value.oid)
        for descriptor in self.catalog.indexes.indexes_on(name):
            self.catalog.indexes.drop(
                descriptor.set_name, descriptor.attribute, descriptor.kind
            )
        self.catalog.destroy_named(name)
        self.data_version += 1
        return deleted

    # -- data manipulation -----------------------------------------------------------------

    def insert(self, set_name: str, value: Any = None, /, **attributes: Any) -> Any:
        """Insert into a named set.

        ``db.insert("Employees", name="Sue", age=40)`` creates a new
        member object (own ref sets) or embedded value; ``db.insert(
        "Team", some_ref)`` adds an existing object to a ref set. Returns
        the stored member (a :class:`Ref` or the embedded value), or
        ``None`` when an equal member was already present.
        """
        named = self.catalog.named(set_name)
        collection = named.value
        if not isinstance(collection, SetInstance):
            raise TypeSystemError(f"{set_name!r} is not a set")
        if value is not None and attributes:
            raise TypeSystemError("pass either a value or attributes, not both")
        raw = value if value is not None else dict(attributes)
        member = self.integrity.insert_member(named, collection, raw)
        if member is None:
            return None
        self._index_insert(set_name, collection, member)
        self.catalog.note_cardinality(set_name, +1)
        self.catalog.statistics.observe_insert(set_name, self._stats_row(member))
        self.data_version += 1
        return member

    def remove(self, set_name: str, member: Any, delete_owned: bool = True) -> bool:
        """Remove ``member`` from a named set (deleting it when owned)."""
        named = self.catalog.named(set_name)
        collection = named.value
        if not isinstance(collection, SetInstance):
            raise TypeSystemError(f"{set_name!r} is not a set")
        self._index_delete(set_name, collection, member)
        removed = self.integrity.remove_member(
            named, collection, member, delete_owned=delete_owned
        )
        if removed:
            self.catalog.note_cardinality(set_name, -1)
            self.catalog.statistics.observe_remove(set_name)
            self.data_version += 1
        return removed

    def delete(self, reference: Ref) -> int:
        """Delete the object behind ``reference`` wherever it lives.

        Removes it from every named set it belongs to (maintaining
        indexes), then cascades ownership deletion. Returns the number of
        objects deleted.
        """
        if not self.objects.is_live(reference.oid):
            return 0
        self.data_version += 1
        for name in self.catalog.named_names():
            named = self.catalog.named(name)
            if isinstance(named.value, SetInstance) and named.value.contains(reference):
                self._index_delete(name, named.value, reference)
                undo = self.objects.undo
                if undo is not None:
                    undo.save_set(named.value)
                named.value.remove(reference)
                self.catalog.note_cardinality(name, -1)
                self.catalog.statistics.observe_remove(name)
        return self.integrity.delete_object(reference.oid)

    def update_member(
        self, set_name: str, member: Ref, changes: dict[str, Any]
    ) -> None:
        """Update attributes of a set member, maintaining indexes.

        ``changes`` values use the same raw forms as :meth:`insert`.
        """
        self.catalog.named(set_name)  # raises CatalogError on unknown sets
        instance = self.objects.deref(member.oid)
        if instance is None:
            raise IntegrityError(f"cannot update dead object {member.oid}")
        indexed = [
            descriptor.attribute
            for descriptor in self.catalog.indexes.indexes_on(set_name)
        ]
        old_keys = self._key_snapshot(instance, indexed)
        self.apply_changes(instance, changes)
        new_keys = self._key_snapshot(instance, indexed)
        self.catalog.indexes.on_update(
            set_name, member.oid, old_keys.get, new_keys.get
        )
        new_row = {name: instance.get(name) for name in changes}
        self.catalog.statistics.observe_update(set_name, new_row)
        self.objects.mark_dirty(instance)

    def note_member_update(
        self, reference: Ref, new_row: Optional[dict[str, Any]]
    ) -> None:
        """Statistics upkeep for an attribute update applied outside
        :meth:`update_member` (the evaluator's replace/set paths apply
        changes directly): observe the update on every analyzed named
        set containing the object."""
        statistics = self.catalog.statistics
        for name in statistics.analyzed_sets():
            try:
                named = self.catalog.named(name)
            except CatalogError:
                continue
            if isinstance(named.value, SetInstance) and named.value.contains(
                reference
            ):
                statistics.observe_update(name, new_row)

    def apply_changes(self, instance: TupleInstance, changes: dict[str, Any]) -> None:
        """Write raw-form attribute changes into ``instance`` with full
        integrity checking (no index maintenance — use
        :meth:`update_member` for indexed sets)."""
        undo = self.objects.undo
        if undo is not None and changes:
            undo.save_tuple(instance)
        for name, raw in changes.items():
            spec = instance.type.attribute(name)
            old = instance.get(name)
            if (
                spec.semantics is Semantics.OWN_REF
                and isinstance(old, Ref)
                and self.objects.is_live(old.oid)
            ):
                # replacing an owned component destroys the old component
                self.integrity.delete_object(old.oid)
            holder = instance.oid if instance.oid is not None else None
            if holder is None:
                instance.set(name, raw if raw is not None else NULL)
            else:
                instance._slots[name] = self.integrity._build_slot(
                    spec, raw, holder=holder
                )
        if instance.oid is not None:
            self.objects.mark_dirty(instance)
        self.data_version += 1

    # -- indexes ----------------------------------------------------------------------------

    def create_index(
        self, set_name: str, attribute: str, kind: str = "btree"
    ) -> None:
        """Create an index over ``set_name.attribute`` and backfill it."""
        named = self.catalog.named(set_name)
        collection = named.value
        if not isinstance(collection, SetInstance):
            raise TypeSystemError(f"{set_name!r} is not a set")
        element = collection.element.type
        if not isinstance(element, TupleType):
            raise TypeSystemError("indexes require tuple-typed set elements")
        element.attribute(attribute)  # validates
        descriptor = self.catalog.indexes.create(set_name, attribute, kind)
        for member in collection:
            key = self._index_key(collection, member, attribute)
            oid = member.oid if isinstance(member, Ref) else None
            if key is not None and oid is not None:
                descriptor.index.insert(key, oid)

    def _index_key(
        self, collection: SetInstance, member: Any, attribute: str
    ) -> Any:
        instance = self.integrity.resolve_member(collection, member)
        if instance is None or not instance.type.has_attribute(attribute):
            return None
        value = instance.get(attribute)
        if value is NULL or not isinstance(value, _INDEXABLE):
            # ordered ADTs (e.g. Date) are also indexable
            from repro.adt.builtin import Date

            if not isinstance(value, Date):
                return None
        return value

    @staticmethod
    def _key_snapshot(
        instance: TupleInstance, attributes: Any
    ) -> dict[str, Any]:
        """``instance``'s index keys for ``attributes`` (None for null)."""
        snapshot: dict[str, Any] = {}
        for attribute in attributes:
            value = (
                instance.get(attribute)
                if instance.type.has_attribute(attribute)
                else NULL
            )
            snapshot[attribute] = None if value is NULL else value
        return snapshot

    def _index_insert(self, set_name: str, collection: SetInstance, member: Any) -> None:
        if not isinstance(member, Ref):
            return
        self.catalog.indexes.on_insert(
            set_name,
            member.oid,
            lambda attribute: self._index_key(collection, member, attribute),
        )

    def _index_delete(self, set_name: str, collection: SetInstance, member: Any) -> None:
        if not isinstance(member, Ref):
            return
        self.catalog.indexes.on_delete(
            set_name,
            member.oid,
            lambda attribute: self._index_key(collection, member, attribute),
        )

    # -- EXCESS interface ------------------------------------------------------------------------

    @property
    def interpreter(self) -> Any:
        """The (lazily constructed) EXCESS statement interpreter."""
        interpreter = self._interpreter
        if interpreter is None:
            from repro.excess.interpreter import Interpreter

            interpreter = self._interpreter = Interpreter(self)
        elif interpreter.db is None:  # closed, now used again
            interpreter.attach(self)
        return interpreter

    def execute(self, text: str, user: Optional[str] = None) -> Any:
        """Parse and run one or more EXCESS statements; returns the result
        of the last statement (a :class:`repro.excess.interpreter.Result`)."""
        return self.interpreter.execute(text, user=user or self.authz.directory.dba)

    def session(self, user: str) -> "Session":
        """A session bound to ``user`` for authorization-checked work."""
        self.authz.directory.add_user(user)
        return Session(self, user)

    # -- persistence ----------------------------------------------------------------------------------

    def save(self, path: str) -> int:
        """Snapshot this database to ``path``; returns bytes written."""
        from repro.storage.persistence import save_snapshot

        return save_snapshot(self, path)

    @classmethod
    def load(cls, path: str) -> "Database":
        """Load a database previously written by :meth:`save`."""
        from repro.storage.persistence import load_snapshot

        return load_snapshot(path)

    @classmethod
    def open(
        cls,
        directory: str,
        *,
        storage: str = "memory",
        fsync: bool = True,
        dba: str = "dba",
        authorization: bool = False,
        pool_capacity: int = 64,
        store_mode: Optional[str] = None,
        cache_capacity: Optional[int] = None,
    ) -> "Database":
        """Open (or create) a *durable* database rooted at ``directory``.

        Recovery loads the latest checkpoint snapshot, repairs any torn
        tail on the write-ahead log, and replays the committed suffix;
        from then on every committed mutating statement is appended to
        the log before the engine acknowledges it. With
        ``storage="paged"`` the store defaults to ``store_mode="file"``:
        pages live in ``<directory>/pages.data`` and checkpoints are
        incremental. See :mod:`repro.storage.recovery`.
        """
        from repro.storage.recovery import open_database

        return open_database(
            directory,
            storage=storage,
            fsync=fsync,
            dba=dba,
            authorization=authorization,
            pool_capacity=pool_capacity,
            store_mode=store_mode,
            cache_capacity=cache_capacity,
        )

    def checkpoint(self) -> dict[str, Any]:
        """Snapshot durable state and truncate the write-ahead log
        (durable mode only); returns a status summary."""
        if self.durability is None:
            raise StorageError(
                "checkpoint requires a database opened with Database.open()"
            )
        return self.durability.checkpoint()

    def close(self) -> None:
        """Release durable-mode resources (the WAL file handle and, on
        the paged file store, the page file's, which reopens on next
        use, and the clean records of the object cache, which fault back
        in), and unlink the interpreter, transaction manager and
        sessions, which point back at this database: dropped after
        ``close()``, a database is freed by reference counting, not left
        to the cyclic collector.  A closed database stays usable: its
        accessors (``execute``, ``interpreter``, ``transactions``,
        ``default_session``, ``connect``) link them again."""
        if self.durability is not None:
            release = getattr(self.store, "release", None)
            if release is not None:
                release()
            self.durability.close()
            self.durability = None
            close_pages = getattr(getattr(self.store, "disk", None), "close", None)
            if close_pages is not None:
                close_pages()
        if self._interpreter is not None:
            self._interpreter.attach(None)
        manager = self.__dict__.get("_transactions")
        if manager is not None:
            manager.attach(None)

    # -- misc -------------------------------------------------------------------------------------------

    def vacuum(self) -> int:
        """Scrub dangling references eagerly; returns count removed.

        On a paged store this also runs the storage compaction pass
        (see :meth:`compact`)."""
        removed = self.integrity.vacuum()
        if hasattr(self.store, "vacuum"):
            self.store.vacuum()
        return removed

    def compact(self) -> dict[str, Any]:
        """Run the storage compaction pass explicitly: squeeze slot
        holes, migrate records off mostly-dead pages, free empty pages.
        Returns the store's report (empty for the memory store)."""
        if hasattr(self.store, "vacuum"):
            return self.store.vacuum()
        return {}

    # -- optimizer statistics ----------------------------------------------------

    def analyze(self, set_name: Optional[str] = None) -> list[str]:
        """Rebuild optimizer statistics from a full scan (``analyze``).

        With a name, analyzes that named set (raising when it is not a
        set); without one, analyzes every named set. Rebuilding bumps the
        catalog epoch so cached plans costed under the old statistics are
        re-optimized. Returns the names analyzed.
        """
        if set_name is not None:
            named = self.named(set_name)
            if not isinstance(named.value, SetInstance):
                raise TypeSystemError(f"{set_name!r} is not a set")
            names = [set_name]
        else:
            names = [
                name
                for name in self.catalog.named_names()
                if isinstance(self.catalog.named(name).value, SetInstance)
            ]
        analyzed: list[str] = []
        for name in names:
            collection = self.catalog.named(name).value
            rows = []
            for member in collection.members():
                row = self._stats_row(member)
                rows.append(self._scalar_row(row) if row else {})
            self.catalog.statistics.rebuild(name, rows, self.data_version)
            analyzed.append(name)
        if analyzed:
            self.catalog.bump_epoch()
        return analyzed

    def _stats_row(self, member: Any) -> Optional[dict]:
        """Attribute name → value snapshot of one set member, for the
        statistics upkeep hooks; ``None`` for non-tuple members."""
        instance = member
        if isinstance(member, Ref):
            instance = self.objects.deref(member.oid)
        if isinstance(instance, TupleInstance):
            return instance.attributes()
        return None

    @staticmethod
    def _scalar_row(row: dict) -> dict:
        """Keep the statistics-relevant slots: scalars (histogram and
        min/max material), references (distinct counts drive join
        selectivity), and nulls (null fraction)."""
        return {
            name: value
            for name, value in row.items()
            if value is NULL or isinstance(value, (int, float, str, bool, Ref))
        }

    def stats(self) -> dict[str, Any]:
        """A summary of engine state for diagnostics and benchmarks."""
        out: dict[str, Any] = {
            "objects": len(self.objects),
            "types": len(self.catalog.type_names()),
            "named_objects": len(self.catalog.named_names()),
            "indexes": len(self.catalog.indexes.all_indexes()),
        }
        store = self.store
        if hasattr(store, "pool"):
            out["buffer"] = {
                "hits": store.pool.stats.hits,
                "misses": store.pool.stats.misses,
                "hit_ratio": store.pool.stats.hit_ratio,
                "pages": store.page_count,
            }
            out["storage"] = self.storage_stats()
        return out

    def storage_stats(self) -> dict[str, Any]:
        """Storage counters for the CLI ``\\storage`` command and the
        server ``status`` op: buffer-pool, physical-disk, and
        live-object-cache behaviour. Empty for the memory store."""
        store = self.store
        if not hasattr(store, "pool"):
            return {}
        pool = store.pool.stats
        disk = store.disk.stats
        cache = store.cache_stats
        return {
            "store_mode": store.store_mode,
            "pages": store.page_count,
            "buffer": {
                "capacity": store.pool.capacity,
                "cached": len(store.pool),
                "hits": pool.hits,
                "misses": pool.misses,
                "hit_ratio": pool.hit_ratio,
                "evictions": pool.evictions,
                "dirty_writebacks": pool.dirty_writebacks,
            },
            "disk": {
                "reads": disk.reads,
                "writes": disk.writes,
                "allocations": disk.allocations,
                "frees": disk.frees,
                "syncs": disk.syncs,
            },
            "object_cache": {
                "capacity": store.cache_capacity,
                "live": store.live_count,
                "pinned": store.pinned_count,
                "dirty": store.dirty_count,
                "hits": cache.hits,
                "faults": cache.faults,
                "evictions": cache.evictions,
                "writebacks": cache.writebacks,
                "peak_live": cache.peak_live,
            },
        }


class Session:
    """A per-user handle enforcing authorization on ``execute``."""

    def __init__(self, database: Database, user: str):
        self.database = database
        self.user = user

    def execute(self, text: str) -> Any:
        """Run EXCESS statements as this session's user."""
        return self.database.interpreter.execute(text, user=self.user)

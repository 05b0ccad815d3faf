"""The paged object store backing the EXTRA object table.

Implements the :class:`repro.core.identity.ObjectStore` protocol on top
of a heap file: object records are encoded into slotted pages and a
directory maps OID → RID. Because EXTRA objects are mutable Python
structures that callers hold live references to, the store also keeps a
**live-object cache** (OID → deserialized record).

Records are written in one compact format (:class:`RecordCodec`): the
OID, a small integer naming the record's type in the store's **type
table**, the slot values in order, and the owner fields. Types are
catalog objects every instance shares, so no schema state reaches a
page; the table is pickled with the store, so a snapshot shares its
entries with the catalog and a faulted-in record's ``value.type`` *is*
the catalog's type object. Records written by older engines (a full
pickle of the :class:`~repro.core.identity.StoredObject`) still read.

The cache is *bounded* when ``cache_capacity`` is set: objects are
evicted in second-chance (CLOCK) order, dirty ones re-serialized through
the heap file first (write-back), so cold objects leave RAM entirely and
``fetch`` transparently faults them back through the buffer pool. A hit
only sets its record's ``referenced`` bit — the same one store in a
bounded and an unbounded cache; eviction takes the oldest admitted
record whose bit is clear, and gives one with the bit set another round
at the young end instead. Pin counts keep objects referenced by
in-transaction undo entries and parked MVCC workspaces resident; a
weak-value map guarantees that as long as *any* live reference to an
object exists, ``fetch`` returns that same instance (eviction can never
fork object identity). With ``cache_capacity=None`` (the default, and
the ablation baseline) the cache is unbounded and nothing is evicted.

``fetch_cold`` bypasses the cache entirely, deserializing from pages
through the buffer pool — the storage benchmarks use it to measure real
page behaviour. :meth:`vacuum` is the compaction pass: it squeezes slot
holes, migrates records off mostly-dead pages, and returns empty pages
to the disk's free list.
"""

from __future__ import annotations

import copyreg
import pickle
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Iterable, Iterator, Optional

from repro.core.identity import Oid, StoredObject
from repro.core.values import NULL, ArrayInstance, Ref, SetInstance, TupleInstance
from repro.errors import StorageError
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager, FileDiskManager
from repro.storage.heap import HeapFile
from repro.storage.pages import Rid

__all__ = ["PagedObjectStore", "CacheStats", "RecordCodec"]

#: First byte of a full pickle (the PROTO opcode). Older engines pickled
#: the whole StoredObject, schema type included, into each record.
_PROTO = 0x80
#: The protocol-5 pickle of a record payload opens with PROTO (2 bytes)
#: and FRAME (9 bytes); both are optional to the unpickler, so a record
#: keeps only the body, which never starts with PROTO.
_PICKLE_PROTOCOL = 5
_FRAME = 0x95
_PROTO_LEN = 2
_FRAME_LEN = 9

#: Tags of the tuples nested slot values flatten to. Scalars are stored
#: bare and NULL as None, so a plain tuple in a slot is always a node.
_REF, _TUPLE, _SET, _REF_SET, _ARRAY, _ADT = range(6)
_SCALARS = frozenset((int, float, str, bool))


@dataclass
class CacheStats:
    """Live-object cache behaviour counters."""

    hits: int = 0
    faults: int = 0
    evictions: int = 0
    writebacks: int = 0
    peak_live: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        self.hits = 0
        self.faults = 0
        self.evictions = 0
        self.writebacks = 0
        self.peak_live = 0


class RecordCodec:
    """The compact record format of the paged object store.

    A record is the pickle body of the plain tuple ``(oid, layout, slots,
    owner, owner_name)``: ``slots`` holds the slot values in stored order
    and ``layout`` indexes the **type table**. A table entry is ``(type,
    names)`` — a tuple type with the attribute names of the slots in the
    order the record stores them, or a set/array type or ADT class with
    ``names=None``. Names travel with the layout rather than being read
    off the type, because an instance keeps the shape it was written with
    until ``alter type`` patches it. Nested values flatten to tagged
    tuples that name their types the same way.

    Entries are keyed by object identity and never dropped, so an index
    stays valid on every page that holds it. The table is pickled with
    the store: a snapshot then shares its entries with the catalog, and
    decoding hands back the catalog's own type objects.
    """

    def __init__(self) -> None:
        self.types: list[tuple[Any, Optional[tuple[str, ...]]]] = []
        self._index: dict[tuple[int, Optional[tuple[str, ...]]], int] = {}

    def __getstate__(self) -> dict:
        return {"types": self.types}

    def __setstate__(self, state: dict) -> None:
        self.types = state["types"]
        self._index = {
            (id(kind), names): index
            for index, (kind, names) in enumerate(self.types)
        }

    def _entry(self, kind: Any, names: Optional[tuple[str, ...]] = None) -> int:
        key = (id(kind), names)
        index = self._index.get(key)
        if index is None:
            index = self._index[key] = len(self.types)
            self.types.append((kind, names))
        return index

    # -- encoding ----------------------------------------------------------------

    def encode(self, record: StoredObject) -> bytes:
        """The page bytes of ``record`` (the top-level value's OID is the
        record's)."""
        value = record.value
        slots = value._slots
        data = pickle.dumps(
            (
                record.oid,
                self._entry(value.type, tuple(slots)),
                self._flatten_all(slots.values()),
                record.owner,
                record.owner_name,
            ),
            protocol=_PICKLE_PROTOCOL,
        )
        if data[_PROTO_LEN] == _FRAME:
            return data[_PROTO_LEN + _FRAME_LEN:]
        return data[_PROTO_LEN:]

    def _flatten_all(self, values: Iterable[Any]) -> list:
        if _SCALARS.issuperset(map(type, values)):
            return list(values)
        flatten = self._flatten
        return [v if v.__class__ in _SCALARS else flatten(v) for v in values]

    def _flatten(self, value: Any) -> Any:
        if value is NULL:
            return None
        cls = value.__class__
        if cls is Ref:
            return (_REF, value.oid)
        if cls is TupleInstance:
            slots = value._slots
            return (
                _TUPLE,
                self._entry(value.type, tuple(slots)),
                value.oid,
                self._flatten_all(slots.values()),
            )
        if cls is SetInstance:
            members = value._members
            if members.__class__ is dict:  # reference set: members by OID
                return (_REF_SET, self._entry(value.type), value.key, list(members))
            return (
                _SET, self._entry(value.type), value.key, self._flatten_all(members)
            )
        if cls is ArrayInstance:
            return (_ARRAY, self._entry(value.type), self._flatten_all(value._slots))
        # an ADT value: a plain class (state = its __dict__) is stored as
        # its class's index plus that dict; any other pickles as itself
        reduced = value.__reduce_ex__(_PICKLE_PROTOCOL)
        if (
            len(reduced) == 5
            and reduced[0] is copyreg.__newobj__
            and reduced[1] == (cls,)
            and reduced[2].__class__ is dict
            and reduced[3:] == (None, None)
            and not hasattr(cls, "__setstate__")
        ):
            return (_ADT, self._entry(cls), reduced[2])
        if cls is tuple:  # would read back as a node
            raise StorageError(f"cannot store a plain tuple: {value!r}")
        return value

    # -- decoding ----------------------------------------------------------------

    def decode(self, data: bytes) -> StoredObject:
        """Rebuild the record :meth:`encode` wrote."""
        oid, layout, slots, owner, owner_name = pickle.loads(data)
        return StoredObject(oid, self._tuple(layout, oid, slots), owner, owner_name)

    def _tuple(self, layout: int, oid: Optional[Oid], slots: list) -> TupleInstance:
        tuple_type, names = self.types[layout]
        instance = TupleInstance.__new__(TupleInstance)
        instance.type = tuple_type
        instance.oid = oid
        instance._slots = dict(zip(names, self._unflatten_all(slots)))
        return instance

    def _unflatten_all(self, values: list) -> list:
        if _SCALARS.issuperset(map(type, values)):
            return values
        unflatten = self._unflatten
        return [v if v.__class__ in _SCALARS else unflatten(v) for v in values]

    def _unflatten(self, node: Any) -> Any:
        if node is None:
            return NULL
        if node.__class__ is not tuple:
            return node  # an ADT value pickled as itself
        tag = node[0]
        if tag == _REF:
            return Ref(node[1])
        if tag == _TUPLE:
            return self._tuple(node[1], node[2], node[3])
        kind = self.types[node[1]][0]
        if tag == _ADT:
            adt = kind.__new__(kind)
            adt.__dict__.update(node[2])
            return adt
        if tag == _ARRAY:
            array = ArrayInstance.__new__(ArrayInstance)
            array.type = kind
            array._slots = self._unflatten_all(node[2])
            return array
        members = node[3]
        result = SetInstance.__new__(SetInstance)
        result.type = kind
        result.key = node[2]
        if tag == _REF_SET:
            result._members = {oid: Ref(oid) for oid in members}
        else:
            result._members = self._unflatten_all(members)
        return result



class PagedObjectStore:
    """Object store with slotted-page persistence and a live-object cache."""

    def __init__(
        self,
        disk: Optional[DiskManager] = None,
        pool: Optional[BufferPool] = None,
        pool_capacity: int = 64,
        cache_capacity: Optional[int] = None,
        store_mode: Optional[str] = None,
        path: Optional[str] = None,
    ):
        if disk is None:
            if store_mode is None:
                store_mode = "file" if path is not None else "sim"
            if store_mode == "file":
                disk = FileDiskManager(path=path)
            elif store_mode == "sim":
                disk = DiskManager()
            else:
                raise StorageError(f"unknown store_mode: {store_mode!r}")
        else:
            store_mode = "file" if isinstance(disk, FileDiskManager) else "sim"
        self.store_mode = store_mode
        self.disk = disk
        self.pool = pool if pool is not None else BufferPool(self.disk, pool_capacity)
        self.file = HeapFile("objects", self.pool)
        self.cache_capacity = cache_capacity
        self._directory: dict[Oid, Rid] = {}
        #: the protocol's read-only live-OID view over the directory
        #: (``_live`` below is the object cache, a different thing)
        self.live = MappingProxyType(self._directory)
        self._live: "OrderedDict[Oid, StoredObject]" = OrderedDict()
        self._weak: "weakref.WeakValueDictionary[Oid, StoredObject]" = (
            weakref.WeakValueDictionary()
        )
        self._pins: dict[Oid, int] = {}
        self._dirty: set[Oid] = set()
        self.cache_stats = CacheStats()
        self.codec = RecordCodec()

    # -- ObjectStore protocol ------------------------------------------------------

    def insert(self, oid: Oid, record: StoredObject) -> None:
        """Serialize ``record`` into the heap file and cache it live and
        clean.

        The object table registers a new object once it is fully built,
        so this is the one encode and page write its creation costs, and
        evicting it before its first mutation costs no writeback."""
        if oid in self._directory:
            raise StorageError(f"oid {oid} already present")
        rid = self.file.insert(self._serialize(record))
        self._directory[oid] = rid
        self._admit(oid, record, dirty=False)

    def fetch(self, oid: Oid) -> StoredObject:
        """Return the live record for ``oid`` (KeyError when absent).

        Serves from the live cache, then the weak identity map (an
        evicted object some caller still references — returning the same
        instance keeps in-place mutations coherent), and finally faults
        the object back in from its page through the buffer pool.
        """
        record = self._live.get(oid)
        if record is not None:
            self.cache_stats.hits += 1
            record.referenced = True
            return record
        if oid not in self._directory:
            raise KeyError(oid)
        record = self._weak.get(oid)
        if record is not None:
            self.cache_stats.hits += 1
            self._admit(oid, record, dirty=False)
            return record
        self.cache_stats.faults += 1
        record = self._deserialize(self.file.read(self._directory[oid]))
        self._admit(oid, record, dirty=False)
        return record

    def record(self, oid: Oid) -> Optional[StoredObject]:
        """The live record for ``oid`` (faulted in through :meth:`fetch`),
        or None when ``oid`` is not live."""
        if oid in self._directory:
            return self.fetch(oid)
        return None

    def update(self, oid: Oid, record: StoredObject) -> None:
        """Mark ``oid`` dirty; serialization is deferred (write-back).

        The record's bytes reach its page on eviction, :meth:`flush`,
        checkpoint, or snapshot — page-level accounting still sees every
        cold transfer, without paying pickling costs on every in-place
        mutation of a cached object.
        """
        if oid not in self._directory:
            raise StorageError(f"cannot update unknown oid {oid}")
        self._admit(oid, record, dirty=True)

    def delete(self, oid: Oid) -> None:
        """Drop the record and free its page slot."""
        rid = self._directory.pop(oid, None)
        self._live.pop(oid, None)
        self._dirty.discard(oid)
        if rid is not None:
            self.file.delete(rid)

    def __contains__(self, oid: Oid) -> bool:
        return oid in self._directory

    def oids(self) -> Iterator[Oid]:
        """All live OIDs (directory order = insertion order)."""
        return iter(list(self._directory))

    def __len__(self) -> int:
        return len(self._directory)

    # -- cache admission and eviction ---------------------------------------------

    def _admit(self, oid: Oid, record: StoredObject, dirty: bool) -> None:
        record.referenced = False  # admission is its own recency
        self._live[oid] = record
        self._weak[oid] = record
        if dirty:
            self._dirty.add(oid)
        if self.cache_capacity is not None:
            self._live.move_to_end(oid)
            self._evict_excess(keep=oid)
        if len(self._live) > self.cache_stats.peak_live:
            self.cache_stats.peak_live = len(self._live)

    def _evict_excess(self, keep: Optional[Oid] = None) -> None:
        """Evict unpinned objects down to capacity, oldest first; one
        referenced since it was admitted or last passed over loses its
        bit and moves to the young end instead (second chance).

        ``keep`` — the object being admitted — is never the victim: its
        caller is about to use the instance, and evicting a clean record
        nobody else references would let a later fetch fault in a second
        instance, orphaning the caller's writes to the first."""
        while len(self._live) > self.cache_capacity:
            victim = None
            for oid in self._live:
                if oid != keep and not self._pins.get(oid):
                    victim = oid
                    break
            if victim is None:
                # every cached object is pinned: overflow rather than
                # fail — pins are short-lived (txn/iterator scoped)
                return
            record = self._live[victim]
            if record.referenced:
                record.referenced = False
                self._live.move_to_end(victim)
                continue
            if victim in self._dirty:
                self._writeback(victim, self._live[victim])
            del self._live[victim]
            self.cache_stats.evictions += 1

    def _writeback(self, oid: Oid, record: StoredObject) -> None:
        rid = self._directory[oid]
        new_rid = self.file.update(rid, self._serialize(record))
        if new_rid != rid:
            self._directory[oid] = new_rid
        self._dirty.discard(oid)
        self.cache_stats.writebacks += 1

    def flush(self) -> None:
        """Write back every dirty cached object to its page."""
        for oid in list(self._dirty):
            record = self._live.get(oid)
            if record is not None:
                self._writeback(oid, record)
            else:
                self._dirty.discard(oid)

    def release(self) -> None:
        """Drop the cache's references to its clean, unpinned records —
        what eviction would drop — so a closed database's objects are
        freed as soon as nothing else holds them, not when the cyclic
        collector reaches the database. Dirty and pinned records stay,
        and a record a caller kept is still found through the weak
        identity map."""
        for oid in [
            oid for oid in self._live if oid not in self._dirty and not self._pins.get(oid)
        ]:
            del self._live[oid]

    # -- pinning --------------------------------------------------------------------

    def pin(self, oid: Oid) -> None:
        """Exempt ``oid`` from eviction (undo entries, parked workspaces,
        open iterators). Pins nest; unpin once per pin."""
        self._pins[oid] = self._pins.get(oid, 0) + 1

    def unpin(self, oid: Oid) -> None:
        """Release one pin on ``oid`` (tolerant of already-deleted oids)."""
        count = self._pins.get(oid, 0)
        if count <= 1:
            self._pins.pop(oid, None)
        else:
            self._pins[oid] = count - 1
        if (
            self.cache_capacity is not None
            and len(self._live) > self.cache_capacity
        ):
            self._evict_excess()

    def pin_count(self, oid: Oid) -> int:
        """Current pin count for ``oid`` (tests/diagnostics)."""
        return self._pins.get(oid, 0)

    @property
    def pinned_count(self) -> int:
        """Number of distinct pinned oids."""
        return len(self._pins)

    # -- cold access for benchmarking -------------------------------------------------

    def fetch_cold(self, oid: Oid) -> StoredObject:
        """Deserialize ``oid`` from its page through the buffer pool,
        bypassing the live-object cache (used to benchmark real page I/O).

        A dirty cached object is written back first so the page image is
        current — cold readers must never see stale bytes."""
        rid = self._directory.get(oid)
        if rid is None:
            raise KeyError(oid)
        if oid in self._dirty:
            self._writeback(oid, self._live[oid])
            rid = self._directory[oid]
        return self._deserialize(self.file.read(rid))

    def evict_live_cache(self) -> None:
        """Flush dirty objects, then drop the live-object cache so
        subsequent fetches hit pages.

        Only safe when no outside code holds references it expects to
        share mutations with; benchmarks call it between phases.
        """
        self.flush()
        self._live.clear()
        self._weak.clear()

    def scan_objects(self) -> Iterator[tuple[Oid, StoredObject]]:
        """Yield every ``(oid, record)``, pinning only the current object.

        The iterator holds one pin at a time, so a full scan over a
        bounded cache never inflates the resident set beyond capacity+1.
        """
        for oid in list(self._directory):
            if oid not in self._directory:
                continue  # deleted mid-scan
            self.pin(oid)
            try:
                yield oid, self.fetch(oid)
            finally:
                self.unpin(oid)

    # -- checkpoint hooks -----------------------------------------------------------

    def prepare_checkpoint(self) -> None:
        """Push all dirty state down to the disk and fsync it.

        Called before the snapshot is written: the snapshot pickles the
        extent table + directory (not page payloads), so every payload it
        references must be durable first."""
        self.flush()
        self.pool.flush_all()
        self.disk.sync()

    def commit_checkpoint(self) -> None:
        """Promote the just-snapshotted state to the durable image."""
        commit = getattr(self.disk, "commit_checkpoint", None)
        if commit is not None:
            commit()

    def attach(self, path: str) -> None:
        """Rebind a file-backed store to its page file after unpickling."""
        if self.store_mode != "file":
            raise StorageError("attach() only applies to store_mode='file'")
        self.disk.attach(path)

    # -- compaction -------------------------------------------------------------------

    def vacuum(self, threshold: float = 0.5) -> dict:
        """Compact the heap: squeeze slot holes, migrate records off
        mostly-dead pages, and free emptied pages back to the allocator.

        ``threshold`` is the live-byte fraction below which a standard
        page gets drained. Returns a report dict.
        """
        self.flush()
        report = {"pages_freed": 0, "records_moved": 0, "slots_trimmed": 0}
        rid_to_oid = {rid: oid for oid, rid in self._directory.items()}
        for page_no in self.file.page_numbers():
            page = self.pool.fetch_page(page_no)
            pinned = True
            try:
                records = list(page.records())
                occupancy = page.used_bytes / page.size if page.size else 1.0
                drain = not records or (
                    page.size <= self.pool.disk.page_size
                    and occupancy < threshold
                    # only drain pages whose records we can re-point
                    and all(
                        Rid(page_no, slot_no) in rid_to_oid
                        for slot_no, _ in records
                    )
                )
                if not drain:
                    before = len(page._slots)
                    page.compact()
                    trimmed = before - len(page._slots)
                    report["slots_trimmed"] += trimmed
                    self.pool.unpin(page_no, dirty=bool(trimmed))
                    pinned = False
                    continue
            finally:
                if pinned:
                    self.pool.unpin(page_no)
            # Drain: delete each record here, re-insert it elsewhere.
            moved = [
                (rid_to_oid[Rid(page_no, slot_no)], bytes(data))
                for slot_no, data in records
            ]
            for slot_no, _ in records:
                self.file.delete(Rid(page_no, slot_no))
            self.file.exclude_from_placement(page_no)
            for oid, data in moved:
                new_rid = self.file.insert(data)
                self._directory[oid] = new_rid
                rid_to_oid[new_rid] = oid
                report["records_moved"] += 1
            self.file.free_page(page_no)
            report["pages_freed"] += 1
        return report

    # -- serialization -----------------------------------------------------------------

    def _serialize(self, record: StoredObject) -> bytes:
        return self.codec.encode(record)

    def _deserialize(self, data: bytes) -> StoredObject:
        if data[0] == _PROTO:  # a full pickle written by an older engine
            return pickle.loads(data)
        return self.codec.decode(data)

    # -- pickling ---------------------------------------------------------------------

    def __getstate__(self):
        # Flush object- and page-level dirty state *before* the state
        # dict is built: the disk is serialized as part of this state, so
        # any write issued later (e.g. from a nested __getstate__) would
        # miss the pickle.
        self.flush()
        self.pool.flush_all()
        state = dict(self.__dict__)
        del state["live"]
        # the directory as one flat int list of (oid, page_no, slot_no)
        # runs: a Rid per row would pickle, and load, one object per row
        state["_directory"] = [
            n for oid, rid in self._directory.items()
            for n in (oid, rid.page_no, rid.slot_no)
        ]
        state["_live"] = OrderedDict()
        state["_weak"] = None
        state["_pins"] = {}
        state["_dirty"] = set()
        state["cache_stats"] = CacheStats()
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        directory = state["_directory"]
        if directory.__class__ is list:  # older engines pickled the Rid dict
            runs = iter(directory)
            self._directory = {
                oid: Rid(page_no, slot_no)
                for oid, page_no, slot_no in zip(runs, runs, runs)
            }
        self.live = MappingProxyType(self._directory)
        self._weak = weakref.WeakValueDictionary()
        if "codec" not in state:  # pickled by an engine that wrote full pickles
            self.codec = RecordCodec()

    # -- introspection -----------------------------------------------------------------

    @property
    def page_count(self) -> int:
        """Pages occupied by the object file."""
        return self.file.page_count

    @property
    def live_count(self) -> int:
        """Objects currently deserialized in the live cache."""
        return len(self._live)

    @property
    def dirty_count(self) -> int:
        """Cached objects awaiting write-back."""
        return len(self._dirty)

    def rid_of(self, oid: Oid) -> Rid:
        """The current RID of ``oid`` (for tests and diagnostics)."""
        try:
            return self._directory[oid]
        except KeyError:
            raise StorageError(f"unknown oid {oid}") from None

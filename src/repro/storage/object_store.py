"""The paged object store backing the EXTRA object table.

Implements the :class:`repro.core.identity.ObjectStore` protocol on top
of a heap file: object records are pickled into slotted pages and a
directory maps OID → RID. Because EXTRA objects are mutable Python
structures that callers hold live references to, the store also keeps a
**live-object cache** (OID → deserialized record).

The cache is *bounded* when ``cache_capacity`` is set: least-recently
used objects are evicted, dirty ones re-serialized through the heap file
first (write-back), so cold objects leave RAM entirely and ``fetch``
transparently faults them back through the buffer pool. Pin counts keep
objects referenced by in-transaction undo entries and parked MVCC
workspaces resident; a weak-value map guarantees that as long as *any*
live reference to an object exists, ``fetch`` returns that same instance
(eviction can never fork object identity). With ``cache_capacity=None``
(the default, and the ablation baseline) the cache is unbounded and the
hot path skips all LRU bookkeeping.

``fetch_cold`` bypasses the cache entirely, deserializing from pages
through the buffer pool — the storage benchmarks use it to measure real
page behaviour. :meth:`vacuum` is the compaction pass: it squeezes slot
holes, migrates records off mostly-dead pages, and returns empty pages
to the disk's free list.
"""

from __future__ import annotations

import pickle
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.core.identity import Oid, StoredObject
from repro.errors import StorageError
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager, FileDiskManager
from repro.storage.heap import HeapFile
from repro.storage.pages import Rid

__all__ = ["PagedObjectStore", "CacheStats"]


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
        self._live: "OrderedDict[Oid, StoredObject]" = OrderedDict()
        self._weak: "weakref.WeakValueDictionary[Oid, StoredObject]" = (
            weakref.WeakValueDictionary()
        )
        self._pins: dict[Oid, int] = {}
        self._dirty: set[Oid] = set()
        self.cache_stats = CacheStats()

    # -- ObjectStore protocol ------------------------------------------------------

    def insert(self, oid: Oid, record: StoredObject) -> None:
        """Serialize ``record`` into the heap file and cache it live."""
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
            if self.cache_capacity is not None:
                self._live.move_to_end(oid)
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
        """Evict least-recently-used unpinned objects down to capacity.

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

    @staticmethod
    def _serialize(record: StoredObject) -> bytes:
        return pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)

    @staticmethod
    def _deserialize(data: bytes) -> StoredObject:
        return pickle.loads(data)

    # -- pickling ---------------------------------------------------------------------

    def __getstate__(self):
        # Flush object- and page-level dirty state *before* the state
        # dict is built: the disk is serialized as part of this state, so
        # any write issued later (e.g. from a nested __getstate__) would
        # miss the pickle.
        self.flush()
        self.pool.flush_all()
        state = dict(self.__dict__)
        state["_live"] = OrderedDict()
        state["_weak"] = None
        state["_pins"] = {}
        state["_dirty"] = set()
        state["cache_stats"] = CacheStats()
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._weak = weakref.WeakValueDictionary()

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

"""Heap files of variable-length records, layered on the buffer pool.

A :class:`HeapFile` owns a growing set of pages and supports insert /
read / update / delete / scan by :class:`~repro.storage.pages.Rid`. All
page access goes through the buffer pool so the file's behaviour shows up
in buffer statistics. Records larger than a standard page are stored in a
dedicated oversized page, simulating the EXODUS storage manager's large
storage objects.

Insert placement uses **free-space size buckets**: pages are bucketed by
``free_bytes.bit_length()``, so finding a page that fits a record is
O(1) in the number of pages (bucket ``b`` guarantees at least ``2^(b-1)``
free bytes). The previous implementation walked every page's free hint
per insert, which made bulk loads quadratic.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator, Optional

from repro.storage.buffer import BufferPool
from repro.storage.pages import PAGE_SIZE, SLOT_OVERHEAD, Rid

__all__ = ["HeapFile"]

#: Candidate pages examined in the boundary bucket (the one bucket whose
#: members *might* fit) before falling through to a guaranteed-fit bucket.
_BOUNDARY_PROBES = 4


class HeapFile:
    """A file of byte records with stable-until-update RIDs.

    ``update`` keeps the RID when the new record still fits in its page
    and otherwise relocates the record, returning the new RID — callers
    (the paged object store) maintain their own OID → RID directory, so no
    forwarding pointers are needed.
    """

    def __init__(self, name: str, pool: BufferPool):
        self.name = name
        self._pool = pool
        #: page numbers belonging to this file, in allocation order
        self._page_nos: list[int] = []
        #: free-bytes hints, kept exact on every page touch
        self._free_hints: dict[int, int] = {}
        #: bucket b holds pages with free_bytes.bit_length() == b
        self._buckets: dict[int, set[int]] = {}
        self._record_count = 0
        #: pages fetched while *placing* inserts (regression-tested to
        #: stay O(1) per insert as the file grows)
        self.placement_probes = 0

    # -- free-space bucketing ----------------------------------------------------

    def _rebucket(self, page_no: int, new_free: int) -> None:
        old_free = self._free_hints.get(page_no)
        if old_free is not None:
            old_bucket = old_free.bit_length()
            if old_bucket == new_free.bit_length():
                self._free_hints[page_no] = new_free
                return
            members = self._buckets.get(old_bucket)
            if members is not None:
                members.discard(page_no)
                if not members:
                    del self._buckets[old_bucket]
        self._free_hints[page_no] = new_free
        if new_free > 0:
            self._buckets.setdefault(new_free.bit_length(), set()).add(page_no)

    def _unbucket(self, page_no: int) -> None:
        free = self._free_hints.pop(page_no, None)
        if free is None:
            return
        members = self._buckets.get(free.bit_length())
        if members is not None:
            members.discard(page_no)
            if not members:
                del self._buckets[free.bit_length()]

    def _candidate_pages(self, needed: int) -> Iterator[int]:
        """Yield page numbers likely to fit ``needed`` bytes, O(1)-ish.

        Bucket ``b`` holds pages with free bytes in ``[2^(b-1), 2^b)``.
        The *boundary* bucket (``needed.bit_length()``) may or may not
        fit, so probe a bounded number of its members; every higher
        bucket guarantees a fit, so one member suffices.
        """
        boundary = needed.bit_length()
        members = self._buckets.get(boundary)
        if members:
            # copy only the probed members: the caller may rebucket a
            # page (mutating this set) between yields
            for page_no in tuple(islice(members, _BOUNDARY_PROBES)):
                if self._free_hints.get(page_no, 0) >= needed:
                    yield page_no
        top = max(self._buckets) if self._buckets else boundary
        for bucket in range(boundary + 1, top + 1):
            members = self._buckets.get(bucket)
            if members:
                yield next(iter(members))
                return

    # -- operations -------------------------------------------------------------

    def insert(self, record: bytes) -> Rid:
        """Store ``record`` and return its RID."""
        needed = len(record) + SLOT_OVERHEAD
        if needed > PAGE_SIZE:
            return self._insert_large(record)
        for page_no in self._candidate_pages(needed):
            self.placement_probes += 1
            page = self._pool.fetch_page(page_no)
            try:
                if page.fits(record):
                    slot_no = page.insert(record)
                    self._rebucket(page_no, page.free_bytes)
                    self._record_count += 1
                    return Rid(page_no, slot_no)
                self._rebucket(page_no, page.free_bytes)
            finally:
                self._pool.unpin(page_no, dirty=True)
        page = self._pool.new_page()
        self.placement_probes += 1
        try:
            self._page_nos.append(page.page_no)
            slot_no = page.insert(record)
            self._rebucket(page.page_no, page.free_bytes)
            self._record_count += 1
            return Rid(page.page_no, slot_no)
        finally:
            self._pool.unpin(page.page_no, dirty=True)

    def _insert_large(self, record: bytes) -> Rid:
        """Store an oversized record in a page sized to fit it.

        Routed through the buffer pool (not the raw disk) so the page is
        written back on eviction like any other — essential for the
        file-backed disk, which has no shared page identity to hide
        behind.
        """
        page = self._pool.new_page(size=len(record) + SLOT_OVERHEAD)
        try:
            self._page_nos.append(page.page_no)
            slot_no = page.insert(record)
            self._rebucket(page.page_no, 0)
            self._record_count += 1
            return Rid(page.page_no, slot_no)
        finally:
            self._pool.unpin(page.page_no, dirty=True)

    def read(self, rid: Rid) -> bytes:
        """Return the record stored at ``rid``."""
        page = self._pool.fetch_page(rid.page_no)
        try:
            return page.read(rid.slot_no)
        finally:
            self._pool.unpin(rid.page_no)

    def update(self, rid: Rid, record: bytes) -> Rid:
        """Replace the record at ``rid``; returns the (possibly new) RID."""
        page = self._pool.fetch_page(rid.page_no)
        try:
            if page.update(rid.slot_no, record):
                self._rebucket(rid.page_no, page.free_bytes)
                return rid
            # Does not fit in place: delete here, insert elsewhere.
            page.delete(rid.slot_no)
            self._rebucket(rid.page_no, page.free_bytes)
        finally:
            self._pool.unpin(rid.page_no, dirty=True)
        self._record_count -= 1
        return self.insert(record)

    def delete(self, rid: Rid) -> None:
        """Remove the record at ``rid``."""
        page = self._pool.fetch_page(rid.page_no)
        try:
            page.delete(rid.slot_no)
            self._rebucket(rid.page_no, page.free_bytes)
            self._record_count -= 1
        finally:
            self._pool.unpin(rid.page_no, dirty=True)

    def free_page(self, page_no: int) -> None:
        """Detach an (empty) page from the file and free it on disk."""
        self._page_nos.remove(page_no)
        self._unbucket(page_no)
        self._pool.discard(page_no)
        self._pool.disk.free_page(page_no)

    def exclude_from_placement(self, page_no: int) -> None:
        """Stop targeting ``page_no`` for inserts (used while a vacuum
        drains it — its records must migrate *off* the page)."""
        self._unbucket(page_no)
        self._free_hints[page_no] = 0

    # -- scans ---------------------------------------------------------------------

    def scan(self) -> Iterator[tuple[Rid, bytes]]:
        """Yield every ``(rid, record)`` in page order (a full file scan)."""
        for page_no in list(self._page_nos):
            page = self._pool.fetch_page(page_no)
            try:
                for slot_no, record in page.records():
                    yield Rid(page_no, slot_no), record
            finally:
                self._pool.unpin(page_no)

    # -- introspection ----------------------------------------------------------------

    @property
    def record_count(self) -> int:
        """Number of live records in the file."""
        return self._record_count

    @property
    def page_count(self) -> int:
        """Number of pages the file occupies."""
        return len(self._page_nos)

    def page_numbers(self) -> list[int]:
        """The file's page numbers in allocation order."""
        return list(self._page_nos)

    def free_hint(self, page_no: int) -> Optional[int]:
        """The cached free-bytes hint for ``page_no`` (tests/diagnostics)."""
        return self._free_hints.get(page_no)

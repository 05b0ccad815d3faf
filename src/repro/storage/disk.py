"""Disk managers for the storage substrate.

Two implementations service page-level allocation, reads, and writes:

* :class:`DiskManager` — the original *simulated* disk. It holds
  :class:`~repro.storage.pages.Page` objects directly in a dict, which
  keeps the simulation honest about *when* I/O happens without paying
  Python serialization costs on every page transfer. Retained as the
  ``store_mode="sim"`` ablation.
* :class:`FileDiskManager` — the real substrate (``store_mode="file"``).
  Pages are serialized to a block-structured on-disk file in 4KB blocks
  (oversized pages span a contiguous extent of blocks). Writes use a
  **shadow-block** discipline: blocks referenced by the last committed
  checkpoint image are never overwritten in place, so a crash mid-write
  can never corrupt the durable image — recovery always finds the exact
  page state the checkpoint LSN describes, which is what logical WAL
  replay requires. ``commit_checkpoint`` promotes the current extent
  table to the durable image and recycles the blocks the previous image
  no longer references.

Both managers expose the same interface (``allocate_page``,
``read_page``, ``write_page``, ``free_page``, ``sync``) and count
physical I/O in :class:`DiskStats` so buffer-pool benchmarks and the
incremental-checkpoint assertions can observe real behaviour.
"""

from __future__ import annotations

import bisect
import os
import tempfile
from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import StorageError
from repro.storage.pages import PAGE_SIZE, Page

__all__ = ["DiskStats", "DiskManager", "FileDiskManager", "BLOCK_SIZE"]

#: Allocation unit of the file-backed disk. One standard page fills one
#: block when near-empty; its serialized image may spill into a second.
BLOCK_SIZE = PAGE_SIZE


@dataclass
class DiskStats:
    """Physical I/O counters for one disk."""

    reads: int = 0
    writes: int = 0
    allocations: int = 0
    frees: int = 0
    syncs: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        self.reads = 0
        self.writes = 0
        self.allocations = 0
        self.frees = 0
        self.syncs = 0


class DiskManager:
    """Allocates pages and services page-level reads and writes (simulated)."""

    def __init__(self, page_size: int = PAGE_SIZE):
        self.page_size = page_size
        self._pages: dict[int, Page] = {}
        self._next_page_no = 0
        self._free_page_nos: list[int] = []
        self.stats = DiskStats()

    def allocate_page(self, size: Optional[int] = None) -> Page:
        """Create a fresh empty page and return it (counted as a write).

        ``size`` overrides the standard geometry for oversized pages
        (EXODUS large storage objects lived outside normal page bounds).
        """
        if self._free_page_nos:
            page_no = self._free_page_nos.pop()
        else:
            page_no = self._next_page_no
            self._next_page_no += 1
        page = Page(page_no, size=size if size is not None else self.page_size)
        self._pages[page.page_no] = page
        self.stats.allocations += 1
        self.stats.writes += 1
        return page

    def read_page(self, page_no: int) -> Page:
        """Fetch a page from disk (counted as a physical read)."""
        try:
            page = self._pages[page_no]
        except KeyError:
            raise StorageError(f"no such page {page_no}") from None
        self.stats.reads += 1
        return page

    def write_page(self, page: Page) -> None:
        """Flush a page to disk (counted as a physical write)."""
        if page.page_no not in self._pages:
            raise StorageError(f"cannot write unallocated page {page.page_no}")
        self._pages[page.page_no] = page
        page.dirty = False
        self.stats.writes += 1

    def free_page(self, page_no: int) -> None:
        """Release ``page_no`` back to the allocator free list."""
        if self._pages.pop(page_no, None) is None:
            raise StorageError(f"cannot free unallocated page {page_no}")
        self._free_page_nos.append(page_no)
        self.stats.frees += 1

    def sync(self) -> None:
        """Durability barrier (a no-op for the simulated disk)."""
        self.stats.syncs += 1

    def page_exists(self, page_no: int) -> bool:
        """True when ``page_no`` has been allocated."""
        return page_no in self._pages

    @property
    def page_count(self) -> int:
        """Total pages allocated so far."""
        return len(self._pages)

    @property
    def free_page_count(self) -> int:
        """Pages currently on the allocator free list."""
        return len(self._free_page_nos)


class FileDiskManager:
    """Persists pages to a block-structured on-disk file.

    Every page maps to an *extent* — a run of contiguous ``BLOCK_SIZE``
    blocks — recorded in an in-memory extent table
    ``page_no -> (first_block, n_blocks, byte_length)``. The table (plus
    allocator state) is what :meth:`durable_state` captures; it is
    pickled *inside* the database snapshot so the page map commits
    atomically with the object directory it describes.

    I/O uses ``os.pread``/``os.pwrite`` so forked worker processes that
    inherit the descriptor never race on a shared file offset.

    Shadow-block rules:

    * blocks referenced by the last committed checkpoint (the *durable
      image*) are never rewritten in place — a page update while its
      extent is durable relocates to fresh blocks;
    * blocks allocated since the last checkpoint may be rewritten in
      place freely;
    * blocks the durable image releases are quarantined in a pending
      list until :meth:`commit_checkpoint` makes the release safe.
    """

    def __init__(self, path: Optional[str] = None, page_size: int = PAGE_SIZE):
        self.page_size = page_size
        self.stats = DiskStats()
        self._path = path
        #: extent table: page_no -> (first_block, n_blocks, byte_length)
        self._table: dict[int, tuple[int, int, int]] = {}
        self._next_page_no = 0
        self._free_page_nos: list[int] = []
        self._block_count = 0
        #: free blocks in ascending order
        self._free_blocks: list[int] = []
        self._durable_blocks: set[int] = set()
        self._pending_free: list[int] = []
        #: optional callable stamping each written page with the current
        #: WAL position (wired by the recovery layer; never pickled)
        self.lsn_provider: Optional[Callable[[], int]] = None
        self._file = None
        self._fd: Optional[int] = None
        self._open_file(truncate=path is None or not os.path.exists(path))

    # -- file plumbing ---------------------------------------------------------

    def _open_file(self, truncate: bool = False) -> None:
        if self._path is None:
            self._file = tempfile.NamedTemporaryFile(prefix="repro-pages-")
        else:
            mode = "w+b" if truncate else "r+b"
            self._file = open(self._path, mode)
        self._fd = self._file.fileno()

    def _ensure_fd(self) -> int:
        if self._fd is None:
            if self._path is None:
                raise StorageError(
                    "file-backed page store is detached and has no path; "
                    "reattach with attach(path)"
                )
            self._open_file(truncate=False)
        return self._fd

    def close(self) -> None:
        """Release the underlying file descriptor."""
        if self._file is not None:
            self._file.close()
        self._file = None
        self._fd = None

    # -- block allocator -------------------------------------------------------

    def _allocate_blocks(self, n_blocks: int) -> int:
        free = self._free_blocks  # ascending, so a run search needs no sort
        if n_blocks == 1 and free:
            return free.pop()
        if n_blocks > 1 and free:
            # the lowest-starting run of at least n_blocks contiguous blocks
            run_start = 0
            for i in range(1, len(free) + 1):
                if i == len(free) or free[i] != free[i - 1] + 1:
                    if i - run_start >= n_blocks:
                        start = free[run_start]
                        del free[run_start:run_start + n_blocks]
                        return start
                    run_start = i
        start = self._block_count
        self._block_count += n_blocks
        return start

    def _release_extent(self, first_block: int, n_blocks: int) -> None:
        for block in range(first_block, first_block + n_blocks):
            if block in self._durable_blocks:
                self._pending_free.append(block)
            else:
                bisect.insort(self._free_blocks, block)

    def _extent_is_durable(self, first_block: int, n_blocks: int) -> bool:
        return any(
            block in self._durable_blocks
            for block in range(first_block, first_block + n_blocks)
        )

    # -- disk interface --------------------------------------------------------

    def allocate_page(self, size: Optional[int] = None) -> Page:
        """Register a fresh page (no blocks written until first flush)."""
        if self._free_page_nos:
            page_no = self._free_page_nos.pop()
        else:
            page_no = self._next_page_no
            self._next_page_no += 1
        page = Page(page_no, size=size if size is not None else self.page_size)
        self.stats.allocations += 1
        return page

    def read_page(self, page_no: int) -> Page:
        """Read a page's current extent and deserialize it."""
        try:
            first_block, _n_blocks, length = self._table[page_no]
        except KeyError:
            raise StorageError(f"no such page {page_no}") from None
        data = os.pread(self._ensure_fd(), length, first_block * BLOCK_SIZE)
        if len(data) != length:
            raise StorageError(
                f"short read of page {page_no}: wanted {length} bytes, "
                f"got {len(data)}"
            )
        self.stats.reads += 1
        return Page.from_bytes(data)

    def write_page(self, page: Page) -> None:
        """Serialize the page, shadow-writing when its extent is durable."""
        if self.lsn_provider is not None:
            page.lsn = self.lsn_provider()
        payload = page.to_bytes()
        n_blocks = max(1, -(-len(payload) // BLOCK_SIZE))
        current = self._table.get(page.page_no)
        if (
            current is not None
            and current[1] >= n_blocks
            and not self._extent_is_durable(current[0], current[1])
        ):
            first_block = current[0]
            self._table[page.page_no] = (first_block, current[1], len(payload))
        else:
            first_block = self._allocate_blocks(n_blocks)
            if current is not None:
                self._release_extent(current[0], current[1])
            self._table[page.page_no] = (first_block, n_blocks, len(payload))
        os.pwrite(self._ensure_fd(), payload, first_block * BLOCK_SIZE)
        page.dirty = False
        self.stats.writes += 1

    def free_page(self, page_no: int) -> None:
        """Release a page's extent and recycle its page number."""
        entry = self._table.pop(page_no, None)
        if entry is not None:
            self._release_extent(entry[0], entry[1])
        self._free_page_nos.append(page_no)
        self.stats.frees += 1

    def sync(self) -> None:
        """fsync the page file (durability barrier before a snapshot)."""
        os.fsync(self._ensure_fd())
        self.stats.syncs += 1

    def page_exists(self, page_no: int) -> bool:
        """True when ``page_no`` has a materialized extent."""
        return page_no in self._table

    @property
    def page_count(self) -> int:
        """Pages with a materialized extent."""
        return len(self._table)

    @property
    def free_page_count(self) -> int:
        """Pages currently on the allocator free list."""
        return len(self._free_page_nos)

    @property
    def block_count(self) -> int:
        """Blocks the file spans (including free blocks)."""
        return self._block_count

    @property
    def free_block_count(self) -> int:
        """Blocks immediately reusable for shadow writes."""
        return len(self._free_blocks)

    # -- checkpoint protocol ---------------------------------------------------

    def commit_checkpoint(self) -> None:
        """Promote the current extent table to the durable image.

        Called after the snapshot referencing the current table has been
        atomically installed: from here on the *previous* image's blocks
        are fair game, and the *current* extents must never be
        overwritten in place.
        """
        durable: set[int] = set()
        for first_block, n_blocks, _length in self._table.values():
            durable.update(range(first_block, first_block + n_blocks))
        self._durable_blocks = durable
        for block in self._pending_free:
            if block not in durable:
                bisect.insort(self._free_blocks, block)
        self._pending_free = []

    # -- pickling / reattachment -----------------------------------------------

    def __getstate__(self):
        if self._path is None:
            raise StorageError(
                "a file-backed page store on an anonymous temp file cannot "
                "be pickled; open it with an explicit path (store_path=...)"
            )
        state = dict(self.__dict__)
        state["_file"] = None
        state["_fd"] = None
        state["lsn_provider"] = None
        # the durable image is exactly what the snapshot describes
        state["_durable_blocks"] = set()
        state["_pending_free"] = []
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._free_blocks.sort()  # older engines kept it in release order

    def attach(self, path: str) -> None:
        """(Re)bind to the page file after a snapshot load.

        Rebuilds the durable-block image from the extent table, returns
        every unreferenced block below the high-water mark to the free
        list, and truncates shadow litter the snapshot never committed.
        """
        self.close()
        self._path = path
        if not os.path.exists(path):
            raise StorageError(f"page file missing: {path}")
        self._open_file(truncate=False)
        durable: set[int] = set()
        for first_block, n_blocks, _length in self._table.values():
            durable.update(range(first_block, first_block + n_blocks))
        self._durable_blocks = durable
        self._free_blocks = [
            block for block in range(self._block_count) if block not in durable
        ]
        self._pending_free = []
        os.ftruncate(self._fd, self._block_count * BLOCK_SIZE)

    def durable_state(self) -> dict:
        """A diagnostic view of the allocator/extent state."""
        return {
            "path": self._path,
            "pages": len(self._table),
            "blocks": self._block_count,
            "free_blocks": len(self._free_blocks),
            "durable_blocks": len(self._durable_blocks),
            "pending_free": len(self._pending_free),
        }

"""Slotted pages and record identifiers.

Pages are fixed-size byte containers organized as classic slotted pages: a
slot directory maps slot numbers to (offset, length) pairs inside the page
body, records are stored back-to-front, and deleting a record leaves a
hole that :meth:`Page.compact` can squeeze out. A record is addressed by a
:class:`Rid` — ``(page_no, slot_no)`` — which stays stable across in-page
compaction (slot numbers are never reassigned while occupied).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.errors import StorageError

__all__ = ["PAGE_SIZE", "SLOT_OVERHEAD", "Rid", "Page"]

#: Default page size in bytes, matching typical EXODUS-era 4KB pages.
PAGE_SIZE = 4096

#: Bookkeeping bytes charged per slot (simulates the slot directory entry).
SLOT_OVERHEAD = 8

#: On-disk page header: page_no, lsn, logical size, slot count.
_PAGE_HEADER = struct.Struct("<QQQI")

#: Per-slot length prefix; -1 marks an empty slot.
_SLOT_LEN = struct.Struct("<q")


@dataclass(frozen=True, order=True)
class Rid:
    """A record identifier: page number plus slot number within the page."""

    page_no: int
    slot_no: int

    def __repr__(self) -> str:
        return f"Rid({self.page_no}, {self.slot_no})"


class Page:
    """A slotted page holding variable-length byte records.

    The implementation stores each record's bytes in a slot list rather
    than packing a real byte array, but it charges space *exactly* as a
    packed page would: every record consumes ``len(record) +
    SLOT_OVERHEAD`` bytes of the page's ``size`` budget, so page-fill and
    page-count behaviour (what the buffer-pool benchmarks measure) match a
    byte-exact implementation.
    """

    __slots__ = ("page_no", "size", "_slots", "_used", "_holes", "dirty", "lsn")

    def __init__(self, page_no: int, size: int = PAGE_SIZE):
        self.page_no = page_no
        self.size = size
        self._slots: list[Optional[bytes]] = []
        self._used = 0
        #: empty slots (an insert reuses the lowest one)
        self._holes = 0
        self.dirty = False
        #: LSN of the last write that touched this page (stamped by the
        #: disk manager on write-back; drives incremental checkpoints).
        self.lsn = 0

    def __getstate__(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state):
        # Tolerate pickles from before the ``lsn`` slot existed.
        self.lsn = 0
        if isinstance(state, tuple):
            plain, slots = state
            for mapping in (plain, slots):
                for key, value in (mapping or {}).items():
                    setattr(self, key, value)
        else:
            for key, value in state.items():
                setattr(self, key, value)
        # pickles from before the hole count existed
        self._holes = self._slots.count(None)

    # -- capacity -------------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        """Bytes currently consumed, including slot overhead."""
        return self._used

    @property
    def free_bytes(self) -> int:
        """Bytes still available for new records."""
        return self.size - self._used

    def fits(self, record: bytes) -> bool:
        """True when ``record`` can be inserted into this page."""
        return len(record) + SLOT_OVERHEAD <= self.free_bytes

    @staticmethod
    def capacity_for(record: bytes, size: int = PAGE_SIZE) -> bool:
        """True when ``record`` could fit in an *empty* page of ``size``."""
        return len(record) + SLOT_OVERHEAD <= size

    # -- record operations ------------------------------------------------------

    def insert(self, record: bytes) -> int:
        """Store ``record`` and return its slot number.

        Reuses the lowest free slot if one exists. Raises
        :class:`StorageError` when the record does not fit.
        """
        if not self.fits(record):
            raise StorageError(
                f"record of {len(record)} bytes does not fit in page "
                f"{self.page_no} ({self.free_bytes} free)"
            )
        self._used += len(record) + SLOT_OVERHEAD
        self.dirty = True
        slots = self._slots
        if self._holes:
            for slot_no, existing in enumerate(slots):
                if existing is None:
                    slots[slot_no] = record
                    self._holes -= 1
                    return slot_no
        slots.append(record)
        return len(slots) - 1

    def read(self, slot_no: int) -> bytes:
        """Return the record in ``slot_no``; raises on empty/unknown slots."""
        record = self._slot(slot_no)
        if record is None:
            raise StorageError(f"slot {slot_no} of page {self.page_no} is empty")
        return record

    def update(self, slot_no: int, record: bytes) -> bool:
        """Replace the record in ``slot_no`` in place.

        Returns True on success; returns False (without modifying the
        page) when the new record no longer fits, in which case the caller
        must relocate the record to another page.
        """
        old = self.read(slot_no)
        delta = len(record) - len(old)
        if delta > self.free_bytes:
            return False
        self._slots[slot_no] = record
        self._used += delta
        self.dirty = True
        return True

    def delete(self, slot_no: int) -> None:
        """Free ``slot_no``; the slot may be reused by later inserts."""
        record = self.read(slot_no)
        self._slots[slot_no] = None
        self._holes += 1
        self._used -= len(record) + SLOT_OVERHEAD
        self.dirty = True

    def compact(self) -> None:
        """Drop trailing empty slots (space accounting is already exact)."""
        while self._slots and self._slots[-1] is None:
            self._slots.pop()
            self._holes -= 1

    # -- binary image (for the file-backed disk) ---------------------------------

    def to_bytes(self) -> bytes:
        """Serialize the page to its on-disk image.

        The image is self-describing: a fixed header followed by a
        length-prefixed entry per slot (``-1`` marks an empty slot), so
        holes and slot numbers survive a round trip exactly.
        """
        parts = [
            _PAGE_HEADER.pack(self.page_no, self.lsn, self.size, len(self._slots))
        ]
        for record in self._slots:
            if record is None:
                parts.append(_SLOT_LEN.pack(-1))
            else:
                parts.append(_SLOT_LEN.pack(len(record)))
                parts.append(record)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Page":
        """Reconstruct a page from its on-disk image."""
        page_no, lsn, size, nslots = _PAGE_HEADER.unpack_from(data, 0)
        page = cls(page_no, size=size)
        page.lsn = lsn
        # a dense page runs this loop once per record on every fault:
        # bound locals, one slice per record, empty slots pre-filled
        unpack = _SLOT_LEN.unpack_from
        width = _SLOT_LEN.size
        offset = _PAGE_HEADER.size
        used = 0
        slots: list[Optional[bytes]] = [None] * nslots
        for slot_no in range(nslots):
            (length,) = unpack(data, offset)
            offset += width
            if length >= 0:
                end = offset + length
                slots[slot_no] = data[offset:end]
                offset = end
                used += length + SLOT_OVERHEAD
        page._slots = slots
        page._used = used
        page._holes = slots.count(None)
        return page

    # -- iteration ---------------------------------------------------------------

    def records(self) -> Iterator[tuple[int, bytes]]:
        """Yield ``(slot_no, record)`` for every occupied slot, in order."""
        for slot_no, record in enumerate(self._slots):
            if record is not None:
                yield slot_no, record

    def record_count(self) -> int:
        """Number of occupied slots."""
        return sum(1 for r in self._slots if r is not None)

    def _slot(self, slot_no: int) -> Optional[bytes]:
        if slot_no < 0 or slot_no >= len(self._slots):
            raise StorageError(
                f"slot {slot_no} out of range for page {self.page_no}"
            )
        return self._slots[slot_no]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Page {self.page_no} records={self.record_count()} "
            f"used={self._used}/{self.size}>"
        )

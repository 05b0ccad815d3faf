"""Unit tests for the file-backed disk manager: block allocation, shadow
writes, persistence across attach, and the page binary image."""

import os
import pickle
import random

import pytest

from repro.errors import StorageError
from repro.storage.disk import BLOCK_SIZE, FileDiskManager
from repro.storage.pages import PAGE_SIZE, Page


class TestPageImage:
    def test_round_trip(self):
        page = Page(7)
        page.insert(b"alpha")
        page.insert(b"beta")
        page.lsn = 42
        copy = Page.from_bytes(page.to_bytes())
        assert copy.page_no == 7
        assert copy.lsn == 42
        assert copy.size == PAGE_SIZE
        assert list(copy.records()) == list(page.records())
        assert copy.used_bytes == page.used_bytes

    def test_holes_survive(self):
        page = Page(0)
        a = page.insert(b"a")
        b = page.insert(b"bb")
        c = page.insert(b"ccc")
        page.delete(b)
        copy = Page.from_bytes(page.to_bytes())
        assert copy.read(a) == b"a"
        assert copy.read(c) == b"ccc"
        with pytest.raises(StorageError):
            copy.read(b)

    def test_oversized_page(self):
        big = b"x" * (PAGE_SIZE * 3)
        page = Page(1, size=len(big) + 64)
        slot = page.insert(big)
        copy = Page.from_bytes(page.to_bytes())
        assert copy.size == page.size
        assert copy.read(slot) == big


def _lowest_run(free: list[int], n_blocks: int):
    """The block a run search must pick: the lowest start of
    ``n_blocks`` contiguous free blocks (None when no run is long enough)."""
    blocks = set(free)
    for start in sorted(free):
        if all(block in blocks for block in range(start, start + n_blocks)):
            return start
    return None


class TestFileDisk:
    def test_write_read_round_trip(self, tmp_path):
        disk = FileDiskManager(str(tmp_path / "pages.data"))
        page = disk.allocate_page()
        page.insert(b"hello")
        disk.write_page(page)
        loaded = disk.read_page(page.page_no)
        assert loaded is not page  # real deserialization, not identity
        assert [r for _, r in loaded.records()] == [b"hello"]

    def test_anonymous_temp_file(self):
        disk = FileDiskManager()
        page = disk.allocate_page()
        page.insert(b"tmp")
        disk.write_page(page)
        assert disk.read_page(page.page_no).read(0) == b"tmp"
        disk.close()

    def test_allocation_writes_nothing(self, tmp_path):
        disk = FileDiskManager(str(tmp_path / "pages.data"))
        disk.allocate_page()
        assert disk.stats.allocations == 1
        assert disk.stats.writes == 0
        assert disk.block_count == 0

    def test_read_unknown_page(self, tmp_path):
        disk = FileDiskManager(str(tmp_path / "pages.data"))
        with pytest.raises(StorageError):
            disk.read_page(9)
        page = disk.allocate_page()
        with pytest.raises(StorageError):
            disk.read_page(page.page_no)  # allocated but never written

    def test_rewrite_in_place_before_checkpoint(self, tmp_path):
        disk = FileDiskManager(str(tmp_path / "pages.data"))
        page = disk.allocate_page()
        page.insert(b"v1")
        disk.write_page(page)
        first = disk.block_count
        page.insert(b"v2")
        disk.write_page(page)
        # no durable image yet: the extent is rewritten in place
        assert disk.block_count == first

    def test_shadow_write_after_checkpoint(self, tmp_path):
        disk = FileDiskManager(str(tmp_path / "pages.data"))
        page = disk.allocate_page()
        page.insert(b"committed")
        disk.write_page(page)
        disk.commit_checkpoint()
        blocks = disk.block_count
        page.insert(b"shadowed")
        disk.write_page(page)
        # durable extent must not be overwritten: a fresh block is used
        assert disk.block_count == blocks + 1
        state = disk.durable_state()
        assert state["pending_free"] == 1  # old block quarantined
        disk.commit_checkpoint()
        assert disk.durable_state()["pending_free"] == 0
        assert disk.free_block_count == 1  # recycled after the commit

    def test_free_page_recycles_number_and_blocks(self, tmp_path):
        disk = FileDiskManager(str(tmp_path / "pages.data"))
        page = disk.allocate_page()
        page.insert(b"gone")
        disk.write_page(page)
        disk.free_page(page.page_no)
        assert disk.stats.frees == 1
        assert not disk.page_exists(page.page_no)
        assert disk.free_page_count == 1
        replacement = disk.allocate_page()
        assert replacement.page_no == page.page_no
        replacement.insert(b"back")
        disk.write_page(replacement)
        # the freed (non-durable) block was reused, not appended
        assert disk.block_count == 1

    def test_multi_block_extent(self, tmp_path):
        disk = FileDiskManager(str(tmp_path / "pages.data"))
        big = b"y" * (BLOCK_SIZE * 2)
        page = disk.allocate_page(size=len(big) + 64)
        page.insert(big)
        disk.write_page(page)
        assert disk.block_count >= 3  # header + payload spans 3 blocks
        assert disk.read_page(page.page_no).read(0) == big

    def test_sync_fsyncs(self, tmp_path):
        disk = FileDiskManager(str(tmp_path / "pages.data"))
        disk.sync()
        assert disk.stats.syncs == 1

    def test_lsn_provider_stamps_writes(self, tmp_path):
        disk = FileDiskManager(str(tmp_path / "pages.data"))
        disk.lsn_provider = lambda: 17
        page = disk.allocate_page()
        page.insert(b"stamped")
        disk.write_page(page)
        assert disk.read_page(page.page_no).lsn == 17

    def test_pickle_requires_a_path(self):
        disk = FileDiskManager()
        with pytest.raises(StorageError):
            pickle.dumps(disk)
        disk.close()

    def test_attach_round_trip(self, tmp_path):
        path = str(tmp_path / "pages.data")
        disk = FileDiskManager(path)
        page = disk.allocate_page()
        page.insert(b"durable")
        disk.write_page(page)
        disk.sync()
        blob = pickle.dumps(disk)
        disk.close()

        revived = pickle.loads(blob)
        revived.attach(path)
        assert revived.read_page(page.page_no).read(0) == b"durable"
        revived.close()

    def test_attach_frees_shadow_litter(self, tmp_path):
        """Blocks written after the pickled table image are reclaimed."""
        path = str(tmp_path / "pages.data")
        disk = FileDiskManager(path)
        page = disk.allocate_page()
        page.insert(b"v1")
        disk.write_page(page)
        disk.commit_checkpoint()
        blob = pickle.dumps(disk)  # snapshot references block 0 only
        # post-snapshot shadow write lands in block 1 — litter
        page.insert(b"v2")
        disk.write_page(page)
        assert disk.block_count == 2
        disk.close()

        revived = pickle.loads(blob)
        revived.attach(path)
        assert revived.read_page(page.page_no).read(0) == b"v1"
        assert os.path.getsize(path) == revived.block_count * BLOCK_SIZE
        revived.close()

    def test_attach_missing_file(self, tmp_path):
        path = str(tmp_path / "pages.data")
        disk = FileDiskManager(path)
        blob = pickle.dumps(disk)
        disk.close()
        os.unlink(path)
        revived = pickle.loads(blob)
        with pytest.raises(StorageError):
            revived.attach(path)

    def test_free_list_stays_ascending_and_runs_start_lowest(self, tmp_path):
        """Releases (direct and through the checkpoint hand-over) keep the
        free list sorted, and every multi-block allocation takes the
        lowest-starting run that fits, as a search over the sorted list
        would."""
        disk = FileDiskManager(str(tmp_path / "pages.data"))
        rng = random.Random(33)
        pages: dict[int, Page] = {}
        runs_checked = 0
        for _step in range(600):
            draw = rng.random()
            if draw < 0.1:
                disk.commit_checkpoint()
            elif draw < 0.25 and pages:
                page_no = rng.choice(sorted(pages))
                del pages[page_no]
                disk.free_page(page_no)
            else:
                if pages and draw < 0.6:
                    page = pages[rng.choice(sorted(pages))]
                else:
                    size = BLOCK_SIZE * rng.randint(1, 3)
                    page = disk.allocate_page(size=size)
                    pages[page.page_no] = page
                page.compact()
                for slot_no, _data in list(page.records()):
                    page.delete(slot_no)
                page.insert(b"r" * rng.randint(1, page.size - 64))
                n_blocks = -(-len(page.to_bytes()) // BLOCK_SIZE)
                free = list(disk._free_blocks)
                end = disk.block_count
                before = disk._table.get(page.page_no)
                disk.write_page(page)
                first_block = disk._table[page.page_no][0]
                if before is None or first_block != before[0]:  # allocated
                    if n_blocks == 1:
                        expected = free[-1] if free else end
                    else:
                        expected = _lowest_run(free, n_blocks)
                        expected = end if expected is None else expected
                        runs_checked += expected != end
                    assert first_block == expected
            assert disk._free_blocks == sorted(disk._free_blocks)
            assert len(set(disk._free_blocks)) == len(disk._free_blocks)
        assert runs_checked > 20  # the free list really was searched

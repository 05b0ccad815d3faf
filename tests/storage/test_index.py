"""Unit tests for the hash index and the B+-tree."""

import random

import pytest

from repro.errors import StorageError
from repro.storage.index import BTreeIndex, HashIndex


class TestHashIndex:
    def test_insert_search(self):
        index = HashIndex()
        index.insert("a", 1)
        index.insert("a", 2)
        index.insert("b", 3)
        assert index.search("a") == [1, 2]
        assert index.search("b") == [3]
        assert index.search("c") == []

    def test_duplicate_pair_idempotent(self):
        index = HashIndex()
        index.insert("a", 1)
        index.insert("a", 1)
        assert len(index) == 1

    def test_delete(self):
        index = HashIndex()
        index.insert("a", 1)
        assert index.delete("a", 1)
        assert not index.delete("a", 1)
        assert index.search("a") == []
        assert "a" not in index

    def test_len_counts_pairs(self):
        index = HashIndex()
        index.insert("a", 1)
        index.insert("a", 2)
        index.insert("b", 1)
        assert len(index) == 3

    def test_no_range_support(self):
        assert not HashIndex.supports_range

    def test_duplicate_keys_keep_a_sorted_bucket(self):
        index = HashIndex()
        for oid in (7, 3, 9, 1, 5):
            index.insert("k", oid)
        assert index.search("k") == [1, 3, 5, 7, 9]
        assert index._buckets["k"] == [1, 3, 5, 7, 9]
        index.insert("u", 4)
        assert index._buckets["u"] == [4]  # a unique key is a one-element list
        assert len(index) == 6

    def test_idempotent_insert_into_a_list_bucket(self):
        index = HashIndex()
        for oid in (2, 1, 3, 2, 1, 3):
            index.insert("k", oid)
        assert index.search("k") == [1, 2, 3]
        assert len(index) == 3

    def test_delete_of_missing_pairs(self):
        index = HashIndex()
        index.insert("k", 2)
        index.insert("k", 4)
        assert not index.delete("k", 1)  # below every bucket member
        assert not index.delete("k", 3)  # between members
        assert not index.delete("k", 5)  # above every bucket member
        assert not index.delete("absent", 2)
        assert len(index) == 2
        assert index.delete("k", 2)
        assert index.search("k") == [4]
        assert index.delete("k", 4)
        assert "k" not in index
        assert len(index) == 0

    def test_search_returns_a_copy(self):
        index = HashIndex()
        index.insert("k", 1)
        found = index.search("k")
        found.append(99)
        assert index.search("k") == [1]

    def test_set_buckets_of_older_pickles_load_as_lists(self):
        import pickle

        index = HashIndex("old")
        index.insert("k", 1)
        state = {"name": "old", "_buckets": {"k": {9, 1, 5}}, "_entries": 3}
        loaded = HashIndex.__new__(HashIndex)
        loaded.__setstate__(state)
        assert loaded._buckets == {"k": [1, 5, 9]}
        assert loaded.search("k") == [1, 5, 9]
        loaded.insert("k", 3)
        assert loaded.search("k") == [1, 3, 5, 9]
        assert pickle.loads(pickle.dumps(index)).search("k") == [1]


class TestBTreeBasics:
    def test_insert_search(self):
        tree = BTreeIndex(order=4)
        for key in [5, 3, 8, 1, 9, 2, 7]:
            tree.insert(key, key * 10)
        assert tree.search(5) == [50]
        assert tree.search(42) == []

    def test_duplicates_per_key(self):
        tree = BTreeIndex(order=4)
        tree.insert("k", 1)
        tree.insert("k", 2)
        tree.insert("k", 1)
        assert tree.search("k") == [1, 2]
        assert len(tree) == 2

    def test_keys_sorted(self):
        tree = BTreeIndex(order=4)
        data = list(range(100))
        random.Random(1).shuffle(data)
        for key in data:
            tree.insert(key, key)
        assert tree.keys() == list(range(100))

    def test_height_grows(self):
        tree = BTreeIndex(order=4)
        assert tree.height() == 1
        for key in range(100):
            tree.insert(key, key)
        assert tree.height() > 1
        tree.check_invariants()

    def test_order_minimum(self):
        with pytest.raises(StorageError):
            BTreeIndex(order=2)


class TestBTreeRangeScan:
    def make_tree(self):
        tree = BTreeIndex(order=4)
        for key in range(0, 100, 2):  # evens 0..98
            tree.insert(key, key + 1000)
        return tree

    def test_closed_range(self):
        tree = self.make_tree()
        keys = [k for k, _ in tree.range_scan(10, 20)]
        assert keys == [10, 12, 14, 16, 18, 20]

    def test_open_ended_low(self):
        tree = self.make_tree()
        keys = [k for k, _ in tree.range_scan(None, 6)]
        assert keys == [0, 2, 4, 6]

    def test_open_ended_high(self):
        tree = self.make_tree()
        keys = [k for k, _ in tree.range_scan(94, None)]
        assert keys == [94, 96, 98]

    def test_exclusive_bounds(self):
        tree = self.make_tree()
        keys = [k for k, _ in tree.range_scan(10, 20, include_low=False,
                                              include_high=False)]
        assert keys == [12, 14, 16, 18]

    def test_bounds_between_keys(self):
        tree = self.make_tree()
        keys = [k for k, _ in tree.range_scan(11, 19)]
        assert keys == [12, 14, 16, 18]

    def test_full_scan(self):
        tree = self.make_tree()
        keys = [k for k, _ in tree.range_scan()]
        assert keys == list(range(0, 100, 2))

    def test_empty_range(self):
        tree = self.make_tree()
        assert list(tree.range_scan(1000, 2000)) == []


class TestBTreeDeletion:
    def test_delete_simple(self):
        tree = BTreeIndex(order=4)
        tree.insert(1, 10)
        assert tree.delete(1, 10)
        assert not tree.delete(1, 10)
        assert tree.search(1) == []
        tree.check_invariants()

    def test_delete_one_of_many_oids(self):
        tree = BTreeIndex(order=4)
        tree.insert(1, 10)
        tree.insert(1, 20)
        tree.delete(1, 10)
        assert tree.search(1) == [20]
        assert 1 in tree

    def test_delete_all_keys_ascending(self):
        tree = BTreeIndex(order=4)
        for key in range(64):
            tree.insert(key, key)
        for key in range(64):
            assert tree.delete(key, key)
            tree.check_invariants()
        assert len(tree) == 0
        assert tree.keys() == []

    def test_delete_all_keys_descending(self):
        tree = BTreeIndex(order=4)
        for key in range(64):
            tree.insert(key, key)
        for key in reversed(range(64)):
            assert tree.delete(key, key)
            tree.check_invariants()
        assert tree.keys() == []

    def test_delete_random_order(self):
        tree = BTreeIndex(order=4)
        keys = list(range(200))
        for key in keys:
            tree.insert(key, key)
        random.Random(7).shuffle(keys)
        remaining = set(range(200))
        for key in keys:
            assert tree.delete(key, key)
            remaining.discard(key)
            tree.check_invariants()
            if len(remaining) % 50 == 0:
                assert tree.keys() == sorted(remaining)

    def test_interleaved_insert_delete(self):
        tree = BTreeIndex(order=4)
        rng = random.Random(3)
        live: dict[int, set[int]] = {}
        for step in range(1000):
            key = rng.randint(0, 50)
            if rng.random() < 0.6:
                oid = rng.randint(1, 5)
                tree.insert(key, oid)
                live.setdefault(key, set()).add(oid)
            else:
                oids = live.get(key)
                if oids:
                    oid = next(iter(oids))
                    assert tree.delete(key, oid)
                    oids.discard(oid)
                    if not oids:
                        del live[key]
            if step % 100 == 0:
                tree.check_invariants()
        tree.check_invariants()
        for key, oids in live.items():
            assert tree.search(key) == sorted(oids)

    def test_delete_missing_key(self):
        tree = BTreeIndex(order=4)
        tree.insert(1, 1)
        assert not tree.delete(99, 1)
        assert not tree.delete(1, 99)


class TestBTreeStringKeys:
    def test_strings(self):
        tree = BTreeIndex(order=4)
        words = ["pear", "apple", "fig", "plum", "kiwi", "date", "lime"]
        for index, word in enumerate(words):
            tree.insert(word, index)
        assert tree.keys() == sorted(words)
        assert [k for k, _ in tree.range_scan("d", "l")] == ["date", "fig", "kiwi"]

"""Access-method index structures: a hash index and a B+-tree.

Indexes map *key values* to sets of OIDs. The EXCESS optimizer (paper
§4.1.3) selects an index through the tabular access-method information in
:mod:`repro.storage.access`; equality predicates can use either structure,
range predicates only the B+-tree.

Keys must be mutually comparable within one index (ints/floats, strings,
or tuples thereof). Null keys are never indexed — EXCESS comparisons with
null are never true, so an unindexed null can never satisfy an indexed
predicate.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator, Optional

from repro.errors import StorageError

__all__ = ["HashIndex", "BTreeIndex"]


class HashIndex:
    """An equality-only index: key → its OIDs, ascending.

    A bucket is the OID itself when the key has one object (the common
    case for a key like an account id, which then costs no list), else a
    sorted OID list of two or more, like a B+-tree leaf entry, so
    :meth:`search` copies the bucket instead of sorting it per probe.
    """

    kind = "hash"
    supports_range = False

    def __init__(self, name: str = ""):
        self.name = name
        self._buckets: dict[Any, Any] = {}
        self._entries = 0

    def __setstate__(self, state: dict) -> None:
        # older snapshots hold set buckets, and lists for single OIDs
        buckets = state["_buckets"]
        for key, oids in buckets.items():
            if oids.__class__ is not int:
                oids = sorted(oids)
                buckets[key] = oids[0] if len(oids) == 1 else oids
        self.__dict__.update(state)

    def insert(self, key: Any, oid: int) -> None:
        """Add ``(key, oid)``; duplicate pairs are idempotent."""
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = oid
        elif bucket.__class__ is int:
            if bucket == oid:
                return
            self._buckets[key] = [bucket, oid] if bucket < oid else [oid, bucket]
        else:
            index = bisect.bisect_left(bucket, oid)
            if index < len(bucket) and bucket[index] == oid:
                return
            bucket.insert(index, oid)
        self._entries += 1

    def delete(self, key: Any, oid: int) -> bool:
        """Remove ``(key, oid)``; returns True when the pair existed."""
        bucket = self._buckets.get(key)
        if bucket is None:
            return False
        if bucket.__class__ is int:
            if bucket != oid:
                return False
            del self._buckets[key]
        else:
            index = bisect.bisect_left(bucket, oid)
            if index == len(bucket) or bucket[index] != oid:
                return False
            del bucket[index]
            if len(bucket) == 1:
                self._buckets[key] = bucket[0]
        self._entries -= 1
        return True

    def search(self, key: Any) -> list[int]:
        """OIDs whose indexed key equals ``key``, ascending."""
        bucket = self._buckets.get(key)
        if bucket is None:
            return []
        return [bucket] if bucket.__class__ is int else list(bucket)

    def keys(self) -> list[Any]:
        """All distinct indexed keys (unordered structure; sorted here for
        deterministic output)."""
        return sorted(self._buckets, key=lambda k: (str(type(k)), k))

    def __len__(self) -> int:
        return self._entries

    def __contains__(self, key: Any) -> bool:
        return key in self._buckets


class _BTreeNode:
    """One node of the B+-tree.

    Leaves hold ``keys[i] → values[i]`` (a sorted list of OIDs per key,
    like a hash bucket) and are chained through ``next_leaf`` for range
    scans. Internal nodes hold separator ``keys`` and ``len(keys) + 1``
    children.
    """

    __slots__ = ("leaf", "keys", "values", "children", "next_leaf")

    def __setstate__(self, state: tuple) -> None:
        _dict, slots = state
        for name, value in slots.items():
            setattr(self, name, value)
        if self.leaf:
            # older snapshots hold OID lists in insertion order
            self.values = [sorted(oids) for oids in self.values]

    def __init__(self, leaf: bool):
        self.leaf = leaf
        self.keys: list[Any] = []
        self.values: list[list[int]] = []  # leaves only
        self.children: list[_BTreeNode] = []  # internal only
        self.next_leaf: Optional[_BTreeNode] = None  # leaves only


class BTreeIndex:
    """A B+-tree supporting equality search, range scans, and deletion.

    ``order`` is the maximum number of keys per node (≥ 3). The tree keeps
    the classic invariants: every node except the root holds at least
    ``order // 2`` keys, all leaves sit at the same depth, and leaf keys
    appear in strictly increasing order across the leaf chain — properties
    the hypothesis test-suite checks directly via :meth:`check_invariants`.
    """

    kind = "btree"
    supports_range = True

    def __init__(self, name: str = "", order: int = 32):
        if order < 3:
            raise StorageError(f"btree order must be >= 3, got {order}")
        self.name = name
        self.order = order
        self._root = _BTreeNode(leaf=True)
        self._entries = 0

    # -- search ------------------------------------------------------------------

    def _find_leaf(self, key: Any) -> _BTreeNode:
        node = self._root
        while not node.leaf:
            index = bisect.bisect_right(node.keys, key)
            node = node.children[index]
        return node

    def search(self, key: Any) -> list[int]:
        """OIDs whose indexed key equals ``key``."""
        leaf = self._find_leaf(key)
        index = bisect.bisect_left(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            return list(leaf.values[index])
        return []

    def range_scan(
        self,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Iterator[tuple[Any, int]]:
        """Yield ``(key, oid)`` pairs with ``low <= key <= high`` in key
        order; either bound may be ``None`` for an open end."""
        if low is None:
            node: Optional[_BTreeNode] = self._leftmost_leaf()
            start = 0
        else:
            node = self._find_leaf(low)
            start = (
                bisect.bisect_left(node.keys, low)
                if include_low
                else bisect.bisect_right(node.keys, low)
            )
        while node is not None:
            for i in range(start, len(node.keys)):
                key = node.keys[i]
                if high is not None:
                    if include_high and key > high:
                        return
                    if not include_high and key >= high:
                        return
                for oid in list(node.values[i]):
                    yield key, oid
            node = node.next_leaf
            start = 0

    def _leftmost_leaf(self) -> _BTreeNode:
        node = self._root
        while not node.leaf:
            node = node.children[0]
        return node

    # -- insertion -----------------------------------------------------------------

    def insert(self, key: Any, oid: int) -> None:
        """Add ``(key, oid)``; duplicate pairs are idempotent."""
        root = self._root
        if len(root.keys) >= self.order:
            new_root = _BTreeNode(leaf=False)
            new_root.children.append(root)
            self._split_child(new_root, 0)
            self._root = new_root
        self._insert_nonfull(self._root, key, oid)

    def _insert_nonfull(self, node: _BTreeNode, key: Any, oid: int) -> None:
        while not node.leaf:
            index = bisect.bisect_right(node.keys, key)
            child = node.children[index]
            if len(child.keys) >= self.order:
                self._split_child(node, index)
                # keys equal to the separator live in the right sibling
                # (leaf splits put the separator key there)
                if key >= node.keys[index]:
                    index += 1
                child = node.children[index]
            node = child
        index = bisect.bisect_left(node.keys, key)
        if index < len(node.keys) and node.keys[index] == key:
            bucket = node.values[index]
            position = bisect.bisect_left(bucket, oid)
            if position == len(bucket) or bucket[position] != oid:
                bucket.insert(position, oid)
                self._entries += 1
            return
        node.keys.insert(index, key)
        node.values.insert(index, [oid])
        self._entries += 1

    def _split_child(self, parent: _BTreeNode, index: int) -> None:
        child = parent.children[index]
        mid = len(child.keys) // 2
        sibling = _BTreeNode(leaf=child.leaf)
        if child.leaf:
            sibling.keys = child.keys[mid:]
            sibling.values = child.values[mid:]
            child.keys = child.keys[:mid]
            child.values = child.values[:mid]
            sibling.next_leaf = child.next_leaf
            child.next_leaf = sibling
            separator = sibling.keys[0]
        else:
            separator = child.keys[mid]
            sibling.keys = child.keys[mid + 1 :]
            sibling.children = child.children[mid + 1 :]
            child.keys = child.keys[:mid]
            child.children = child.children[: mid + 1]
        parent.keys.insert(index, separator)
        parent.children.insert(index + 1, sibling)

    # -- deletion -------------------------------------------------------------------

    def delete(self, key: Any, oid: int) -> bool:
        """Remove ``(key, oid)``; returns True when the pair existed."""
        leaf = self._find_leaf(key)
        index = bisect.bisect_left(leaf.keys, key)
        if index >= len(leaf.keys) or leaf.keys[index] != key:
            return False
        bucket = leaf.values[index]
        position = bisect.bisect_left(bucket, oid)
        if position == len(bucket) or bucket[position] != oid:
            return False
        del bucket[position]
        self._entries -= 1
        if bucket:
            return True
        # The key is now empty: remove it and rebalance bottom-up.
        self._delete_key(self._root, key)
        if not self._root.leaf and len(self._root.children) == 1:
            self._root = self._root.children[0]
        return True

    def _min_keys(self) -> int:
        # Splitting a full internal node of `order` keys promotes one key
        # and leaves floor((order-1)/2) on the smaller side, so that is
        # the minimum legal occupancy for non-root nodes.
        return (self.order - 1) // 2

    def _delete_key(self, node: _BTreeNode, key: Any) -> None:
        if node.leaf:
            index = bisect.bisect_left(node.keys, key)
            if index < len(node.keys) and node.keys[index] == key:
                node.keys.pop(index)
                node.values.pop(index)
            return
        index = bisect.bisect_right(node.keys, key)
        child = node.children[index]
        self._delete_key(child, key)
        if self._underfull(child):
            self._rebalance(node, index)

    def _underfull(self, node: _BTreeNode) -> bool:
        return len(node.keys) < self._min_keys()

    def _rebalance(self, parent: _BTreeNode, index: int) -> None:
        left = parent.children[index - 1] if index > 0 else None
        right = (
            parent.children[index + 1] if index + 1 < len(parent.children) else None
        )
        if left is not None and len(left.keys) > self._min_keys():
            self._borrow_from_left(parent, index)
        elif right is not None and len(right.keys) > self._min_keys():
            self._borrow_from_right(parent, index)
        elif left is not None:
            self._merge(parent, index - 1)
        elif right is not None:
            self._merge(parent, index)

    def _borrow_from_left(self, parent: _BTreeNode, index: int) -> None:
        child = parent.children[index]
        left = parent.children[index - 1]
        if child.leaf:
            child.keys.insert(0, left.keys.pop())
            child.values.insert(0, left.values.pop())
            parent.keys[index - 1] = child.keys[0]
        else:
            child.keys.insert(0, parent.keys[index - 1])
            parent.keys[index - 1] = left.keys.pop()
            child.children.insert(0, left.children.pop())

    def _borrow_from_right(self, parent: _BTreeNode, index: int) -> None:
        child = parent.children[index]
        right = parent.children[index + 1]
        if child.leaf:
            child.keys.append(right.keys.pop(0))
            child.values.append(right.values.pop(0))
            parent.keys[index] = right.keys[0]
        else:
            child.keys.append(parent.keys[index])
            parent.keys[index] = right.keys.pop(0)
            child.children.append(right.children.pop(0))

    def _merge(self, parent: _BTreeNode, index: int) -> None:
        """Merge ``children[index + 1]`` into ``children[index]``."""
        left = parent.children[index]
        right = parent.children[index + 1]
        if left.leaf:
            left.keys.extend(right.keys)
            left.values.extend(right.values)
            left.next_leaf = right.next_leaf
        else:
            left.keys.append(parent.keys[index])
            left.keys.extend(right.keys)
            left.children.extend(right.children)
        parent.keys.pop(index)
        parent.children.pop(index + 1)

    # -- introspection ------------------------------------------------------------------

    def keys(self) -> list[Any]:
        """All distinct keys in ascending order."""
        out: list[Any] = []
        node: Optional[_BTreeNode] = self._leftmost_leaf()
        while node is not None:
            out.extend(node.keys)
            node = node.next_leaf
        return out

    def __len__(self) -> int:
        return self._entries

    def __contains__(self, key: Any) -> bool:
        return bool(self.search(key))

    def height(self) -> int:
        """Tree height (1 for a lone leaf root)."""
        height = 1
        node = self._root
        while not node.leaf:
            height += 1
            node = node.children[0]
        return height

    def check_invariants(self) -> None:
        """Verify structural invariants; raises :class:`StorageError` on
        any violation. Used by the property-based test-suite."""
        leaf_depths: set[int] = set()

        def walk(node: _BTreeNode, depth: int, low: Any, high: Any) -> None:
            if node is not self._root and len(node.keys) < self._min_keys():
                raise StorageError(f"underfull node at depth {depth}")
            if len(node.keys) > self.order:
                raise StorageError(f"overfull node at depth {depth}")
            if any(
                node.keys[i] >= node.keys[i + 1] for i in range(len(node.keys) - 1)
            ):
                raise StorageError("keys not strictly increasing within node")
            for key in node.keys:
                if low is not None and key < low:
                    raise StorageError("key below subtree lower bound")
                if high is not None and key >= high:
                    raise StorageError("key above subtree upper bound")
            if node.leaf:
                leaf_depths.add(depth)
                if len(node.keys) != len(node.values):
                    raise StorageError("leaf keys/values length mismatch")
                if any(not v for v in node.values):
                    raise StorageError("empty OID list left in leaf")
                if any(v != sorted(set(v)) for v in node.values):
                    raise StorageError("leaf OID list not sorted and unique")
                return
            if len(node.children) != len(node.keys) + 1:
                raise StorageError("internal child count mismatch")
            bounds = [low] + list(node.keys) + [high]
            for i, child in enumerate(node.children):
                walk(child, depth + 1, bounds[i], bounds[i + 1])

        walk(self._root, 0, None, None)
        if len(leaf_depths) > 1:
            raise StorageError(f"leaves at unequal depths: {sorted(leaf_depths)}")
        chained = []
        node: Optional[_BTreeNode] = self._leftmost_leaf()
        while node is not None:
            chained.extend(node.keys)
            node = node.next_leaf
        if chained != sorted(chained):
            raise StorageError("leaf chain not in key order")
        if sum(1 for _ in chained) != len(set(chained)):
            raise StorageError("duplicate keys across leaves")
        total = 0
        node = self._leftmost_leaf()
        while node is not None:
            total += sum(len(v) for v in node.values)
            node = node.next_leaf
        if total != self._entries:
            raise StorageError(
                f"entry count mismatch: counted {total}, recorded {self._entries}"
            )

"""Runtime values for the EXTRA data model.

The value layer mirrors the type layer of :mod:`repro.core.types`:

===================  =======================================
Type                 Runtime representation
===================  =======================================
base types / ADTs    plain Python values (int, float, str, bool, ADT instances)
tuple types          :class:`TupleInstance`
set types            :class:`SetInstance`
array types          :class:`ArrayInstance`
ref / own ref slots  :class:`Ref` (an OID wrapper) or :data:`NULL`
own slots            the component value itself, embedded
null                 :data:`NULL`
===================  =======================================

``own`` components follow *value* semantics: they are copied on
assignment (:func:`copy_value`), compared by recursive value equality
(:func:`value_equal`, the [Banc86] notion), and have no identity.
``ref``/``own ref`` slots hold :class:`Ref` values compared only with the
``is`` / ``isnot`` object-equality operators of EXCESS.

Instances check slot conformance on every write, so a value object can
never hold data that violates its type; identity, ownership, and
referential integrity are enforced one layer up, in
:mod:`repro.core.integrity`.
"""

from __future__ import annotations

import copy as _copy
from typing import Any, Iterator, Optional

from repro.core.types import (
    ArrayType,
    ComponentSpec,
    Semantics,
    SetType,
    TupleType,
)
from repro.errors import EvaluationError, TypeSystemError

__all__ = [
    "NULL",
    "NullValue",
    "Ref",
    "TupleInstance",
    "SetInstance",
    "ArrayInstance",
    "check_slot",
    "copy_value",
    "value_equal",
    "PLAIN_SCALARS",
    "is_null",
]


class NullValue:
    """The singleton null value.

    Any slot may be null (references, per GEM, become null when their
    target is deleted; scalar attributes may simply be unknown). Nulls
    propagate through expressions and fail all comparisons, QUEL-style.
    """

    _instance: Optional["NullValue"] = None

    def __new__(cls) -> "NullValue":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NULL"

    def __bool__(self) -> bool:
        return False

    def __deepcopy__(self, memo: dict) -> "NullValue":
        return self

    def __copy__(self) -> "NullValue":
        return self


#: The one null value.
NULL = NullValue()


def is_null(value: Any) -> bool:
    """True when ``value`` is the EXTRA null."""
    return value is NULL


class Ref:
    """A reference to a first-class object, identified by OID.

    ``Ref`` values are opaque to EXCESS users: the only comparisons are
    ``is`` / ``isnot`` (object equality), and path traversal dereferences
    them implicitly. Immutable and hashable by OID.

    A ``Ref`` pickles as the state dict ``{"oid": n}``, the form older
    snapshots and pages hold, and :meth:`__setstate__` reads that dict.
    A generated slots ``__setstate__`` would instead zip the dict's
    *keys* onto the fields and load ``oid == "oid"`` without an error.
    """

    __slots__ = ("oid",)

    def __init__(self, oid: int):
        if oid < 1:
            raise TypeSystemError(f"invalid oid {oid} in reference")
        object.__setattr__(self, "oid", oid)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a Ref")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a Ref")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Ref:
            return self.oid == other.oid  # type: ignore[attr-defined]
        return NotImplemented

    def __hash__(self) -> int:
        # a 1-tuple hash, as the dataclass form had: hash-ordered
        # containers of Refs keep the iteration order they always had
        return hash((self.oid,))

    def __getstate__(self) -> dict:
        return {"oid": self.oid}

    def __setstate__(self, state: dict) -> None:
        object.__setattr__(self, "oid", state["oid"])

    def __repr__(self) -> str:
        return f"Ref({self.oid})"


def check_slot(spec: ComponentSpec, value: Any) -> Any:
    """Validate and canonicalize ``value`` for a slot described by ``spec``.

    * Null conforms to every slot.
    * ``own`` slots take the component value itself (never a ``Ref``).
    * ``ref`` / ``own ref`` slots take a :class:`Ref`.

    Returns the canonical stored form; raises :class:`TypeSystemError` on
    any mismatch.
    """
    if value is NULL:
        return NULL
    if spec.semantics is Semantics.OWN:
        if isinstance(value, Ref):
            raise TypeSystemError(
                f"own slot of type {spec.type} cannot hold a reference"
            )
        return spec.type.coerce(value)
    if not isinstance(value, Ref):
        raise TypeSystemError(
            f"{spec.semantics} slot requires a reference, got {value!r}"
        )
    return value


class TupleInstance:
    """An instance of a tuple (or schema) type.

    When the instance is a first-class object, :attr:`oid` is set by the
    object table at registration time; pure ``own`` values keep
    ``oid is None`` — they lack identity.
    """

    __slots__ = ("type", "oid", "_slots")

    def __init__(self, tuple_type: TupleType, values: Optional[dict[str, Any]] = None):
        self.type = tuple_type
        self.oid: Optional[int] = None
        # own collection attributes start as empty collections (a tuple
        # always *has* its kids set, it just may be empty); everything
        # else starts null.
        self._slots: dict[str, Any] = {}
        for name, spec in tuple_type:
            if spec.semantics is Semantics.OWN and isinstance(spec.type, SetType):
                self._slots[name] = SetInstance(spec.type)
            elif spec.semantics is Semantics.OWN and isinstance(spec.type, ArrayType):
                self._slots[name] = ArrayInstance(spec.type)
            else:
                self._slots[name] = NULL
        if values:
            for name, value in values.items():
                self.set(name, value)

    def get(self, name: str) -> Any:
        """Read attribute ``name`` (raises for unknown attributes)."""
        if name not in self._slots:
            raise TypeSystemError(
                f"type {self.type.describe()} has no attribute {name!r}"
            )
        return self._slots[name]

    def set(self, name: str, value: Any) -> None:
        """Write attribute ``name``, enforcing slot conformance.

        Writing an ``own`` slot stores a private copy of the value (value
        semantics); writing a reference slot stores the :class:`Ref` as is.
        """
        spec = self.type.attribute(name)
        canonical = check_slot(spec, value)
        if spec.semantics is Semantics.OWN and canonical is not NULL:
            canonical = copy_value(canonical)
        self._slots[name] = canonical

    def attributes(self) -> dict[str, Any]:
        """A shallow snapshot of attribute name → stored slot value."""
        return dict(self._slots)

    def __repr__(self) -> str:
        ident = f" oid={self.oid}" if self.oid is not None else ""
        body = ", ".join(f"{k}={v!r}" for k, v in self._slots.items())
        return f"<{self.type.tag}{ident} {body}>"


class SetInstance:
    """An instance of a set type.

    Members are stored slot values: embedded values for ``own`` element
    sets, :class:`Ref` values for ``ref`` / ``own ref`` element sets.
    Duplicates are rejected — by OID for reference sets and by recursive
    value equality for value sets. An optional **key** (a tuple of
    attribute names, paper §2.2) may be attached to the instance at
    creation; uniqueness of key values is enforced by the integrity layer,
    which can see through references.

    The member container depends on the element semantics:

    * ``ref`` / ``own ref`` elements live in one insertion-ordered
      ``{oid: Ref}`` dict, so insert, remove and membership are O(1);
    * ``own`` elements live in a list searched with value equality.

    Either way iteration follows insertion order minus removals. A set
    pickles its members as a list (the container older snapshots and
    pages hold), and :meth:`__setstate__` rebuilds the dict.
    """

    __slots__ = ("type", "key", "_members")

    def __init__(self, set_type: SetType, key: Optional[tuple[str, ...]] = None):
        self.type = set_type
        self.key = tuple(key) if key else None
        self._members: Any = {} if set_type.element.semantics.is_object else []

    @property
    def element(self) -> ComponentSpec:
        """The element component spec of this set's type."""
        return self.type.element

    def insert(self, value: Any) -> Any:
        """Add ``value`` to the set.

        Returns the stored member (the canonical :class:`Ref`, or the
        private copy of an ``own`` value), or ``None`` when an equal
        member was already present (set semantics). Null members are
        rejected.
        """
        if value is NULL:
            raise TypeSystemError("sets cannot contain null members")
        canonical = check_slot(self.element, value)
        members = self._members
        if members.__class__ is dict:
            # check_slot admits only a Ref into a reference slot
            if canonical.oid in members:
                return None
            members[canonical.oid] = canonical
            return canonical
        if self.contains(canonical):
            return None
        canonical = copy_value(canonical)
        members.append(canonical)
        return canonical

    def remove(self, value: Any) -> bool:
        """Remove the member equal to ``value``; returns True if found."""
        members = self._members
        if members.__class__ is dict:
            return isinstance(value, Ref) and members.pop(value.oid, None) is not None
        for index, member in enumerate(members):
            if _members_equal(member, value):
                del members[index]
                return True
        return False

    def contains(self, value: Any) -> bool:
        """Membership test with set-element equality (OID or deep value)."""
        members = self._members
        if members.__class__ is dict:
            # anything that is not a Ref can never equal a stored member
            return isinstance(value, Ref) and value.oid in members
        return any(_members_equal(m, value) for m in members)

    def members(self) -> list[Any]:
        """A list copy of the stored members (Refs or embedded values)."""
        members = self._members
        return list(members.values() if members.__class__ is dict else members)

    def live_members(self, live: Any) -> list[Any]:
        """A list copy of the members minus references whose OID is not
        in ``live`` (a store's live-OID mapping): a reference set keys
        its Refs by OID, so the test needs no per-member type check."""
        members = self._members
        if members.__class__ is dict:
            return [ref for oid, ref in members.items() if oid in live]
        return list(members)

    def clear(self) -> None:
        """Remove all members."""
        self._members.clear()

    def __getstate__(self) -> tuple:
        return (None, {"type": self.type, "key": self.key, "_members": self.members()})

    def __setstate__(self, state: tuple) -> None:
        # (None, slots) — older pickles also carry an ``_oids`` index
        # slot, which the dict container makes redundant
        slots = state[1]
        self.type = slots["type"]
        self.key = slots["key"]
        members = slots["_members"]
        if self.type.element.semantics.is_object:
            self._members = {member.oid: member for member in members}
        else:
            self._members = members

    def __iter__(self) -> Iterator[Any]:
        return iter(self.members())

    def __len__(self) -> int:
        return len(self._members)

    def __repr__(self) -> str:
        return f"<set {self.type.describe()} n={len(self._members)}>"


class ArrayInstance:
    """An instance of a fixed- or variable-length array type.

    Indexing is **1-based**, following the paper's ``TopTen [1]``. Fixed
    arrays are created at full length with null slots; variable arrays
    grow with :meth:`append` and support :meth:`insert` / :meth:`remove`.
    """

    __slots__ = ("type", "_slots")

    def __init__(self, array_type: ArrayType):
        self.type = array_type
        if array_type.is_fixed:
            assert array_type.length is not None
            self._slots: list[Any] = [NULL] * array_type.length
        else:
            self._slots = []

    @property
    def element(self) -> ComponentSpec:
        """The element component spec of this array's type."""
        return self.type.element

    def _check_index(self, index: int) -> int:
        if not isinstance(index, int) or isinstance(index, bool):
            raise EvaluationError(f"array index must be an integer, got {index!r}")
        if index < 1 or index > len(self._slots):
            raise EvaluationError(
                f"array index {index} out of bounds 1..{len(self._slots)}"
            )
        return index - 1

    def get(self, index: int) -> Any:
        """Read the 1-based slot ``index``."""
        return self._slots[self._check_index(index)]

    def set(self, index: int, value: Any) -> None:
        """Write the 1-based slot ``index`` with conformance checking."""
        canonical = check_slot(self.element, value)
        if self.element.semantics is Semantics.OWN and canonical is not NULL:
            canonical = copy_value(canonical)
        self._slots[self._check_index(index)] = canonical

    def append(self, value: Any) -> None:
        """Append to a variable-length array (illegal on fixed arrays)."""
        if self.type.is_fixed:
            raise TypeSystemError("cannot append to a fixed-length array")
        canonical = check_slot(self.element, value)
        if self.element.semantics is Semantics.OWN and canonical is not NULL:
            canonical = copy_value(canonical)
        self._slots.append(canonical)

    def insert(self, index: int, value: Any) -> None:
        """Insert before the 1-based slot ``index`` (variable arrays only)."""
        if self.type.is_fixed:
            raise TypeSystemError("cannot insert into a fixed-length array")
        if index < 1 or index > len(self._slots) + 1:
            raise EvaluationError(
                f"array insert index {index} out of bounds 1..{len(self._slots) + 1}"
            )
        canonical = check_slot(self.element, value)
        if self.element.semantics is Semantics.OWN and canonical is not NULL:
            canonical = copy_value(canonical)
        self._slots.insert(index - 1, canonical)

    def remove_at(self, index: int) -> Any:
        """Remove and return the 1-based slot ``index`` (variable arrays)."""
        if self.type.is_fixed:
            raise TypeSystemError("cannot shrink a fixed-length array")
        return self._slots.pop(self._check_index(index))

    def slots(self) -> list[Any]:
        """A list copy of all slots in order."""
        return list(self._slots)

    def live_slots(self, live: Any) -> list[Any]:
        """The non-null slots in order, minus references whose OID is not
        in ``live`` (a store's live-OID mapping)."""
        return [
            slot
            for slot in self._slots
            if slot is not NULL and not (isinstance(slot, Ref) and slot.oid not in live)
        ]

    def __iter__(self) -> Iterator[Any]:
        return iter(list(self._slots))

    def __len__(self) -> int:
        return len(self._slots)

    def __repr__(self) -> str:
        return f"<array {self.type.describe()} n={len(self._slots)}>"


# ---------------------------------------------------------------------------
# Value-semantics helpers.
# ---------------------------------------------------------------------------


def copy_value(value: Any) -> Any:
    """Deep-copy a value for ``own`` (value-semantics) assignment.

    References are *not* followed — copying an own tuple that contains a
    ``ref`` slot copies the reference, not the target object, exactly as
    the paper's structural semantics require. OIDs are never copied: the
    copy of a first-class object is a fresh value with no identity.
    """
    if value is NULL or isinstance(value, Ref):
        return value
    if isinstance(value, TupleInstance):
        clone = TupleInstance(value.type)
        for name, slot in value.attributes().items():
            clone._slots[name] = copy_value(slot)
        return clone
    if isinstance(value, SetInstance):
        clone = SetInstance(value.type, key=value.key)
        members = value._members
        if members.__class__ is dict:
            clone._members = members.copy()  # Refs are immutable
        else:
            clone._members = [copy_value(member) for member in members]
        return clone
    if isinstance(value, ArrayInstance):
        clone = ArrayInstance(value.type)
        clone._slots = [copy_value(slot) for slot in value.slots()]
        return clone
    # scalars and ADT instances
    return _copy.deepcopy(value)


#: scalars whose ``==`` is already value equality; ``bool`` is left out
#: because a boolean equals only a boolean (``true = 1`` is false)
PLAIN_SCALARS = frozenset((int, float, str))


def value_equal(left: Any, right: Any) -> bool:
    """Recursive value equality in the sense of [Banc86].

    Nulls are equal only to nulls here (this is the *structural* equality
    used for set-membership of own values; EXCESS comparison semantics —
    where null = null is unknown — live in the evaluator). References are
    equal only when they denote the same object.
    """
    if left.__class__ in PLAIN_SCALARS and right.__class__ in PLAIN_SCALARS:
        return left == right
    if left is NULL or right is NULL:
        return left is right
    if isinstance(left, Ref) or isinstance(right, Ref):
        return (
            isinstance(left, Ref)
            and isinstance(right, Ref)
            and left.oid == right.oid
        )
    if isinstance(left, TupleInstance) and isinstance(right, TupleInstance):
        if left.type.attribute_names() != right.type.attribute_names():
            return False
        return all(
            value_equal(left.get(name), right.get(name))
            for name in left.type.attribute_names()
        )
    if isinstance(left, SetInstance) and isinstance(right, SetInstance):
        if len(left) != len(right):
            return False
        return all(right.contains(member) for member in left)
    if isinstance(left, ArrayInstance) and isinstance(right, ArrayInstance):
        if len(left) != len(right):
            return False
        return all(
            value_equal(a, b) for a, b in zip(left.slots(), right.slots())
        )
    if type(left) is bool or type(right) is bool:
        return left is right
    return bool(left == right)


def _members_equal(left: Any, right: Any) -> bool:
    """Set-member equality of a value (``own``) element set: recursive
    value equality. Reference sets never call it; they key by OID."""
    return value_equal(left, right)

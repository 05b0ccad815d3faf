"""Integrity enforcement: referential integrity, ownership, cascades, keys.

This module owns the semantic rules of paper §2.2:

* **ref**: the target must be a live object of an assignable type (or the
  reference is null). Deleting a target leaves dangling references that
  *read as null* (GEM-style); :meth:`IntegrityManager.vacuum` scrubs them
  eagerly when desired.
* **own**: pure embedded values — no identity, no rules beyond type
  conformance (enforced by the value layer).
* **own ref**: component objects are first-class but exclusively owned;
  inserting an already-owned object into a second owned slot raises
  :class:`~repro.errors.OwnershipError`, and deleting an owner cascades
  to everything it owns ("if an employee is deleted, so are his or her
  kids").
* **keys** on set instances: uniqueness of a declared attribute tuple
  across the set's members.

Object creation accepts a convenient raw form — plain scalars for base
types, dicts for nested tuple values, lists for sets/arrays, and
:class:`~repro.core.values.Ref` for references — and recursively builds,
registers, and claims ownership of component objects.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.core.catalog import Catalog, NamedObject
from repro.core.identity import ObjectTable, Oid
from repro.core.schema import SchemaType
from repro.core.types import (
    ArrayType,
    ComponentSpec,
    Semantics,
    SetType,
    TupleType,
    Type,
)
from repro.core.values import (
    NULL,
    ArrayInstance,
    Ref,
    SetInstance,
    TupleInstance,
)
from repro.errors import IntegrityError, TypeSystemError

__all__ = ["IntegrityManager"]


class IntegrityManager:
    """Implements creation, deletion, and mutation with EXTRA semantics."""

    def __init__(self, objects: ObjectTable, catalog: Catalog):
        self._objects = objects
        self._catalog = catalog

    @property
    def _undo(self):
        """The open transaction's undo log (lives on the object table)."""
        return self._objects.undo

    # -- creation -----------------------------------------------------------------

    def create_object(
        self,
        schema_type: SchemaType,
        values: Optional[dict[str, Any]] = None,
        owner: Optional[Oid] = None,
        owner_name: Optional[str] = None,
    ) -> Ref:
        """Create a first-class object of ``schema_type`` and return a
        reference to it.

        ``values`` maps attribute names to raw values (see module doc for
        the accepted forms). ``owner`` / ``owner_name`` establish an
        ``own ref`` ownership claim at birth.
        """
        instance = TupleInstance(schema_type)
        oid = self._objects.register(instance, owner=owner, owner_name=owner_name)
        # the owned components built below enter a bounded object cache
        # and could evict this object, still clean and empty on its page,
        # before a failure below rolls back what it already owns
        self._objects.pin(oid)
        try:
            for name, raw in (values or {}).items():
                spec = schema_type.attribute(name)
                instance._slots[name] = self._build_slot(spec, raw, holder=oid)
            self._objects.mark_dirty(instance)
        except Exception:
            # Creation failed part-way: roll the object (and anything it
            # already owns) back out so no half-object leaks.
            self.delete_object(oid)
            raise
        finally:
            self._objects.unpin(oid)
        return Ref(oid)

    def _build_slot(self, spec: ComponentSpec, raw: Any, holder: Oid) -> Any:
        """Convert a raw value into the canonical stored slot form,
        creating and claiming component objects as needed."""
        if raw is NULL or raw is None:
            return NULL
        if spec.semantics is Semantics.OWN:
            return self._build_own_value(spec.type, raw, holder=holder)
        # ref / own ref slots
        assert isinstance(spec.type, TupleType)
        if isinstance(raw, Ref):
            self.check_ref_target(spec, raw)
            if spec.semantics is Semantics.OWN_REF:
                self._objects.claim(raw.oid, owner=holder)
            return raw
        if isinstance(raw, dict):
            if spec.semantics is Semantics.REF:
                raise IntegrityError(
                    "a ref slot requires a reference to an existing object; "
                    "inline construction is only allowed for own ref slots"
                )
            if not isinstance(spec.type, SchemaType):
                raise TypeSystemError(
                    "inline construction requires a schema type target"
                )
            return self.create_object(spec.type, raw, owner=holder)
        raise TypeSystemError(
            f"cannot store {raw!r} in a {spec.semantics} slot of type {spec.type}"
        )

    def _build_own_value(
        self, declared: Type, raw: Any, holder: Optional[Oid] = None
    ) -> Any:
        """Build an embedded (own) value from a raw Python value.

        ``holder`` is the OID of the enclosing first-class object, used to
        claim ownership of ``own ref`` components created or referenced
        inside nested collections (e.g. the members of ``kids``).
        """
        if isinstance(declared, TupleType) and isinstance(raw, dict):
            instance = TupleInstance(declared)
            for name, value in raw.items():
                spec = declared.attribute(name)
                if spec.semantics is Semantics.OWN:
                    instance._slots[name] = self._build_own_value(
                        spec.type, value, holder=holder
                    )
                elif value is None or value is NULL:
                    instance._slots[name] = NULL
                else:
                    instance._slots[name] = self._element_value(spec, value, holder)
            return instance
        if isinstance(declared, SetType) and isinstance(raw, (list, tuple, set)):
            out = SetInstance(declared)
            for member in raw:
                out.insert(
                    self._build_own_value(declared.element.type, member, holder)
                    if declared.element.semantics is Semantics.OWN
                    else self._element_value(declared.element, member, holder)
                )
            return out
        if isinstance(declared, ArrayType) and isinstance(raw, (list, tuple)):
            out = ArrayInstance(declared)
            values = [
                self._build_own_value(declared.element.type, member, holder)
                if declared.element.semantics is Semantics.OWN
                else self._element_value(declared.element, member, holder)
                for member in raw
            ]
            if declared.is_fixed:
                if len(values) > len(out):
                    raise TypeSystemError(
                        f"too many initializers for fixed array of {len(out)}"
                    )
                for index, value in enumerate(values, start=1):
                    out.set(index, value)
            else:
                for value in values:
                    out.append(value)
            return out
        return declared.coerce(raw)

    def _element_value(
        self, spec: ComponentSpec, value: Any, holder: Optional[Oid]
    ) -> Ref:
        """Build a reference element: validate an existing :class:`Ref`
        (claiming ownership for ``own ref``) or create an owned object
        from an inline dict."""
        if isinstance(value, dict):
            if spec.semantics is Semantics.REF:
                raise IntegrityError(
                    "ref elements must reference existing objects; inline "
                    "construction is only allowed for own ref elements"
                )
            if not isinstance(spec.type, SchemaType):
                raise TypeSystemError(
                    "inline construction requires a schema type target"
                )
            return self.create_object(spec.type, value, owner=holder)
        if not isinstance(value, Ref):
            raise IntegrityError(
                f"{spec.semantics} elements must be references, got {value!r}"
            )
        self.check_ref_target(spec, value)
        if spec.semantics is Semantics.OWN_REF and holder is not None:
            self._objects.claim(value.oid, owner=holder)
        return value

    # -- reference checking ---------------------------------------------------------

    def check_ref_target(self, spec: ComponentSpec, reference: Ref) -> None:
        """Validate that ``reference`` denotes a live object whose type is
        assignable to the slot's declared type (referential integrity at
        write time)."""
        target = self._objects.deref(reference.oid)
        if target is None:
            raise IntegrityError(
                f"reference to dead or unknown object {reference.oid}"
            )
        if not spec.type.is_assignable_from(target.type):
            raise IntegrityError(
                f"object {reference.oid} has type {target.type.describe()}, "
                f"not assignable to slot of type {spec.type.describe()}"
            )

    # -- deletion -----------------------------------------------------------------------

    def delete_object(self, oid: Oid) -> int:
        """Delete the object ``oid``, cascading to everything it owns.

        Returns the number of objects deleted (including cascades). The
        deleted object's reference is also removed from its owner's slots
        when it was an owned component, and references *to* it elsewhere
        become dangling (they read as null until vacuumed).
        """
        record = self._objects.record(oid)
        deleted = 0
        # Cascade: delete own-ref components reachable from this object's
        # slots before removing the object itself.
        for slot_value, spec in _reference_slots(record.value):
            if spec.semantics is Semantics.OWN_REF and isinstance(slot_value, Ref):
                if self._objects.is_live(slot_value.oid):
                    deleted += self.delete_object(slot_value.oid)
        owner_oid = record.owner
        self._objects.delete(oid)
        deleted += 1
        if owner_oid is not None and self._objects.is_live(owner_oid):
            holder = self._objects.fetch(owner_oid)
            self._remove_ref_from_holder(holder, oid)
            self._objects.mark_dirty(holder)
        return deleted

    def _remove_ref_from_holder(self, holder: TupleInstance, oid: Oid) -> None:
        """Scrub ``Ref(oid)`` out of one tuple instance's slots."""
        undo = self._undo
        for name, value in holder.attributes().items():
            if isinstance(value, Ref) and value.oid == oid:
                if undo is not None:
                    undo.save_tuple(holder)
                holder._slots[name] = NULL
            elif isinstance(value, SetInstance):
                if undo is not None and value.contains(Ref(oid)):
                    undo.save_set(value)
                value.remove(Ref(oid))
            elif isinstance(value, ArrayInstance):
                for index in range(1, len(value) + 1):
                    slot = value.get(index)
                    if isinstance(slot, Ref) and slot.oid == oid:
                        if undo is not None:
                            undo.save_array(value)
                        value._slots[index - 1] = NULL

    # -- set membership ---------------------------------------------------------------

    def insert_member(
        self,
        named: NamedObject,
        collection: SetInstance,
        value: Any,
    ) -> Any:
        """Insert ``value`` into a named set with full semantics.

        For ``own ref`` element sets, an existing object is claimed (the
        exclusivity check fires here) and a dict creates a fresh owned
        object. For ``ref`` sets the target is validated. For ``own``
        sets the value is embedded. Key constraints are checked first.
        Returns the stored member, or None when it was already present.
        """
        element = collection.element
        if element.semantics is Semantics.OWN:
            member = self._build_own_value(element.type, value)
        elif isinstance(value, dict):
            if element.semantics is Semantics.REF:
                raise IntegrityError(
                    f"set {named.name!r} holds references to existing objects; "
                    "inline construction is only allowed for own ref sets"
                )
            if not isinstance(element.type, SchemaType):
                raise TypeSystemError("inline construction requires a schema type")
            member = self.create_object(
                element.type, value, owner_name=named.name
            )
        elif isinstance(value, Ref):
            self.check_ref_target(element, value)
            member = value
        else:
            raise TypeSystemError(
                f"cannot insert {value!r} into set {named.name!r}"
            )
        self.check_key(named, collection, member)
        if isinstance(member, Ref) and element.semantics is Semantics.OWN_REF:
            if isinstance(value, Ref):
                # claiming an existing object: exclusivity check
                self._objects.claim(member.oid, owner_name=named.name)
        if self._undo is not None:
            self._undo.save_set(collection)
        stored = collection.insert(member)
        if stored is None and isinstance(value, Ref) and element.semantics is Semantics.OWN_REF:
            self._objects.release(member.oid)
        return stored

    def remove_member(
        self, named: NamedObject, collection: SetInstance, member: Any,
        delete_owned: bool = True,
    ) -> bool:
        """Remove ``member`` from a named set.

        When the set owns its members (``own ref``), removal deletes the
        member object too (it cannot outlive its owner) unless
        ``delete_owned`` is False, in which case ownership is released.
        """
        if self._undo is not None and collection.contains(member):
            self._undo.save_set(collection)
        removed = collection.remove(member)
        if not removed:
            return False
        if isinstance(member, Ref) and collection.element.semantics is Semantics.OWN_REF:
            if self._objects.is_live(member.oid):
                if delete_owned:
                    self.delete_object(member.oid)
                else:
                    self._objects.release(member.oid)
        return True

    # -- keys --------------------------------------------------------------------------

    def check_key(
        self, named: NamedObject, collection: SetInstance, candidate: Any
    ) -> None:
        """Enforce the set instance's key constraint against ``candidate``."""
        if not collection.key:
            return
        candidate_key = self._key_of(collection, candidate)
        if candidate_key is None:
            return  # null in key: cannot collide (QUEL-style null semantics)
        for member in collection:
            if self._key_of(collection, member) == candidate_key:
                raise IntegrityError(
                    f"key violation on {named.name!r}: duplicate key "
                    f"{candidate_key!r} for attributes {collection.key}"
                )

    def _key_of(self, collection: SetInstance, member: Any) -> Optional[tuple]:
        assert collection.key is not None
        instance = self.resolve_member(collection, member)
        if instance is None:
            return None
        values = []
        for attribute in collection.key:
            value = instance.get(attribute)
            if value is NULL:
                return None
            values.append(value)
        return tuple(values)

    # -- member resolution ----------------------------------------------------------------

    def resolve_member(
        self, collection: SetInstance, member: Any
    ) -> Optional[TupleInstance]:
        """Resolve a set member to its tuple instance.

        Dereferences ``Ref`` members (None for dangling ones — callers
        skip those, implementing null-on-dangle iteration); own members
        are returned as stored when they are tuple instances.
        """
        if isinstance(member, Ref):
            return self._objects.deref(member.oid)
        if isinstance(member, TupleInstance):
            return member
        return None

    # -- vacuum ------------------------------------------------------------------------------

    def vacuum(self) -> int:
        """Eagerly scrub dangling references database-wide.

        Dangling refs in object slots become null; dangling members of
        named ref sets/arrays are removed/nulled. Returns the number of
        references scrubbed.
        """
        scrubbed = 0
        for oid in list(self._objects.oids()):
            instance = self._objects.fetch(oid)
            scrubbed += self._vacuum_tuple(instance)
            self._objects.mark_dirty(instance)
        for name in self._catalog.named_names():
            named = self._catalog.named(name)
            scrubbed += self._vacuum_value(named.value)
        return scrubbed

    def _vacuum_tuple(self, instance: TupleInstance) -> int:
        scrubbed = 0
        for name, value in instance.attributes().items():
            if isinstance(value, Ref) and not self._objects.is_live(value.oid):
                if self._undo is not None:
                    self._undo.save_tuple(instance)
                instance._slots[name] = NULL
                scrubbed += 1
            else:
                scrubbed += self._vacuum_value(value)
        return scrubbed

    def _vacuum_value(self, value: Any) -> int:
        scrubbed = 0
        if isinstance(value, SetInstance):
            for member in value.members():
                if isinstance(member, Ref) and not self._objects.is_live(member.oid):
                    if self._undo is not None:
                        self._undo.save_set(value)
                    value.remove(member)
                    scrubbed += 1
                elif isinstance(member, TupleInstance):
                    scrubbed += self._vacuum_tuple(member)
        elif isinstance(value, ArrayInstance):
            for index in range(1, len(value) + 1):
                slot = value.get(index)
                if isinstance(slot, Ref) and not self._objects.is_live(slot.oid):
                    if self._undo is not None:
                        self._undo.save_array(value)
                    value._slots[index - 1] = NULL
                    scrubbed += 1
                elif isinstance(slot, TupleInstance):
                    scrubbed += self._vacuum_tuple(slot)
        elif isinstance(value, TupleInstance):
            scrubbed += self._vacuum_tuple(value)
        return scrubbed


def _reference_slots(
    instance: TupleInstance,
) -> Iterable[tuple[Any, ComponentSpec]]:
    """Yield ``(slot_value, effective_spec)`` for every reference-bearing
    position in ``instance`` (attributes, set members, array slots)."""
    for name, value in instance.attributes().items():
        spec = instance.type.attribute(name)
        if spec.semantics.is_object:
            yield value, spec
        elif isinstance(value, (SetInstance, ArrayInstance)):
            element = value.element
            if element.semantics.is_object:
                for member in value:
                    yield member, element
            else:
                for member in value:
                    if isinstance(member, TupleInstance):
                        yield from _reference_slots(member)
        elif isinstance(value, TupleInstance):
            yield from _reference_slots(value)

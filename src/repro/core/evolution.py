"""Schema evolution: altering types in place.

The paper's §6 defers this: "we will face type evolution issues at two
levels[:] for ADTs, and for EXTRA schema types". This module implements
the schema-type level as the paper's model implies it must work:

* adding an attribute to a type adds it to **every subtype** (the lattice
  stays consistent) and to every existing instance (new slots start null;
  own collections start empty);
* dropping an attribute removes it from the type, its subtypes, every
  instance, and any indexes over it;
* an addition that would collide with an attribute a subtype already has
  (locally or from another parent) is an inheritance conflict and aborts
  the whole alteration — nothing is partially applied.

Because :class:`~repro.core.schema.SchemaType` objects are shared (every
instance and component spec points at the same type object), evolution
re-runs type resolution *in place* on the existing objects, so all
references see the new shape atomically.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.core.schema import SchemaType
from repro.core.types import (
    ArrayType,
    ComponentSpec,
    Semantics,
    SetType,
)
from repro.core.values import (
    NULL,
    ArrayInstance,
    SetInstance,
    TupleInstance,
)
from repro.errors import SchemaError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.database import Database

__all__ = ["alter_type"]


def alter_type(
    database: "Database",
    name: str,
    adds: list[tuple[str, ComponentSpec]],
    drops: list[str],
) -> str:
    """Add and/or drop attributes of schema type ``name``.

    Returns a human-readable summary. Raises (leaving everything
    unchanged) when a drop names a non-local or unknown attribute, when a
    keyed set depends on a dropped attribute, or when an addition
    conflicts anywhere in the lattice.
    """
    catalog = database.catalog
    target = catalog.schema_type(name)
    local_names = set(target.local_attribute_names())
    for attribute in drops:
        if attribute not in local_names:
            raise SchemaError(
                f"cannot drop {name}.{attribute}: not a locally declared "
                "attribute (inherited attributes are dropped at their origin)"
            )
    _check_key_dependencies(database, target, drops)

    affected = [target] + catalog.subtypes_of(name)
    affected.sort(key=lambda t: len(t.ancestors()))  # parents first
    snapshots = [(t, dict(t.__dict__)) for t in affected]
    undo = database.objects.undo
    if undo is not None:
        # the snapshots taken for conflict rollback double as the
        # transaction's before-images of the shared type objects
        for schema_type, _state in snapshots:
            undo.save_object_dict(schema_type)
    try:
        for schema_type in affected:
            locals_list = _local_attributes(schema_type)
            if schema_type is target:
                locals_list = [
                    (a, s) for a, s in locals_list if a not in set(drops)
                ]
                locals_list += list(adds)
            SchemaType.__init__(
                schema_type,
                schema_type.name,
                locals_list,
                parents=schema_type.parents,
                renames=schema_type.renames,
            )
    except Exception:
        for schema_type, state in snapshots:
            schema_type.__dict__.clear()
            schema_type.__dict__.update(state)
        raise

    affected_names = {t.name for t in affected}
    patched = _patch_instances(database, affected_names, adds, drops)
    dropped_indexes = _drop_stale_indexes(database, affected_names, drops)
    added = ", ".join(a for a, _s in adds) or "-"
    removed = ", ".join(drops) or "-"
    return (
        f"altered type {name}: added [{added}], dropped [{removed}]; "
        f"{patched} instance(s) patched"
        + (f"; {dropped_indexes} index(es) dropped" if dropped_indexes else "")
    )


def _local_attributes(schema_type: SchemaType) -> list[tuple[str, ComponentSpec]]:
    """The locally declared attributes (name, spec) of a schema type."""
    return [
        (attribute, schema_type.attribute_origin(attribute).spec)
        for attribute in schema_type.local_attribute_names()
    ]


def _check_key_dependencies(
    database: "Database", target: SchemaType, drops: list[str]
) -> None:
    if not drops:
        return
    dropped = set(drops)
    for named_name in database.catalog.named_names():
        named = database.catalog.named(named_name)
        value = named.value
        if not isinstance(value, SetInstance) or not value.key:
            continue
        element = value.element.type
        if not isinstance(element, SchemaType):
            continue
        if element.name == target.name or element.is_subtype_of(target):
            overlap = dropped & set(value.key)
            if overlap:
                raise SchemaError(
                    f"cannot drop {', '.join(sorted(overlap))}: the key of "
                    f"set {named_name!r} depends on it"
                )


def _default_slot(spec: ComponentSpec) -> Any:
    """Initial slot value for a newly added attribute."""
    if spec.semantics is Semantics.OWN and isinstance(spec.type, SetType):
        return SetInstance(spec.type)
    if spec.semantics is Semantics.OWN and isinstance(spec.type, ArrayType):
        return ArrayInstance(spec.type)
    return NULL


def _patch_instances(
    database: "Database",
    affected_names: set[str],
    adds: list[tuple[str, ComponentSpec]],
    drops: list[str],
) -> int:
    """Bring every reachable instance of an affected type up to shape.

    First-class objects are deduplicated by OID, never by ``id()``: on a
    paged store a patched object can be evicted and collected mid-pass,
    and the next object faulted in may reuse its ``id()``. ``own``
    values need no deduplication — value semantics copies them on
    assignment, so each is reachable only through its one parent."""
    patched = 0
    seen: set[int] = set()
    undo = database.objects.undo

    def patch_tuple(instance: TupleInstance) -> None:
        nonlocal patched
        if instance.oid is not None:
            if instance.oid in seen:
                return
            seen.add(instance.oid)
        if (
            isinstance(instance.type, SchemaType)
            and instance.type.name in affected_names
        ):
            if undo is not None and (adds or drops):
                undo.save_tuple(instance)
            changed = False
            for attribute, spec in adds:
                if attribute not in instance._slots:
                    instance._slots[attribute] = _default_slot(spec)
                    changed = True
            for attribute in drops:
                if instance._slots.pop(attribute, None) is not None:
                    changed = True
            if changed:
                patched += 1
        for value in list(instance._slots.values()):
            patch_value(value)

    def patch_value(value: Any) -> None:
        if isinstance(value, TupleInstance):
            patch_tuple(value)
        elif isinstance(value, (SetInstance, ArrayInstance)):
            for member in value:
                if isinstance(member, TupleInstance):
                    patch_tuple(member)

    for oid in list(database.objects.oids()):
        patch_tuple(database.objects.fetch(oid))
        database.objects.mark_dirty(oid)
    for named_name in database.catalog.named_names():
        patch_value(database.catalog.named(named_name).value)
    return patched


def _drop_stale_indexes(
    database: "Database", affected_names: set[str], drops: list[str]
) -> int:
    if not drops:
        return 0
    dropped = 0
    for descriptor in list(database.catalog.indexes.all_indexes()):
        if descriptor.attribute not in drops:
            continue
        named = database.catalog.named(descriptor.set_name)
        element = named.value.element.type if isinstance(
            named.value, (SetInstance, ArrayInstance)
        ) else None
        if isinstance(element, SchemaType) and element.name in affected_names:
            database.catalog.indexes.drop(
                descriptor.set_name, descriptor.attribute, descriptor.kind
            )
            dropped += 1
    return dropped

"""The system catalog.

The catalog names everything: schema types (the inheritance lattice),
named persistent database objects (paper §2.1 — EXTRA separates type from
instance, so a database is a collection of *named* sets, arrays, and
individual objects such as ``Employees``, ``TopTen``, ``StarEmployee``,
and ``Today``), EXCESS functions and procedures, and it holds the ADT
registry, the generic set-function registry, the access-method tables,
and the index manager.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from repro.adt.generics import SetFunctionRegistry
from repro.adt.registry import AdtRegistry
from repro.core.schema import Rename, SchemaType
from repro.core.statistics import StatisticsManager
from repro.core.types import ComponentSpec, SetType
from repro.errors import CatalogError, SchemaError
from repro.storage.access import AccessMethodTable, IndexManager

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.excess.functions import ExcessFunction
    from repro.excess.procedures import Procedure

__all__ = ["NamedObject", "Catalog"]


@dataclass
class NamedObject:
    """A named persistent database object created with ``create``.

    ``spec`` is the declared component spec (e.g. ``own {own ref Employee}``
    for ``create {own ref Employee} Employees``); ``value`` is the stored
    slot value — a :class:`~repro.core.values.SetInstance`,
    :class:`~repro.core.values.ArrayInstance`, tuple instance, reference,
    scalar, or null. ``owner`` records the user who created it (the
    default holder of all privileges on it).
    """

    name: str
    spec: ComponentSpec
    value: Any
    owner: str = "dba"

    @property
    def is_set(self) -> bool:
        """True when the named object is a set."""
        return isinstance(self.spec.type, SetType)


class _Epoch:
    """The catalog's schema epoch as a counter of its own: the statistics
    and index managers bump it without holding the catalog, so a dropped
    catalog is freed by reference counting."""

    __slots__ = ("value",)

    def __init__(self, value: int = 0):
        self.value = value

    def bump(self) -> None:
        self.value += 1


class Catalog:
    """All name → definition mappings for one database."""

    #: the open transaction's undo log (attached by ``Database.begin``);
    #: class attribute so snapshots from before this field existed load
    undo = None

    def __init__(self) -> None:
        self._types: dict[str, SchemaType] = {}
        self._named: dict[str, NamedObject] = {}
        #: (type_name, function_name) → EXCESS function definition
        self._functions: dict[tuple[str, str], "ExcessFunction"] = {}
        self._procedures: dict[str, "Procedure"] = {}
        self.adts = AdtRegistry()
        self.set_functions = SetFunctionRegistry()
        self.access_table = AccessMethodTable()
        self.indexes = IndexManager()
        #: monotonically increasing schema version; any change that could
        #: invalidate a cached query plan bumps it (DDL, index create/drop,
        #: grants, session range re-declaration)
        self._epoch = _Epoch()
        #: tracked named-set cardinalities for optimizer cost decisions
        self._cardinalities: dict[str, int] = {}
        #: per-set attribute statistics (``analyze``); crossing the churn
        #: staleness threshold bumps the epoch so cached plans costed
        #: under the old histograms are dropped
        self.statistics = StatisticsManager(on_stale=self._epoch.bump)
        self.indexes.on_change = self._epoch.bump

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("undo", None)  # undo logs never survive pickling
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        if not isinstance(self._epoch, _Epoch):
            # a snapshot from before the counter: an int epoch, and
            # managers wired to this catalog's bump_epoch
            self._epoch = _Epoch(self._epoch)
            self.statistics.on_stale = self.indexes.on_change = self._epoch.bump

    # -- plan-cache epoch -------------------------------------------------------

    @property
    def epoch(self) -> int:
        """The current schema epoch; plans bound under an older epoch may
        be stale and must not be reused."""
        return self._epoch.value

    def bump_epoch(self) -> None:
        """Invalidate every plan bound against the current catalog state."""
        self._epoch.bump()

    # -- cardinality statistics -------------------------------------------------

    def note_cardinality(self, set_name: str, delta: int) -> None:
        """Adjust the tracked member count of a named set.

        Called *after* the mutation applied, so when the set is not yet
        tracked a direct measurement (which already reflects the change)
        seeds the counter instead of ``measurement + delta``.
        """
        if self.undo is not None:
            self.undo.save_cardinality(self, set_name)
        current = self._cardinalities.get(set_name)
        if current is None:
            self._cardinalities[set_name] = self._measure_cardinality(set_name)
        else:
            self._cardinalities[set_name] = max(0, current + delta)

    def cardinality(self, set_name: str) -> int:
        """The (tracked) member count of a named set; measured and cached
        on first request."""
        count = self._cardinalities.get(set_name)
        if count is None:
            if self.undo is not None:  # seeding mutates the counter map
                self.undo.save_cardinality(self, set_name)
            count = self._measure_cardinality(set_name)
            self._cardinalities[set_name] = count
        return count

    def _measure_cardinality(self, set_name: str) -> int:
        named = self._named.get(set_name)
        if named is None:
            return 0
        try:
            return len(named.value)
        except TypeError:
            return 0

    # -- schema types ----------------------------------------------------------

    def define_type(
        self,
        name: str,
        attributes: list[tuple[str, ComponentSpec]],
        parents: list[str] | list[SchemaType] = (),
        renames: list[Rename] = (),
    ) -> SchemaType:
        """Create and register a schema type (``define type``).

        ``parents`` may be given as names (resolved here) or as already
        resolved :class:`SchemaType` objects. A type name may not collide
        with an existing type, ADT, or named object.
        """
        self._check_fresh_name(name)
        parent_types: list[SchemaType] = []
        for parent in parents:
            if isinstance(parent, SchemaType):
                parent_types.append(parent)
            else:
                parent_types.append(self.schema_type(parent))
        schema_type = SchemaType(
            name, attributes, parents=parent_types, renames=list(renames)
        )
        if self.undo is not None:
            self.undo.note_map_set(self._types, name)
        self._types[name] = schema_type
        self.bump_epoch()
        return schema_type

    def register_type(self, schema_type: SchemaType) -> SchemaType:
        """Register an already-constructed schema type (used by the
        interpreter's two-phase self-referential construction)."""
        self._check_fresh_name(schema_type.name)
        if self.undo is not None:
            self.undo.note_map_set(self._types, schema_type.name)
        self._types[schema_type.name] = schema_type
        self.bump_epoch()
        return schema_type

    def schema_type(self, name: str) -> SchemaType:
        """Look up a schema type by name."""
        try:
            return self._types[name]
        except KeyError:
            raise CatalogError(f"unknown type {name!r}") from None

    def has_type(self, name: str) -> bool:
        """True when ``name`` is a schema type."""
        return name in self._types

    def type_names(self) -> list[str]:
        """All schema type names, sorted."""
        return sorted(self._types)

    def subtypes_of(self, name: str) -> list[SchemaType]:
        """Every schema type that is a (transitive, proper) subtype."""
        return [
            t for t in self._types.values()
            if t.name != name and name in t.ancestors()
        ]

    def drop_type(self, name: str) -> None:
        """Remove a schema type; refuses while subtypes or named objects
        depend on it."""
        target = self.schema_type(name)
        dependents = [t.name for t in self.subtypes_of(name)]
        if dependents:
            raise SchemaError(
                f"cannot drop type {name!r}: subtypes depend on it: "
                f"{', '.join(sorted(dependents))}"
            )
        users = [
            named.name for named in self._named.values()
            if _spec_mentions_type(named.spec, target)
        ]
        if users:
            raise SchemaError(
                f"cannot drop type {name!r}: named objects use it: "
                f"{', '.join(sorted(users))}"
            )
        if self.undo is not None:
            self.undo.note_map_set(self._types, name)
        del self._types[name]
        self.bump_epoch()

    # -- named objects ------------------------------------------------------------

    def create_named(self, named: NamedObject) -> NamedObject:
        """Register a named persistent object (``create``)."""
        self._check_fresh_name(named.name)
        if self.undo is not None:
            self.undo.note_map_set(self._named, named.name)
        self._named[named.name] = named
        self.bump_epoch()
        return named

    def named(self, name: str) -> NamedObject:
        """Look up a named object."""
        try:
            return self._named[name]
        except KeyError:
            raise CatalogError(f"unknown database object {name!r}") from None

    def has_named(self, name: str) -> bool:
        """True when ``name`` is a named database object."""
        return name in self._named

    def named_names(self) -> list[str]:
        """All named object names, sorted."""
        return sorted(self._named)

    def destroy_named(self, name: str) -> NamedObject:
        """Remove a named object from the catalog (``destroy``); the
        caller is responsible for cascading deletes of owned members."""
        if self.undo is not None and name in self._named:
            self.undo.note_map_set(self._named, name)
            self.undo.save_cardinality(self, name)
        try:
            removed = self._named.pop(name)
        except KeyError:
            raise CatalogError(f"unknown database object {name!r}") from None
        self._cardinalities.pop(name, None)
        self.statistics.forget(name)
        self.bump_epoch()
        return removed

    # -- EXCESS functions -----------------------------------------------------------

    def define_function(self, function: "ExcessFunction") -> None:
        """Register an EXCESS function attached to a schema type.

        Redefinition for a *subtype* is how virtual overriding works;
        redefinition for the same type replaces the previous definition
        only when ``function.replace`` is set.
        """
        key = (function.type_name, function.name)
        if key in self._functions and not function.replace:
            raise CatalogError(
                f"function {function.name!r} already defined for type "
                f"{function.type_name!r}"
            )
        if self.undo is not None:
            self.undo.note_map_set(self._functions, key)
        self._functions[key] = function
        self.bump_epoch()

    def undefine_function(self, type_name: str, name: str) -> None:
        """Remove a function registration (used to roll back a definition
        whose body failed validation)."""
        if self.undo is not None:
            self.undo.note_map_set(self._functions, (type_name, name))
        self._functions.pop((type_name, name), None)
        self.bump_epoch()

    def lookup_function(
        self, schema_type: SchemaType, name: str
    ) -> Optional["ExcessFunction"]:
        """Resolve ``name`` for ``schema_type`` through the lattice.

        Walks the type's linearization (self first, then ancestors), so a
        redefinition on a subtype shadows the inherited one — the paper's
        virtual-function-like dispatch.
        """
        for candidate in schema_type.linearization():
            function = self._functions.get((candidate.name, name))
            if function is not None:
                return function
        return None

    def functions_of(self, type_name: str) -> list["ExcessFunction"]:
        """Functions declared *directly* on ``type_name``."""
        return [
            fn for (owner, _name), fn in self._functions.items()
            if owner == type_name
        ]

    def all_functions(self) -> list["ExcessFunction"]:
        """Every registered EXCESS function."""
        return list(self._functions.values())

    # -- procedures --------------------------------------------------------------------

    def define_procedure(self, procedure: "Procedure") -> None:
        """Register a stored procedure (IDM-style stored command)."""
        if procedure.name in self._procedures:
            raise CatalogError(f"procedure {procedure.name!r} already defined")
        if self.undo is not None:
            self.undo.note_map_set(self._procedures, procedure.name)
        self._procedures[procedure.name] = procedure
        self.bump_epoch()

    def procedure(self, name: str) -> "Procedure":
        """Look up a procedure by name."""
        try:
            return self._procedures[name]
        except KeyError:
            raise CatalogError(f"unknown procedure {name!r}") from None

    def has_procedure(self, name: str) -> bool:
        """True when ``name`` is a stored procedure."""
        return name in self._procedures

    def procedure_names(self) -> list[str]:
        """All procedure names, sorted."""
        return sorted(self._procedures)

    # -- helpers ------------------------------------------------------------------------

    def _check_fresh_name(self, name: str) -> None:
        if name in self._types:
            raise CatalogError(f"name {name!r} already names a type")
        if name in self._named:
            raise CatalogError(f"name {name!r} already names a database object")
        if self.adts.has_adt(name):
            raise CatalogError(f"name {name!r} already names an ADT")


def _spec_mentions_type(spec: ComponentSpec, target: SchemaType) -> bool:
    """True when ``spec`` (possibly nested) refers to ``target``."""
    from repro.core.types import ArrayType, TupleType

    t = spec.type
    if isinstance(t, SchemaType):
        return t.name == target.name or target.name in t.ancestors()
    if isinstance(t, SetType):
        return _spec_mentions_type(t.element, target)
    if isinstance(t, ArrayType):
        return _spec_mentions_type(t.element, target)
    if isinstance(t, TupleType):
        return any(
            _spec_mentions_type(attr_spec, target) for _n, attr_spec in t
        )
    return False
